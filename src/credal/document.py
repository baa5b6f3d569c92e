"""Line-oriented document format: named frames, scales, and uncertainty objects.

One declaration per line. A mass declaration opens a block whose following
lines each carry one focal subset with its weight; the block closes at the
next declaration or at the end of input. Lines whose first non-blank
character is `#` are comments. The line helpers raise plain ValidationErrors;
`parse_document` re-raises every failure as a DocumentError carrying the
1-based line number, which for a mass block's own checks is its header line.
`_declaration` writes the mass, pi and prob lines that commands print.

    frame w: w1 w2 w3
    mass m1 over w:
      {w1} 0.5
      {w1 w2} 0.3
      {w1 w2 w3} 0.2
    pi p1 over w: 1.0 0.7 0.3
    scale age: 20..29
    fuzzy young over age: (20,1.0) (25,0.5) (30,0.0)
    statement s1 over w: core {w1 w2} alpha 0.8
"""

from __future__ import annotations

import re

from ._record import Record
from .elicit import VagueStatement
from .errors import CredalError, DocumentError, ValidationError
from .evidence import MassFunction, ProbabilityDistribution
from .frames import Frame, parse_frame
from .fuzzy import FuzzySet, NumericScale
from .possibility import PossibilityDistribution

_SCALE_LINE = re.compile(r"^scale\s+(?P<name>\S+)\s*:\s*(?P<lo>-?[0-9]+)\.\.(?P<hi>-?[0-9]+)\s*$")
_OVER_LINE = re.compile(
    r"^(?P<kind>mass|pi|prob|fuzzy|statement)\s+(?P<name>\S+)\s+over\s+(?P<ref>\S+)\s*:\s*(?P<rest>.*)$"
)
_FOCAL_LINE = re.compile(r"^\{(?P<labels>[^{}]*)\}\s+(?P<weight>\S+)$")
_STATEMENT_REST = re.compile(
    r"^core\s+\{(?P<labels>[^{}]*)\}\s+alpha\s+(?P<alpha>\S+)$"
)
_BREAKPOINT = re.compile(r"\(\s*(-?[0-9]+)\s*,\s*([^\s(),]+)\s*\)")

# the Document table that holds each kind of declaration
_TABLES = {
    "frame": "frames",
    "scale": "scales",
    "mass": "masses",
    "pi": "pis",
    "prob": "probs",
    "fuzzy": "fuzzies",
    "statement": "statements",
}


class Document(Record):
    """All named objects of one parsed document, one table per kind; unlike other records, mutable."""

    __slots__ = __match_args__ = ("frames", "scales", "masses", "pis", "probs", "fuzzies", "statements")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        frames: dict[str, Frame] | None = None,
        scales: dict[str, NumericScale] | None = None,
        masses: dict[str, MassFunction] | None = None,
        pis: dict[str, PossibilityDistribution] | None = None,
        probs: dict[str, ProbabilityDistribution] | None = None,
        fuzzies: dict[str, FuzzySet] | None = None,
        statements: dict[str, VagueStatement] | None = None,
    ):
        self.frames = {} if frames is None else frames
        self.scales = {} if scales is None else scales
        self.masses = {} if masses is None else masses
        self.pis = {} if pis is None else pis
        self.probs = {} if probs is None else probs
        self.fuzzies = {} if fuzzies is None else fuzzies
        self.statements = {} if statements is None else statements

    def frame_name(self, frame: Frame) -> str:
        """The declared name of a frame or scale; an undeclared frame reports its atoms."""
        for name, candidate in self.frames.items():
            if candidate == frame:
                return name
        for name, scale in self.scales.items():
            if scale.frame == frame:
                return name
        return " ".join(frame.atoms)

    def frame_named(self, name: str) -> Frame:
        """The frame declared as `name`; a scale name works too, its points being atoms."""
        if name in self.frames:
            return self.frames[name]
        if name in self.scales:
            return self.scales[name].frame
        raise ValidationError(f"unknown frame {name!r}")


def _number(token: str) -> float:
    """A number token as `float` reads it, but only in ASCII and without `_` digit separators."""
    try:
        if not token.isascii() or "_" in token:
            raise ValueError  # `float` would read `0.2_5` and other scripts' digits
        return float(token)
    except ValueError:
        raise ValidationError(f"not a number: {token!r}") from None


def _integer(token: str) -> int:
    """A token already matched as ``-?[0-9]+``; `int` refuses only one longer than the interpreter's digit cap."""
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"integer of {len(token.lstrip('-'))} digits is too long") from None


def hnum(v: float) -> str:
    """Human-readable number: 6 significant digits, no trailing zeros."""
    return format(v, ".6g")


def _declaration(doc: Document, name: str,
                 obj: MassFunction | PossibilityDistribution | ProbabilityDistribution) -> list[str]:
    """The lines declaring `obj` as `name` over its frame's name in `doc`: 6 significant digits, or where
    those would not rebuild it (a mass or prob off a sum of 1), digits that read back as its own floats."""
    frame, mass = obj.frame, isinstance(obj, MassFunction)
    masks, numbers = zip(*obj._weights.items()) if mass else ((), obj.values)
    digits = [hnum(v) for v in numbers]
    try:  # the constructor the parser calls, on the numbers it would read
        shown = [float(d) for d in digits]
        MassFunction._from_masks(frame, zip(masks, shown)) if mass else type(obj)(frame, shown)
    except ValidationError:
        digits = [repr(v) for v in numbers]
    if mass:
        return [f"mass {name} over {doc.frame_name(frame)}:"] + [
            f"  {frame.from_mask(mask)} {d}" for mask, d in zip(masks, digits)]
    kind = "pi" if isinstance(obj, PossibilityDistribution) else "prob"
    return [f"{kind} {name} over {doc.frame_name(frame)}: {' '.join(digits)}"]


class _Parser:
    def __init__(self) -> None:
        self.doc = Document()
        # open mass block, if any: (name, frame, (mask, weight) pairs, header line)
        self.block: tuple[str, Frame, list[tuple[int, float]], int] | None = None
        # the declaration that owns each frame's atoms, e.g. "frame 'w'"
        self.owners: dict[Frame, str] = {}

    def _declare(self, kind: str, name: str) -> dict:
        table: dict = getattr(self.doc, _TABLES[kind])
        if name in table:
            raise ValidationError(f"duplicate {kind} name {name!r}")
        return table

    def _claim(self, kind: str, name: str, frame: Frame) -> None:
        """Give the frame's atoms to this declaration alone, so frame_name finds it."""
        owner = self.owners.get(frame)
        if owner is not None:
            raise ValidationError(f"{kind} {name!r} repeats the atoms of {owner}")
        self.owners[frame] = f"{kind} {name!r}"

    def _close_block(self) -> None:
        if self.block is None:
            return
        name, frame, assignments, header = self.block
        self.block = None
        if not assignments:
            raise DocumentError(f"mass {name!r} declares no focal elements", header)
        try:
            self.doc.masses[name] = MassFunction._from_masks(frame, assignments)
        except CredalError as exc:
            raise DocumentError(str(exc), header) from exc

    def feed(self, raw: str, line: int) -> None:
        text = raw.strip()
        if not text or text.startswith("#"):
            return
        if text.startswith("{"):
            self._focal(text)
            return
        self._close_block()
        word = text.split(None, 1)[0]
        if word == "frame":
            self._frame(text)
        elif word == "scale":
            self._scale(text)
        elif word in _TABLES:
            self._over(text, line)
        else:
            raise ValidationError(f"unrecognized declaration: {text!r}")

    def _focal(self, text: str) -> None:
        if self.block is None:
            raise ValidationError("focal line outside a mass block")
        m = _FOCAL_LINE.match(text)
        if m is None:
            raise ValidationError(f"malformed focal line: {text!r} (expected {{label ...}} weight)")
        _, frame, assignments, _ = self.block
        mask = frame._mask(m.group("labels").split())
        assignments.append((mask, _number(m.group("weight"))))

    def _frame(self, text: str) -> None:
        name, frame = parse_frame(text)
        table = self._declare("frame", name)
        self._claim("frame", name, frame)
        table[name] = frame

    def _scale(self, text: str) -> None:
        m = _SCALE_LINE.match(text)
        if m is None:
            raise ValidationError(f"malformed scale declaration: {text!r} (expected scale <name>: <lo>..<hi>)")
        name = m.group("name")
        table = self._declare("scale", name)
        scale = NumericScale(_integer(m.group("lo")), _integer(m.group("hi")))
        self._claim("scale", name, scale.frame)
        table[name] = scale

    def _over(self, text: str, line: int) -> None:
        m = _OVER_LINE.match(text)
        if m is None:
            raise ValidationError(f"malformed declaration: {text!r} (expected <kind> <name> over <frame>: ...)")
        kind, name, ref, rest = m.group("kind", "name", "ref", "rest")
        table = self._declare(kind, name)  # duplicate check for every kind
        if kind == "fuzzy":
            scale = self.doc.scales.get(ref)
            if scale is None:
                raise ValidationError(f"unknown scale {ref!r}")
            table[name] = self._fuzzy(scale, name, rest)
            return
        frame = self.doc.frame_named(ref)
        if kind == "mass":
            if rest:
                raise ValidationError("mass declaration takes no inline values; focal lines follow")
            # the entry lands in the table when the block closes; errors then name this header line
            self.block = (name, frame, [], line)
            return
        if kind == "pi":
            table[name] = PossibilityDistribution(frame, [_number(t) for t in rest.split()])
        elif kind == "prob":
            table[name] = ProbabilityDistribution(frame, [_number(t) for t in rest.split()])
        else:
            table[name] = self._statement(frame, rest)

    def _fuzzy(self, scale: NumericScale, name: str, rest: str) -> FuzzySet:
        pairs = _BREAKPOINT.findall(rest)
        leftover = _BREAKPOINT.sub("", rest).strip()
        if not pairs or leftover:
            raise ValidationError(f"malformed fuzzy declaration: expected breakpoints (<x>,<mu>), got {rest!r}")
        breakpoints = [(_integer(x), _number(mu)) for x, mu in pairs]
        return FuzzySet.from_breakpoints(scale, breakpoints, name=name)

    def _statement(self, frame: Frame, rest: str) -> VagueStatement:
        m = _STATEMENT_REST.match(rest)
        if m is None:
            raise ValidationError(f"malformed statement: expected core {{label ...}} alpha <value>, got {rest!r}")
        core = frame.subset(m.group("labels").split())
        return VagueStatement(core, _number(m.group("alpha")))


def parse_document(text: str) -> Document:
    """Parse a whole document; errors carry the offending 1-based line number."""
    parser = _Parser()
    for line, raw in enumerate(text.splitlines(), start=1):
        try:
            parser.feed(raw, line)
        except DocumentError:
            raise
        except CredalError as exc:
            raise DocumentError(str(exc), line) from exc
    parser._close_block()
    return parser.doc
