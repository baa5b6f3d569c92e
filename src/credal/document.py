"""Line-oriented document format: named frames, scales, and uncertainty objects.

One declaration per line. A mass declaration opens a block whose following
lines each carry one focal subset with its weight; the block closes at the
next declaration or at the end of input. Lines whose first non-blank
character is `#` are comments. Every parse or validation failure is raised
as a DocumentError carrying the 1-based line number.

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
from dataclasses import dataclass, field

from .elicit import VagueStatement
from .errors import CredalError, DocumentError, ValidationError
from .evidence import MassFunction, ProbabilityDistribution
from .frames import Frame, parse_frame
from .fuzzy import FuzzySet, NumericScale
from .possibility import PossibilityDistribution

_SCALE_LINE = re.compile(r"^scale\s+(?P<name>\S+)\s*:\s*(?P<lo>-?\d+)\.\.(?P<hi>-?\d+)\s*$")
_OVER_LINE = re.compile(
    r"^(?P<kind>mass|pi|prob|fuzzy|statement)\s+(?P<name>\S+)\s+over\s+(?P<ref>\S+)\s*:\s*(?P<rest>.*)$"
)
_FOCAL_LINE = re.compile(r"^\{(?P<labels>[^{}]*)\}\s+(?P<weight>\S+)$")
_STATEMENT_REST = re.compile(
    r"^core\s+\{(?P<labels>[^{}]*)\}\s+alpha\s+(?P<alpha>\S+)$"
)
_BREAKPOINT = re.compile(r"\(\s*(-?\d+)\s*,\s*([^\s(),]+)\s*\)")

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


@dataclass
class Document:
    """All named objects of one parsed document."""

    frames: dict[str, Frame] = field(default_factory=dict)
    scales: dict[str, NumericScale] = field(default_factory=dict)
    masses: dict[str, MassFunction] = field(default_factory=dict)
    pis: dict[str, PossibilityDistribution] = field(default_factory=dict)
    probs: dict[str, ProbabilityDistribution] = field(default_factory=dict)
    fuzzies: dict[str, FuzzySet] = field(default_factory=dict)
    statements: dict[str, VagueStatement] = field(default_factory=dict)

    def frame_name(self, frame: Frame) -> str:
        """The declared name of a frame (scale frames report as lo..hi)."""
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


def _number(token: str, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DocumentError(f"not a number: {token!r}", line) from None


def _integer(token: str, line: int) -> int:
    """A token already matched as ``-?\\d+``; `int` refuses only one longer than the interpreter's digit cap."""
    try:
        return int(token)
    except ValueError:
        raise DocumentError(f"integer of {len(token.lstrip('-'))} digits is too long", line) from None


class _Parser:
    def __init__(self) -> None:
        self.doc = Document()
        # open mass block, if any: (name, frame, (mask, weight) pairs, header line)
        self.block: tuple[str, Frame, list[tuple[int, float]], int] | None = None
        # the declaration that owns each frame's atoms, e.g. "frame 'w'"
        self.owners: dict[Frame, str] = {}

    def _declare(self, kind: str, name: str, line: int) -> dict:
        table: dict = getattr(self.doc, _TABLES[kind])
        if name in table:
            raise DocumentError(f"duplicate {kind} name {name!r}", line)
        return table

    def _claim(self, kind: str, name: str, frame: Frame, line: int) -> None:
        """Give the frame's atoms to this declaration alone, so frame_name finds it."""
        owner = self.owners.get(frame)
        if owner is not None:
            raise DocumentError(f"{kind} {name!r} repeats the atoms of {owner}", line)
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
            self._focal(text, line)
            return
        self._close_block()
        word = text.split(None, 1)[0]
        if word == "frame":
            self._frame(text, line)
        elif word == "scale":
            self._scale(text, line)
        elif word in _TABLES:
            self._over(text, line)
        else:
            raise DocumentError(f"unrecognized declaration: {text!r}", line)

    def _focal(self, text: str, line: int) -> None:
        if self.block is None:
            raise DocumentError("focal line outside a mass block", line)
        m = _FOCAL_LINE.match(text)
        if m is None:
            raise DocumentError(
                f"malformed focal line: {text!r} (expected {{label ...}} weight)", line
            )
        _, frame, assignments, _ = self.block
        mask = frame._mask(m.group("labels").split())
        assignments.append((mask, _number(m.group("weight"), line)))

    def _frame(self, text: str, line: int) -> None:
        name, frame = parse_frame(text)
        table = self._declare("frame", name, line)
        self._claim("frame", name, frame, line)
        table[name] = frame

    def _scale(self, text: str, line: int) -> None:
        m = _SCALE_LINE.match(text)
        if m is None:
            raise DocumentError(
                f"malformed scale declaration: {text!r} (expected scale <name>: <lo>..<hi>)",
                line,
            )
        name = m.group("name")
        table = self._declare("scale", name, line)
        scale = NumericScale(_integer(m.group("lo"), line), _integer(m.group("hi"), line))
        self._claim("scale", name, scale.frame, line)
        table[name] = scale

    def _over(self, text: str, line: int) -> None:
        m = _OVER_LINE.match(text)
        if m is None:
            raise DocumentError(
                f"malformed declaration: {text!r} (expected <kind> <name> over <frame>: ...)",
                line,
            )
        kind, name, ref, rest = m.group("kind", "name", "ref", "rest")
        table = self._declare(kind, name, line)  # duplicate check for every kind
        if kind == "fuzzy":
            scale = self.doc.scales.get(ref)
            if scale is None:
                raise DocumentError(f"unknown scale {ref!r}", line)
            table[name] = self._fuzzy(scale, name, rest, line)
            return
        frame = self.doc.frame_named(ref)
        if kind == "mass":
            if rest:
                raise DocumentError(
                    "mass declaration takes no inline values; focal lines follow", line
                )
            # the entry lands in the table when the block closes
            self.block = (name, frame, [], line)
            return
        if kind == "pi":
            table[name] = PossibilityDistribution(frame, [_number(t, line) for t in rest.split()])
        elif kind == "prob":
            table[name] = ProbabilityDistribution(frame, [_number(t, line) for t in rest.split()])
        else:
            table[name] = self._statement(frame, rest, line)

    def _fuzzy(self, scale: NumericScale, name: str, rest: str, line: int) -> FuzzySet:
        pairs = _BREAKPOINT.findall(rest)
        leftover = _BREAKPOINT.sub("", rest).strip()
        if not pairs or leftover:
            raise DocumentError(
                f"malformed fuzzy declaration: expected breakpoints (<x>,<mu>), got {rest!r}",
                line,
            )
        breakpoints = [(_integer(x, line), _number(mu, line)) for x, mu in pairs]
        return FuzzySet.from_breakpoints(scale, breakpoints, name=name)

    def _statement(self, frame: Frame, rest: str, line: int) -> VagueStatement:
        m = _STATEMENT_REST.match(rest)
        if m is None:
            raise DocumentError(
                f"malformed statement: expected core {{label ...}} alpha <value>, got {rest!r}",
                line,
            )
        core = frame.subset(m.group("labels").split())
        return VagueStatement(core, _number(m.group("alpha"), line))


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
