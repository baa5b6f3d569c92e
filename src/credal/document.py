"""Line-oriented document format: named frames, scales, and uncertainty objects.

One declaration per line. A mass declaration opens a block whose following
lines each carry one focal subset with its weight; the block closes at the
next declaration or at the end of input. Lines whose first non-blank
character is `#` are comments. `parse_document` reads the lines in one loop,
which reads a focal line itself and hands a declaration to three helpers:
`_declared` reads its kind, name and syntax, `_built` builds its object, and
`_closed` builds a mass when its block closes. The helpers raise plain
ValidationErrors, and the loop re-raises every failure as a DocumentError
carrying the 1-based line number, which for a mass block's own checks is its
header line. `_declaration` writes the mass, pi and prob lines that commands
print.

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
_STATEMENT_REST = re.compile(
    r"^core\s+\{(?P<labels>[^{}]*)\}\s+alpha\s+(?P<alpha>\S+)$"
)
_BREAKPOINT = re.compile(r"\(\s*(-?[0-9]+)\s*,\s*([^\s(),]+)\s*\)")

# the keyword declaring each kind of object, in the order of Document's tables
_KINDS = ("frame", "scale", "mass", "pi", "prob", "fuzzy", "statement")


class Document(Record):
    """All named objects of one parsed document, one dict per kind; its fields refuse assignment, its dicts do not."""

    __slots__ = __match_args__ = ("frames", "scales", "masses", "pis", "probs", "fuzzies", "statements")
    __hash__ = None

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
        for field, table in zip(self.__slots__, (frames, scales, masses, pis, probs, fuzzies, statements)):
            object.__setattr__(self, field, {} if table is None else table)

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


def _declared(text: str) -> tuple[str, str, tuple]:
    """A declaration line's kind, name and syntax: a frame line's Frame, a scale's bounds, or `over`'s (ref, rest)."""
    kind = text.split(None, 1)[0]
    if kind == "frame":
        name, frame = parse_frame(text)
        return kind, name, (frame,)
    if kind == "scale":
        m = _SCALE_LINE.match(text)
        if m is None:
            raise ValidationError(f"malformed scale declaration: {text!r} (expected scale <name>: <lo>..<hi>)")
        return kind, m.group("name"), m.group("lo", "hi")
    if kind not in _KINDS:
        raise ValidationError(f"unrecognized declaration: {text!r}")
    m = _OVER_LINE.match(text)
    if m is None:
        raise ValidationError(f"malformed declaration: {text!r} (expected <kind> <name> over <frame>: ...)")
    return kind, m.group("name"), m.group("ref", "rest")


def _built(doc: Document, kind: str, name: str, syntax: tuple):
    """The object a declaration declares; for a mass header, the frame its block's focal lines are over."""
    if kind == "frame":
        return syntax[0]
    if kind == "scale":
        return NumericScale(*map(_integer, syntax))
    ref, rest = syntax
    if kind == "fuzzy":
        scale = doc.scales.get(ref)
        if scale is None:
            raise ValidationError(f"unknown scale {ref!r}")
        pairs = _BREAKPOINT.findall(rest)
        if not pairs or _BREAKPOINT.sub("", rest).strip():
            raise ValidationError(f"malformed fuzzy declaration: expected breakpoints (<x>,<mu>), got {rest!r}")
        return FuzzySet.from_breakpoints(scale, [(_integer(x), _number(mu)) for x, mu in pairs], name=name)
    frame = doc.frame_named(ref)
    if kind == "mass":
        if rest:
            raise ValidationError("mass declaration takes no inline values; focal lines follow")
        return frame
    if kind == "statement":
        m = _STATEMENT_REST.match(rest)
        if m is None:
            raise ValidationError(f"malformed statement: expected core {{label ...}} alpha <value>, got {rest!r}")
        return VagueStatement(frame.subset(m.group("labels").split()), _number(m.group("alpha")))
    values = [_number(t) for t in rest.split()]
    return PossibilityDistribution(frame, values) if kind == "pi" else ProbabilityDistribution(frame, values)


def _closed(name: str, frame: Frame, pairs: list[tuple[int, float]], header: int) -> MassFunction:
    """The mass a block declares, built when the block closes; its errors name the header line."""
    if not pairs:
        raise DocumentError(f"mass {name!r} declares no focal elements", header)
    try:
        return MassFunction._from_masks(frame, pairs)
    except CredalError as exc:
        raise DocumentError(str(exc), header) from exc


def parse_document(text: str) -> Document:
    """Parse a whole document; errors carry the offending 1-based line number."""
    doc = Document()
    tables = dict(zip(_KINDS, doc._values()))
    owners: dict[Frame, str] = {}  # the declaration that owns each frame's atoms, e.g. "frame 'w'"
    block = None  # the open mass block: (name, frame, (mask, weight) pairs, header line)
    for line, raw in enumerate(text.splitlines(), start=1):
        content = raw.strip()
        if not content or content[0] == "#":
            continue
        try:
            if content[0] == "{":
                if block is None:
                    raise ValidationError("focal line outside a mass block")
                head, _, rest = content.partition("}")
                labels, weight = head[1:], rest.split()
                # `{labels} weight`: no brace among the labels, space after the first `}`, then one token
                if "{" in labels or not rest[:1].isspace() or len(weight) != 1:
                    raise ValidationError(f"malformed focal line: {content!r} (expected {{label ...}} weight)")
                labels = labels.split()
                try:  # k distinct bits sum to a k-bit mask; a repeated label carries and shows fewer
                    mask = sum(map(bit, labels))
                except KeyError:  # some label is unknown, and 0 has fewer bits than the labels
                    mask = 0
                if mask.bit_count() != len(labels):  # `_mask` names the unknown label, or ORs the repeated one
                    mask = block[1]._mask(labels)
                append((mask, _number(weight[0])))
                continue
            if block is not None:
                doc.masses[block[0]] = _closed(*block)
                block = None
            kind, name, syntax = _declared(content)
            table = tables[kind]
            if name in table:
                raise ValidationError(f"duplicate {kind} name {name!r}")
            obj = _built(doc, kind, name, syntax)
            if kind == "mass":  # the mass enters its table when its block closes
                block = (name, obj, [], line)
                bit, append = obj._bits.__getitem__, block[2].append  # bound once a block, not once a line
                continue
            if kind in ("frame", "scale"):  # its atoms are its own, so frame_name finds it
                frame = obj if kind == "frame" else obj.frame
                if frame in owners:
                    raise ValidationError(f"{kind} {name!r} repeats the atoms of {owners[frame]}")
                owners[frame] = f"{kind} {name!r}"
            table[name] = obj
        except DocumentError:
            raise
        except CredalError as exc:
            raise DocumentError(str(exc), line) from exc
    if block is not None:
        doc.masses[block[0]] = _closed(*block)
    return doc
