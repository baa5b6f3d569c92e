"""Finite frames of discernment and the subset algebra over them.

A frame is an ordered set of at most 64 atomic outcomes (possible worlds).
Subsets of a frame are propositions; they are stored as single-word bitmasks,
so the whole powerset of any supported frame can be enumerated cheaply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import FrameMismatchError, ValidationError

MAX_ATOMS = 64

_FORBIDDEN_CHARS = set("{}:,")

_FRAME_LINE = re.compile(r"^frame\s+(?P<name>\S+)\s*:\s*(?P<labels>.*)$")


def _check_label(label: str) -> None:
    if not label:
        raise ValidationError("empty label")
    bad = sorted(set(label) & _FORBIDDEN_CHARS) + [c for c in label if c.isspace()]
    if bad:
        raise ValidationError(f"label {label!r} contains forbidden character {bad[0]!r}")


@dataclass(frozen=True)
class Frame:
    """An ordered finite set of distinct atom labels.

    Declaration order is the canonical iteration and serialization order.
    Frames are immutable and compare by their atom tuple.
    """

    atoms: tuple[str, ...]
    _bits: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, atoms: Iterable[str]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValidationError("a frame needs at least one atom")
        if len(atoms) > MAX_ATOMS:
            raise ValidationError(
                f"frame exceeds {MAX_ATOMS} atoms (got {len(atoms)}); "
                f"subsets are machine-word bitmasks"
            )
        seen = set()
        for label in atoms:
            _check_label(label)
            if label in seen:
                raise ValidationError(f"duplicate label {label!r}")
            seen.add(label)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_bits", {a: 1 << i for i, a in enumerate(atoms)})

    @property
    def size(self) -> int:
        return len(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def index(self, label: str) -> int:
        """Position of a label, raising for labels outside the frame."""
        return self._mask((label,)).bit_length() - 1

    def _mask(self, labels: Iterable[str]) -> int:
        """Bitmask of the named atoms (duplicates collapse), raising for labels outside the frame."""
        bits = self._bits
        mask = 0
        try:
            for label in labels:
                mask |= bits[label]
        except KeyError as exc:
            raise ValidationError(f"unknown label {exc.args[0]!r}") from None
        return mask

    def subset(self, labels: Iterable[str]) -> Subset:
        """The subset containing exactly the named atoms (duplicates collapse)."""
        return Subset(self, self._mask(labels))

    def singleton(self, label: str) -> Subset:
        return self.subset((label,))

    @property
    def empty(self) -> Subset:
        return Subset(self, 0)

    @property
    def full(self) -> Subset:
        return Subset(self, (1 << len(self.atoms)) - 1)

    def from_mask(self, mask: int) -> Subset:
        return Subset(self, mask)

    def all_subsets(self) -> Iterator[Subset]:
        """Every subset of the frame, in increasing mask order (2^n values)."""
        for mask in range(1 << len(self.atoms)):
            yield Subset(self, mask)


def _check_same_frame(frame: Frame, other: Frame) -> None:
    """Raise FrameMismatchError unless `other` equals `frame`."""
    if other != frame:
        raise FrameMismatchError(" ".join(frame.atoms), " ".join(other.atoms))


@dataclass(frozen=True)
class Subset:
    """A set of atoms of one frame, i.e. the model set of a proposition.

    All boolean operations require both operands to live on the same frame.
    """

    frame: Frame
    mask: int

    def __post_init__(self):
        limit = 1 << len(self.frame)
        if not 0 <= self.mask < limit:
            raise ValidationError(f"subset mask {self.mask:#x} outside the frame's powerset")

    def _coerce(self, other: Subset) -> Subset:
        _check_same_frame(self.frame, other.frame)
        return other

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == (1 << len(self.frame)) - 1

    def union(self, other: Subset) -> Subset:
        return Subset(self.frame, self.mask | self._coerce(other).mask)

    def intersection(self, other: Subset) -> Subset:
        return Subset(self.frame, self.mask & self._coerce(other).mask)

    def complement(self) -> Subset:
        return Subset(self.frame, self.mask ^ ((1 << len(self.frame)) - 1))

    def entails(self, other: Subset) -> bool:
        """Logical entailment: true when this proposition's models all satisfy `other`."""
        return self.mask & ~self._coerce(other).mask == 0

    def __or__(self, other: Subset) -> Subset:
        return self.union(other)

    def __and__(self, other: Subset) -> Subset:
        return self.intersection(other)

    def __invert__(self) -> Subset:
        return self.complement()

    def __le__(self, other: Subset) -> bool:
        return self.entails(other)

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.frame.index(label) & 1)

    def labels(self) -> tuple[str, ...]:
        """Member atom labels in frame order."""
        return tuple(a for i, a in enumerate(self.frame.atoms) if self.mask >> i & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def __str__(self) -> str:
        return "{" + " ".join(self.labels()) + "}"


def parse_frame(text: str) -> tuple[str, Frame]:
    """Parse a `frame <name>: <label> <label> ...` declaration line.

    Returns the declared name together with the frame. Raises a distinct
    ValidationError naming the offending token for duplicate labels, an empty
    label list, oversized frames, and malformed syntax.
    """
    m = _FRAME_LINE.match(text.strip())
    if m is None:
        raise ValidationError(f"malformed frame declaration: {text.strip()!r}")
    labels = m.group("labels").split()
    if not labels:
        raise ValidationError("frame declaration lists no labels")
    return m.group("name"), Frame(labels)


def parse_subset(frame: Frame, text: str) -> Subset:
    """Parse a `{label label ...}` literal against a frame; `{}` is the empty set."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValidationError(f"malformed subset literal: {text!r} (expected {{label ...}})")
    return frame.subset(text[1:-1].split())
