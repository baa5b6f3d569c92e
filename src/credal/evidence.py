"""Bodies of evidence over finite frames: mass, belief, and plausibility.

A mass function distributes unit weight over non-empty focal subsets. The
belief of a proposition is the total weight of focal elements entailing it
(a lower probability); its plausibility is the total weight of focal elements
consistent with it (an upper probability). When every focal element is a
singleton the two coincide and the body of evidence is an ordinary
probability measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import fsum, isfinite
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import ValidationError
from .frames import Frame, Subset, _check_same_frame

SUM_TOLERANCE = 1e-6
#: Tolerance for float comparisons on derived quantities (duality, region tests).
EQ_TOLERANCE = 1e-12
#: Largest frame whose powerset tables are built: 2^20 cells take ~1 s and ~32 MB, kept with the mass.
TABLE_MAX_ATOMS = 20
# Cells per block of `_zeta`'s passes: 2^10 to 2^13 ran alike at 16-20 atoms, 2^8 slower.
_ZETA_BLOCK = 1 << 11


def _unit(value: float, what: str) -> None:
    """Reject a `value` that does not lie in [0, 1]; `nan` does not."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{what} {value!r} outside [0, 1]")


def _zeta(n: int, seeds: Mapping[int, float]) -> list[float]:
    """Subset-sum ("zeta") table over `n` atoms: t[mask] = sum of the seeds on submasks of mask.

    For each bit in turn, every mask holding the bit adds its partner without
    it. Within one bit's pass the adds are independent, so doing them by
    slices instead of element by element gives bit-identical tables. The
    passes run in cache-sized blocks: first the bits below the block size
    inside each block of ``_ZETA_BLOCK`` consecutive cells, strided (one
    slice per low mask) while that takes no more slices than the contiguous
    form (one slice per high mask); then the higher bits over the whole
    table, by contiguous slices of one block each. Every cell still gets its
    adds in increasing bit order, and no slice is longer than a block, so the
    memory a call needs beyond its table stays a few blocks.
    """
    if n > TABLE_MAX_ATOMS:
        raise ValidationError(f"frame has {n} atoms; powerset tables are capped at {TABLE_MAX_ATOMS}")
    size = 1 << n
    table = [0.0] * size
    for mask, weight in seeds.items():
        table[mask] += weight
    block = min(size, _ZETA_BLOCK)
    for start in range(0, size, block):
        stop = start + block
        step = 1
        while step < block:
            span = step << 1
            if step <= block // span:
                for low in range(start, start + step):
                    table[low + step:stop:span] = map(add, table[low + step:stop:span], table[low:stop:span])
            else:
                for base in range(start, stop, span):
                    table[base + step:base + span] = map(add, table[base + step:base + span], table[base:base + step])
            step = span
    step = block
    while step < size:
        for base in range(0, size, step << 1):
            for low in range(base, base + step, block):
                high = low + step
                table[high:high + block] = map(add, table[high:high + block], table[low:low + block])
        step <<= 1
    return table


def _grades(frame: Frame, values: Iterable[float], what: str) -> tuple[float, ...]:
    """Per-atom grades as floats: exactly one per atom of `frame`, each in [0, 1]."""
    grades = tuple(float(v) for v in values)
    if len(grades) != len(frame):
        raise ValidationError(f"expected {len(frame)} {what} values, got {len(grades)}")
    for v in grades:
        _unit(v, f"{what} value")
    return grades


class MassFunction:
    """A body of evidence: non-empty focal subsets with positive weights summing to 1.

    Construction merges duplicate focal subsets, drops exact zero weights,
    rejects non-finite or negative weights and empty focal elements, checks
    the total against 1 within ``SUM_TOLERANCE``, and stores weights divided
    by their computed sum. Instances are immutable; the belief table is
    computed on first use and kept.
    """

    __slots__ = ("frame", "_weights", "_bel")

    def __init__(self, frame: Frame, assignments: Mapping[Subset, float] | Iterable[tuple[Subset, float]]):
        if isinstance(assignments, Mapping):
            assignments = assignments.items()

        def pairs() -> Iterator[tuple[int, float]]:
            # lazy, so each pair's frame check runs just before that pair's weight checks
            for subset, weight in assignments:
                _check_same_frame(frame, subset.frame)
                yield subset.mask, weight

        self._set(frame, pairs())

    @classmethod
    def _from_masks(cls, frame: Frame, pairs: Iterable[tuple[int, float]]) -> MassFunction:
        """Build from (mask, weight) pairs whose masks already lie in `frame`'s powerset."""
        mass = cls.__new__(cls)
        mass._set(frame, pairs)
        return mass

    def _set(self, frame: Frame, pairs: Iterable[tuple[int, float]]) -> None:
        """The checks of both constructors: merge, drop zeros, validate, normalize."""
        merged: dict[int, float] = {}
        for mask, weight in pairs:
            if mask == 0:
                raise ValidationError("focal element is the contradiction (empty set)")
            if not isfinite(weight):
                raise ValidationError(f"non-finite focal weight {weight!r}")
            if weight < 0.0:
                raise ValidationError(f"negative focal weight {weight!r}")
            if weight == 0.0:
                continue
            merged[mask] = merged.get(mask, 0.0) + weight
        try:
            total = fsum(merged.values())
        except OverflowError:
            total = float("inf")
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValidationError(f"focal weights sum to {total!r}, not 1 within {SUM_TOLERANCE}")
        self.frame = frame
        # canonical focal order: by cardinality, then by mask (the second sort is stable)
        self._weights = {mask: merged[mask] / total for mask in sorted(sorted(merged), key=int.bit_count)}
        self._bel: list[float] | None = None

    @classmethod
    def vacuous(cls, frame: Frame) -> MassFunction:
        """Total ignorance: all weight on the full frame."""
        return cls(frame, [(frame.full, 1.0)])

    def focal_elements(self) -> Iterator[tuple[Subset, float]]:
        """Focal subsets with their weights, in canonical (cardinality, mask) order."""
        for mask, weight in self._weights.items():
            yield Subset(self.frame, mask), weight

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self._weights == other._weights

    def __repr__(self) -> str:
        inner = ", ".join(f"{Subset(self.frame, m)}: {w:g}" for m, w in self._weights.items())
        return f"MassFunction({inner})"

    def weight_of(self, subset: Subset) -> float:
        """The weight directly assigned to a subset (0 when not focal)."""
        _check_same_frame(self.frame, subset.frame)
        return self._weights.get(subset.mask, 0.0)

    def belief(self, a: Subset) -> float:
        """Total weight of focal elements contained in `a` (lower probability), at most 1."""
        _check_same_frame(self.frame, a.frame)
        # renormalized weights can sum an ulp past 1; the table cells keep the raw sums, within 1e-12
        return min(fsum(w for mask, w in self._weights.items() if mask & ~a.mask == 0), 1.0)

    def plausibility(self, a: Subset) -> float:
        """Total weight of focal elements intersecting `a` (upper probability), at most 1.

        Equals 1 minus the belief of the complement.
        """
        _check_same_frame(self.frame, a.frame)
        return min(fsum(w for mask, w in self._weights.items() if mask & a.mask), 1.0)

    def _bel_table(self) -> list[float]:
        """The belief table, built by `_zeta` on first use and kept; callers must not mutate it."""
        if self._bel is None:
            self._bel = _zeta(len(self.frame), self._weights)
        return self._bel

    def belief_table(self) -> list[float]:
        """Belief of every subset, indexed by mask, via a subset-sum zeta transform.

        O(n * 2^n) the first time, then a copy of the kept table; intended
        for exhaustive powerset scans on small frames, and capped at
        ``TABLE_MAX_ATOMS`` atoms.
        """
        return self._bel_table().copy()

    def plausibility_table(self) -> list[float]:
        """Plausibility of every subset, indexed by mask (dual of `belief_table`).

        Read off the kept belief table, so a mass runs the transform once for both.
        """
        bel = self._bel_table()
        total = bel[-1]
        # the complement of mask m is full - m, so Bel(not A) runs over bel reversed
        return [total - b for b in reversed(bel)]

    def expected_cardinality(self) -> float:
        """Weighted mean focal size: the imprecision of the body of evidence.

        Lies in [1, n]; 1 exactly for Bayesian masses, n exactly for the
        vacuous mass.
        """
        return fsum(w * mask.bit_count() for mask, w in self._weights.items())

    def classify(self) -> Classification:
        """Structural classification with deterministic label precedence."""
        masks = list(self._weights)
        n = len(self.frame)
        full = (1 << n) - 1
        labels = set()
        if masks == [full]:
            labels.add("vacuous")
        if all(m.bit_count() == 1 for m in masks):
            labels.add("bayesian")
        # masks are in canonical order, cardinality first, so a chain is nested in that order
        if all(a & ~b == 0 for a, b in zip(masks, masks[1:])):
            labels.add("consonant")
        for tag in ("vacuous", "bayesian", "consonant"):
            if tag in labels:
                return Classification(tag, frozenset(labels))
        return Classification("general", frozenset({"general"}))

    def triangle_point(self, a: Subset) -> TrianglePoint:
        """Locate a contingent proposition in the uncertainty triangle.

        The coordinates are (belief of `a`, belief of not-`a`); the region
        tag follows the triangle geometry with vertex labels taking
        precedence over edges and edges over the interior.
        """
        _check_same_frame(self.frame, a.frame)
        if a.is_empty or a.is_full:
            raise ValidationError("triangle point requires a contingent proposition (not empty, not full)")
        x = self.belief(a)
        y = self.belief(a.complement())
        return TrianglePoint.locate(x, y)


@dataclass(frozen=True)
class Classification:
    """Most specific structure tag plus every applicable label."""

    tag: str
    labels: frozenset[str]

    def __str__(self) -> str:
        return self.tag


class TriangleRegion(Enum):
    """Regions of the uncertainty triangle; `code` is the serialized form."""

    CERTAIN = "A"
    CERTAIN_NOT = "B"
    IGNORANCE = "O"
    PROBABILISTIC_EDGE = "probabilistic-edge"
    POSSIBILISTIC_AXES = "possibilistic-axes"
    INTERIOR = "interior"

    @property
    def code(self) -> str:
        return self.value


@dataclass(frozen=True)
class TrianglePoint:
    """A state of knowledge about one proposition, as a point (Bel(a), Bel(not a)).

    `ignorance` is 1 - 2*Bel(a), defined only on the equal-support diagonal
    where Bel(a) = Bel(not a); it is None off the diagonal.
    """

    x: float
    y: float
    region: TriangleRegion
    ignorance: float | None

    @staticmethod
    def locate(x: float, y: float) -> TrianglePoint:
        if x + y > 1.0 + EQ_TOLERANCE:
            raise ValidationError(f"point ({x}, {y}) lies outside the triangle (x + y > 1)")

        def near(u: float, v: float) -> bool:
            return abs(u - v) <= EQ_TOLERANCE

        if near(x, 1.0) and near(y, 0.0):
            region = TriangleRegion.CERTAIN
        elif near(x, 0.0) and near(y, 1.0):
            region = TriangleRegion.CERTAIN_NOT
        elif near(x, 0.0) and near(y, 0.0):
            region = TriangleRegion.IGNORANCE
        elif near(x + y, 1.0):
            region = TriangleRegion.PROBABILISTIC_EDGE
        elif near(min(x, y), 0.0):
            region = TriangleRegion.POSSIBILISTIC_AXES
        else:
            region = TriangleRegion.INTERIOR
        ignorance = 1.0 - 2.0 * x if near(x, y) else None
        return TrianglePoint(x, y, region, ignorance)


class ProbabilityDistribution:
    """A per-atom probability assignment summing to 1 (stored renormalized)."""

    __slots__ = ("frame", "values")

    def __init__(self, frame: Frame, values: Iterable[float]):
        values = _grades(frame, values, "probability")
        total = fsum(values)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValidationError(f"probability values sum to {total!r}, not 1 within {SUM_TOLERANCE}")
        self.frame = frame
        self.values = tuple(v / total for v in values)

    @classmethod
    def uniform(cls, frame: Frame) -> ProbabilityDistribution:
        return cls(frame, [1.0 / len(frame)] * len(frame))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilityDistribution):
            return NotImplemented
        return self.frame == other.frame and self.values == other.values

    def __repr__(self) -> str:
        return f"ProbabilityDistribution({', '.join(f'{v:g}' for v in self.values)})"

    def probability_of(self, a: Subset) -> float:
        """P(A): the summed weight of the member atoms."""
        _check_same_frame(self.frame, a.frame)
        return fsum(v for i, v in enumerate(self.values) if a.mask >> i & 1)

    def as_mass(self) -> MassFunction:
        """The Bayesian body of evidence with one singleton focal per atom.

        Atoms of probability zero are omitted; belief and plausibility of the
        result agree with this distribution on every subset.
        """
        return MassFunction(
            self.frame,
            [
                (self.frame.from_mask(1 << i), v)
                for i, v in enumerate(self.values)
                if v > 0.0
            ],
        )


def make_mass(frame: Frame, assignments: Iterable[tuple[Subset, float]]) -> MassFunction:
    """Validating constructor mirroring user input: rejects non-positive weights."""
    checked = []
    for subset, weight in assignments:
        if weight <= 0.0:
            raise ValidationError(f"non-positive focal weight {weight!r}")
        checked.append((subset, weight))
    return MassFunction(frame, checked)
