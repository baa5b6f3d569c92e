"""Possibility distributions, possibility/necessity measures, and the
two-way correspondence with consonant (nested-focal) bodies of evidence.

A normalized possibility distribution decomposes into a consonant mass
function whose focal elements are its nested level cuts, each cut weighted
by the drop to the next lower level. Conversely, the contour of a mass
function (its per-singleton plausibility) extracts a possibility
distribution; on consonant masses the two constructions invert each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NormalizationError
from .evidence import EQ_TOLERANCE, MassFunction, _grades
from .frames import Frame, Subset, _check_same_frame


class PossibilityDistribution:
    """Per-atom possibility grades in [0, 1]; doubles as a fuzzy membership function.

    `is_normalized` records whether the maximum grade reaches 1 (within
    1e-12); several operations are only meaningful for normalized
    distributions and refuse subnormal input rather than rescaling silently.
    """

    __slots__ = ("frame", "values", "is_normalized")

    def __init__(self, frame: Frame, values: Iterable[float]):
        values = _grades(frame, values, "possibility")
        self.frame = frame
        self.values = values
        self.is_normalized = (1.0 - max(values)) <= EQ_TOLERANCE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PossibilityDistribution):
            return NotImplemented
        return self.frame == other.frame and self.values == other.values

    def __repr__(self) -> str:
        return f"PossibilityDistribution({', '.join(f'{v:g}' for v in self.values)})"

    def possibility_of(self, a: Subset) -> float:
        """Possibility of a proposition: the highest grade among its atoms (0 for the empty set)."""
        _check_same_frame(self.frame, a.frame)
        members = [v for i, v in enumerate(self.values) if a.mask >> i & 1]
        return max(members) if members else 0.0

    def necessity_of(self, a: Subset) -> float:
        """Necessity of a proposition: 1 minus the possibility of its complement (1 for the full frame)."""
        # rounded 1 - v only falls as v grows, so this is the least 1 - v outside `a`, bit for bit
        return 1.0 - self.possibility_of(a.complement())

    def normalize(self) -> PossibilityDistribution:
        """Rescale so the maximum grade is exactly 1 (the only sanctioned rescaling)."""
        top = max(self.values)
        if top == 0.0:
            raise NormalizationError("cannot normalize an all-zero distribution")
        return PossibilityDistribution(self.frame, tuple(v / top for v in self.values))

    def level_cuts(self) -> list[tuple[float, Subset]]:
        """Distinct positive grades in decreasing order, each with its level cut.

        The cut at grade t collects the atoms with grade >= t; successive cuts
        are nested. Grades are compared exactly (no epsilon merging), matching
        the convention that grades are user-specified decimals.
        """
        levels = sorted({v for v in self.values if v > 0.0}, reverse=True)
        cuts = []
        for level in levels:
            mask = 0
            for i, v in enumerate(self.values):
                if v >= level:
                    mask |= 1 << i
            cuts.append((level, Subset(self.frame, mask)))
        return cuts

    def as_mass(self) -> MassFunction:
        """Decompose a normalized distribution into its consonant level-cut mass.

        Each cut receives the drop from its grade to the next lower one (the
        bottom cut keeps its full grade). The result is consonant and its
        contour reproduces this distribution.
        """
        if not self.is_normalized:
            raise NormalizationError(
                "level-cut decomposition requires a normalized distribution "
                "(max grade 1); call normalize() first"
            )
        cuts = self.level_cuts()
        below = [level for level, _ in cuts[1:]] + [0.0]
        return MassFunction(self.frame, [(cut, level - lower) for (level, cut), lower in zip(cuts, below)])


def make_possibility(frame: Frame, values: Iterable[float]) -> PossibilityDistribution:
    return PossibilityDistribution(frame, values)


def pi_to_mass(dist: PossibilityDistribution) -> MassFunction:
    """Module-level alias for the level-cut decomposition."""
    return dist.as_mass()


def contour(mass: MassFunction) -> PossibilityDistribution:
    """The per-singleton plausibility of a mass function, as a possibility distribution.

    Inverts the level-cut decomposition exactly on consonant masses; on a
    dissonant mass it is the canonical one-point summary used by the
    consonant approximation. Each grade is a singleton's plausibility, at
    most 1, as `membership_from_random_set` reads it.
    """
    return PossibilityDistribution(
        mass.frame,
        (mass.plausibility(mass.frame.from_mask(1 << i)) for i in range(len(mass.frame))),
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a consonant approximation.

    `consistent` is true when some atom is common to all focal elements, so
    the raw contour already peaks at 1. Otherwise `subnormalization` records
    the contour's maximum before rescaling (1.0 when consistent).
    """

    consistent: bool
    subnormalization: float


def consonant_approximate(mass: MassFunction) -> tuple[PossibilityDistribution, ConsistencyReport]:
    """Approximate an arbitrary body of evidence by a possibility distribution.

    Uses the contour method: exact on consonant input. When the focal
    elements share no common atom the contour peaks below 1 and is rescaled
    by its maximum; the report flags this and carries the pre-rescale peak.
    """
    pi = contour(mass)
    if pi.is_normalized:
        return pi, ConsistencyReport(consistent=True, subnormalization=1.0)
    top = max(pi.values)
    return pi.normalize(), ConsistencyReport(consistent=False, subnormalization=top)
