"""Turning graded "probably in this set" statements into committed models.

A vague statement pins down nothing more than a lower bound: the chance of
landing in the stated core is at least the stated confidence. Two honest
completions bracket everything compatible with that bound. The max-entropy
reading picks the flattest probability distribution obeying it; the
min-specificity reading picks the most conservative random set, which is
consonant and therefore doubles as a possibility distribution. The bracket
check verifies, for every subset of the frame, that the first sits inside
the belief and plausibility envelope of the second, in one pass over the
atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .evidence import MassFunction, ProbabilityDistribution, _unit
from .frames import Subset
from .possibility import PossibilityDistribution


@dataclass(frozen=True)
class VagueStatement:
    """'Probably in `core`, with confidence at least `alpha`.'"""

    core: Subset
    alpha: float

    def __post_init__(self) -> None:
        if self.core.is_empty:
            raise ValidationError("statement core is the contradiction (empty set)")
        if self.core.is_full:
            raise ValidationError(
                "statement core is the whole frame and carries no information"
            )
        _unit(self.alpha, "confidence")


def maxent_distribution(statement: VagueStatement) -> ProbabilityDistribution:
    """Flattest probability distribution with P(core) >= alpha.

    When the uniform distribution already clears the bound, it is the answer.
    Otherwise the bound binds: the core shares weight alpha evenly and the
    rest shares what remains evenly.
    """
    frame = statement.core.frame
    n = len(frame)
    k = statement.core.cardinality
    if statement.alpha * n <= k:
        return ProbabilityDistribution.uniform(frame)
    inside = statement.alpha / k
    outside = (1.0 - statement.alpha) / (n - k)
    values = tuple(
        inside if statement.core.mask >> i & 1 else outside for i in range(n)
    )
    return ProbabilityDistribution(frame, values)


def minspec_mass(
    statement: VagueStatement,
) -> tuple[MassFunction, PossibilityDistribution]:
    """Least committed random set with Bel(core) = alpha, plus its contour.

    Weight alpha goes to the core itself and the rest to the whole frame,
    which maximizes expected cardinality among all masses meeting the bound.
    The result is consonant: the level-cut mass of the returned possibility
    distribution, which is 1 on the core and 1 - alpha elsewhere.
    """
    frame, core = statement.core.frame, statement.core.mask
    rest = 1.0 - statement.alpha
    pi = PossibilityDistribution(frame, [1.0 if core >> i & 1 else rest for i in range(len(frame))])
    return pi.as_mass(), pi


@dataclass(frozen=True)
class BracketReport:
    """Outcome of the belief/plausibility envelope check over every subset."""

    holds: bool
    subsets_checked: int
    max_violation: float
    tightest_width: float
    tightest_subset: Subset


def bracket_check(statement: VagueStatement) -> BracketReport:
    """Verify Bel(A) <= P(A) <= Pl(A) over every subset of the frame.

    P is the max-entropy distribution and Bel, Pl come from the
    min-specificity mass, with the float results an exhaustive scan over
    subset-sum tables would give. The scan is not needed: Bel and Pl take
    one value on each of a few classes of subsets (the empty set, the whole
    frame, the other supersets of the core, the nonempty sets disjoint from it,
    the rest), and P(A), the sum of its atoms' probabilities in increasing
    atom order, can only grow when an atom joins A, because rounded
    addition is monotone. So each class's worst case sits at its smallest
    or its largest member, and one pass over the atoms finds them all, on
    frames of any size. The tightest width is taken over contingent subsets
    only; the empty set and the whole frame bracket exactly by construction.
    """
    frame = statement.core.frame
    core = statement.core.mask
    p = maxent_distribution(statement)
    mass, _ = minspec_mass(statement)
    bel_core = mass.weight_of(statement.core)
    bel_full = bel_core + mass.weight_of(frame.full)
    p_core = p_rest = p_full = 0.0
    for i, v in enumerate(p.values):
        p_full += v
        if core >> i & 1:
            p_core += v
        else:
            p_rest += v
    max_violation = max(
        0.0,
        bel_full - 1.0,  # the empty set: P = 0 against Pl = 1 - Bel(frame)
        bel_full - p_full,  # the whole frame
        p_full - 1.0,  # the largest P of every set meeting the core, against Pl = 1
        bel_core - p_core,  # the core, the least P among its supersets
        p_rest - (1.0 - bel_core),  # the non-core atoms, the largest P among sets missing the core
    )
    # width 1 - Bel(core) on the core's supersets and on the sets missing it, 1 elsewhere;
    # the first contingent mask of least width
    tightest_width = 1.0 - bel_core
    tightest = min(core, (core + 1) & ~core) if tightest_width < 1.0 else 1
    return BracketReport(
        holds=max_violation <= 1e-9,
        subsets_checked=1 << len(frame),
        max_violation=max_violation,
        tightest_width=tightest_width,
        tightest_subset=Subset(frame, tightest),
    )
