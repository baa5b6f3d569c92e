"""Turning graded "probably in this set" statements into committed models.

A vague statement pins down nothing more than a lower bound: the chance of
landing in the stated core is at least the stated confidence. Two honest
completions bracket everything compatible with that bound. The max-entropy
reading picks the flattest probability distribution obeying it; the
min-specificity reading picks the most conservative random set, which is
consonant and therefore doubles as a possibility distribution. The bracket
check verifies, subset by subset, that the first sits inside the belief and
plausibility envelope of the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import TYPE_CHECKING

from .errors import ValidationError
from .evidence import TABLE_MAX_ATOMS, MassFunction, ProbabilityDistribution, _unit, _zeta
from .frames import Subset
from .possibility import PossibilityDistribution

if TYPE_CHECKING:
    import numpy as np


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
    The result is consonant, so it is returned together with the equivalent
    possibility distribution: 1 on the core, 1 - alpha elsewhere.
    """
    frame = statement.core.frame
    # both outputs are derived from the same rounded complement so that the
    # alpha-cut decomposition of pi reproduces the mass bit for bit
    rest = 1.0 - statement.alpha
    weights: dict[Subset, float] = {}
    if rest < 1.0:
        weights[statement.core] = 1.0 - rest
    if rest > 0.0:
        weights[frame.full] = rest
    mass = MassFunction(frame, weights)
    pi = PossibilityDistribution(
        frame,
        tuple(
            1.0 if statement.core.mask >> i & 1 else rest for i in range(len(frame))
        ),
    )
    return mass, pi


# Largest frame whose bracket check runs on plain lists. Up to 11 atoms the
# pure-Python check takes a few ms, far less than the ~100 ms a fresh process
# spends importing numpy; above that, and whenever numpy is already loaded,
# the numpy check is faster. Both give bit-identical reports.
_PURE_CHECK_MAX_ATOMS = 11


@dataclass(frozen=True)
class BracketReport:
    """Outcome of the exhaustive belief/plausibility envelope check."""

    holds: bool
    subsets_checked: int
    max_violation: float
    tightest_width: float
    tightest_subset: Subset


def _subset_sum_table(n: int, seeds: dict[int, float]) -> np.ndarray:
    """Table t with t[mask] = sum of seed weights over submasks of mask."""
    import numpy as np  # deferred: only large bracket checks need numpy

    table = np.zeros(1 << n)
    for mask, weight in seeds.items():
        table[mask] += weight
    for i in range(n):
        shaped = table.reshape(-1, 2, 1 << i)
        shaped[:, 1, :] += shaped[:, 0, :]
    return table


def bracket_check(statement: VagueStatement) -> BracketReport:
    """Verify Bel(A) <= P(A) <= Pl(A) over every subset of the frame.

    P is the max-entropy distribution and Bel, Pl come from the
    min-specificity mass. Exhaustive, hence capped at TABLE_MAX_ATOMS atoms.
    The tightest width is taken over contingent subsets only; the empty set
    and the whole frame bracket exactly by construction.
    """
    frame = statement.core.frame
    n = len(frame)
    if n > TABLE_MAX_ATOMS:
        raise ValidationError(
            f"frame has {n} atoms; exhaustive check is capped at {TABLE_MAX_ATOMS}"
        )
    p = maxent_distribution(statement)
    mass, _ = minspec_mass(statement)
    prob_seeds = {1 << i: v for i, v in enumerate(p.values)}
    bel_seeds = {subset.mask: weight for subset, weight in mass.focal_elements()}
    full = (1 << n) - 1
    # complement of mask m is full - m, so the complement table is a reversal
    if n <= _PURE_CHECK_MAX_ATOMS:
        prob = _zeta(n, prob_seeds)
        bel = _zeta(n, bel_seeds)
        pl = [1.0 - b for b in reversed(bel)]
        max_violation = max(max(map(max, map(sub, bel, prob), map(sub, prob, pl))), 0.0)
        widths = list(map(sub, pl, bel))
        # the first contingent mask of least width, as numpy's argmin picks it
        tightest = min(range(1, full), key=widths.__getitem__)
        tightest_width = widths[tightest]
    else:
        import numpy as np  # deferred: only large bracket checks need numpy

        prob = _subset_sum_table(n, prob_seeds)
        bel = _subset_sum_table(n, bel_seeds)
        pl = 1.0 - bel[::-1]
        over = np.maximum(bel - prob, prob - pl)
        max_violation = float(max(over.max(), 0.0))
        widths = pl - bel
        widths[0] = np.inf
        widths[full] = np.inf
        tightest = int(np.argmin(widths))
        tightest_width = float(widths[tightest])
    return BracketReport(
        holds=max_violation <= 1e-9,
        subsets_checked=1 << n,
        max_violation=max_violation,
        tightest_width=tightest_width,
        tightest_subset=Subset(frame, tightest),
    )
