"""Independent numerical oracles for the elicitation closed forms and the powerset tables.

Nothing in this module knows the closed-form answers: the entropy maximizer
is a generic projected gradient ascent over the probability simplex with a
lower-bound constraint on one group's total, and the samplers draw from the
corresponding feasible sets. They exist so the closed forms elsewhere can be
checked against machinery that cannot share their mistakes. The reference
zeta transform walks the powerset one element at a time, the plainest form
of the adds the library's sliced kernel does; its Moebius inverse, the
array form of the same transform and the exhaustive bracket check built on
it run on numpy arrays. The regex reader of one focal line is the one the
document parser used before it read them with `str` methods.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np
from scipy.stats import beta as beta_dist

from credal import Frame, ValidationError
from credal.document import _number


def shannon_entropy(p: np.ndarray | Sequence[float]) -> float | np.ndarray:
    """Entropy in nats with the 0 log 0 = 0 convention; supports 1-D and 2-D input."""
    arr = np.asarray(p, dtype=float)
    terms = np.where(arr > 0.0, arr * np.log(np.where(arr > 0.0, arr, 1.0)), 0.0)
    return -float(terms.sum()) if arr.ndim == 1 else -terms.sum(axis=-1)


def project_to_scaled_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of y onto {x : x >= 0, sum(x) = total}."""
    if total <= 0.0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(y) + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = css[rho] / (rho + 1)
    return np.maximum(y - tau, 0.0)


def project_feasible(y: np.ndarray, core: np.ndarray, alpha: float) -> np.ndarray:
    """Euclidean projection onto {p in simplex : sum(p[core]) >= alpha}.

    If the plain simplex projection already satisfies the group constraint it
    is the answer; otherwise the constraint binds and the feasible set splits
    into the product of two scaled simplices, projected independently.
    """
    p = project_to_scaled_simplex(y, 1.0)
    if p[core].sum() >= alpha - 1e-15:
        return p
    out = np.empty_like(y)
    out[core] = project_to_scaled_simplex(y[core], alpha)
    out[~core] = project_to_scaled_simplex(y[~core], 1.0 - alpha)
    return out


def maximize_entropy(
    n: int,
    core_indices: Sequence[int],
    alpha: float,
    *,
    max_iter: int = 50_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """Numerically maximize Shannon entropy over {p in simplex : P(core) >= alpha}.

    Projected gradient ascent with backtracking line search. Returns the
    final iterate; accuracy is typically far better than 1e-8 per coordinate
    on well-conditioned instances (all grades of alpha on frames this
    package supports).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha!r} outside [0, 1]")
    core = np.zeros(n, dtype=bool)
    core[list(core_indices)] = True
    if core.all() or not core.any():
        raise ValueError("core must be a proper non-empty subset of the frame")

    p = project_feasible(np.full(n, 1.0 / n), core, alpha)
    step = 1.0
    entropy = shannon_entropy(p)
    for _ in range(max_iter):
        grad = -(np.log(np.maximum(p, 1e-300)) + 1.0)
        candidate = project_feasible(p + step * grad, core, alpha)
        cand_entropy = shannon_entropy(candidate)
        shrink = 0
        while cand_entropy < entropy - 1e-18 and shrink < 60:
            step *= 0.5
            shrink += 1
            candidate = project_feasible(p + step * grad, core, alpha)
            cand_entropy = shannon_entropy(candidate)
        delta = float(np.max(np.abs(candidate - p)))
        p, entropy = candidate, cand_entropy
        if shrink == 0:
            step = min(step * 2.0, 1e6)
        if delta < tol:
            break
    return p


def sample_feasible_distributions(
    n: int,
    core_indices: Sequence[int],
    alpha: float,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform samples from {p in simplex : P(core) >= alpha}, one per row.

    Equivalent to rejection sampling of uniform simplex points, but done in
    closed form: the core's total is a Beta(k, n-k) variate truncated to
    [alpha, 1], and each side is split by an independent flat Dirichlet.
    This avoids the unbounded rejection time when alpha is close to 1.
    """
    core = np.zeros(n, dtype=bool)
    core[list(core_indices)] = True
    k = int(core.sum())
    if k in (0, n):
        raise ValueError("core must be a proper non-empty subset of the frame")

    lo = beta_dist.cdf(alpha, k, n - k)
    q = rng.uniform(lo, 1.0, size=count)
    t = beta_dist.ppf(q, k, n - k)
    t = np.clip(t, alpha, 1.0)

    u = rng.gamma(1.0, 1.0, size=(count, k))
    u /= u.sum(axis=1, keepdims=True)
    v = rng.gamma(1.0, 1.0, size=(count, n - k))
    v /= v.sum(axis=1, keepdims=True)

    out = np.empty((count, n))
    out[:, core] = u * t[:, None]
    out[:, ~core] = v * (1.0 - t)[:, None]
    return out


def sample_feasible_mass_cardinalities(
    n: int,
    core_size: int,
    alpha: float,
    count: int,
    rng: np.random.Generator,
    *,
    max_focals_per_group: int = 3,
) -> np.ndarray:
    """Expected cardinalities of random masses constrained to Bel(core) = alpha.

    Each sample allocates weight alpha over 1..max focal subsets of the core
    and weight 1 - alpha over focal subsets not contained in the core, with
    flat Dirichlet weights inside each group. Only the focal cardinalities
    matter for the expected cardinality, so subsets are drawn as bit counts
    directly: a non-empty uniform submask of the core, and a uniform mask
    forced to own at least one bit outside the core.
    """
    if not 0 < core_size < n:
        raise ValueError("core size must be strictly between 0 and the frame size")

    def group_mean_size(masks: np.ndarray, used: np.ndarray) -> np.ndarray:
        sizes = np.bitwise_count(masks).astype(float)
        weights = rng.gamma(1.0, 1.0, size=masks.shape) * used
        return (weights * sizes).sum(axis=1) / weights.sum(axis=1)

    shape = (count, max_focals_per_group)
    # per sample, a random number of focals in each group is marked used
    used_in = np.arange(max_focals_per_group) < rng.integers(1, max_focals_per_group + 1, size=(count, 1))
    used_out = np.arange(max_focals_per_group) < rng.integers(1, max_focals_per_group + 1, size=(count, 1))

    inside = rng.integers(0, 1 << core_size, size=shape, dtype=np.uint64)
    while True:
        zero = inside == 0
        if not zero.any():
            break
        inside[zero] = rng.integers(0, 1 << core_size, size=int(zero.sum()), dtype=np.uint64)

    outside = rng.integers(0, 1 << n, size=shape, dtype=np.uint64)
    trapped = outside >> np.uint64(core_size) == 0  # inside the core: force an outside bit
    outside[trapped] |= np.uint64(1) << rng.integers(
        core_size, n, size=int(trapped.sum()), dtype=np.uint64
    )

    out = np.zeros(count)
    if alpha > 0.0:
        out += alpha * group_mean_size(inside, used_in)
    if alpha < 1.0:
        out += (1.0 - alpha) * group_mean_size(outside, used_out)
    return out


def reference_zeta(n: int, seeds: dict[int, float]) -> list[float]:
    """Subset-sum table by the element loop: t[mask] = sum of seeds over submasks of mask."""
    table = [0.0] * (1 << n)
    for mask, w in seeds.items():
        table[mask] += w
    for bit in range(n):
        step = 1 << bit
        for m in range(1 << n):
            if m & step:
                table[m] += table[m ^ step]
    return table


def reference_moebius(n: int, table: Sequence[float]) -> np.ndarray:
    """Inverse of `reference_zeta`: the weights whose subset sums are `table`."""
    out = np.array(table, dtype=float)
    for bit in range(n):
        halves = out.reshape(-1, 2, 1 << bit)
        halves[:, 1, :] -= halves[:, 0, :]
    return out


def subset_sum_table(n: int, seeds: dict[int, float]) -> np.ndarray:
    """`reference_zeta` on a numpy array: each bit's adds as one vectorized pass, in the same order."""
    table = np.zeros(1 << n)
    for mask, weight in seeds.items():
        table[mask] += weight
    for i in range(n):
        shaped = table.reshape(-1, 2, 1 << i)
        shaped[:, 1, :] += shaped[:, 0, :]
    return table


def exhaustive_bracket(
    n: int, prob: Sequence[float], focal: dict[int, float]
) -> tuple[bool, int, float, float, int]:
    """Check Bel(A) <= P(A) <= Pl(A) by scanning all 2^n subsets' tables.

    `prob` holds the per-atom probabilities and `focal` the mass's weights by
    mask. Returns the fields of a bracket report: holds, subsets checked, the
    largest violation (at least 0), and the least contingent width with the
    first mask that attains it.
    """
    p = subset_sum_table(n, {1 << i: v for i, v in enumerate(prob)})
    bel = subset_sum_table(n, focal)
    pl = 1.0 - bel[::-1]  # the complement of mask m is full - m
    max_violation = float(max(np.maximum(bel - p, p - pl).max(), 0.0))
    widths = pl - bel
    widths[0] = widths[-1] = np.inf
    tightest = int(np.argmin(widths))
    return max_violation <= 1e-9, 1 << n, max_violation, float(widths[tightest]), tightest


FOCAL_LINE = re.compile(r"^\{(?P<labels>[^{}]*)\}\s+(?P<weight>\S+)$")


def reference_focal_line(frame: Frame, content: str) -> tuple[int, float]:
    """The mask and weight of one stripped focal line: one regex match, then `Frame._mask` and `_number`."""
    m = FOCAL_LINE.match(content)
    if m is None:
        raise ValidationError(f"malformed focal line: {content!r} (expected {{label ...}} weight)")
    return frame._mask(m.group("labels").split()), _number(m.group("weight"))
