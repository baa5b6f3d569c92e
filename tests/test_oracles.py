"""Self-tests for the numerical oracles against independent machinery.

The oracles exist to check closed forms elsewhere, so nothing here may lean
on those closed forms. Cross-checks use scipy's general-purpose optimizer
and statistics: SLSQP for the projections and the entropy maximizer,
Kolmogorov-Smirnov for the samplers. The regex focal-line reader and the
document parser's `str`-method reader check each other on drawn mass blocks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import LinearConstraint, minimize
from scipy.stats import beta as beta_dist
from scipy.stats import entropy as scipy_entropy
from scipy.stats import kstest

from credal import DocumentError, Frame, MassFunction, ValidationError, parse_document
from oracles import (
    maximize_entropy,
    project_feasible,
    project_to_scaled_simplex,
    reference_focal_line,
    sample_feasible_distributions,
    sample_feasible_mass_cardinalities,
    shannon_entropy,
)


class TestShannonEntropy:
    def test_uniform_is_log_n(self):
        for n in (2, 5, 17):
            assert shannon_entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log(n), abs=1e-12)

    def test_dirac_is_zero(self):
        assert shannon_entropy([0.0, 1.0, 0.0]) == 0.0

    def test_known_value(self):
        assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_matches_scipy_rowwise(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(6), size=40)
        ours = shannon_entropy(p)
        theirs = scipy_entropy(p, axis=1)
        assert np.max(np.abs(ours - theirs)) < 1e-12


class TestSimplexProjection:
    def test_feasible_point_is_fixed(self):
        p = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_scaled_simplex(p, 1.0), p, atol=1e-12)

    def test_known_projection(self):
        got = project_to_scaled_simplex(np.array([2.0, 0.0]), 1.0)
        assert np.allclose(got, [1.0, 0.0], atol=1e-12)

    def test_result_lies_on_scaled_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            y = rng.normal(size=rng.integers(1, 12))
            total = float(rng.uniform(0.1, 3.0))
            x = project_to_scaled_simplex(y, total)
            assert x.min() >= 0.0
            assert x.sum() == pytest.approx(total, abs=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            y = rng.normal(size=8)
            x = project_to_scaled_simplex(y, 1.0)
            assert np.allclose(project_to_scaled_simplex(x, 1.0), x, atol=1e-9)

    def test_nonpositive_total_gives_zero(self):
        y = np.array([1.0, 2.0])
        assert np.array_equal(project_to_scaled_simplex(y, 0.0), np.zeros(2))
        assert np.array_equal(project_to_scaled_simplex(y, -1.0), np.zeros(2))

    def test_beats_slsqp(self):
        # the projection is the unique closest feasible point, so it must be
        # at least as close to y as anything a general-purpose solver finds
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            y = rng.normal(scale=2.0, size=n)
            ours = project_to_scaled_simplex(y, 1.0)
            res = minimize(
                lambda x: np.sum((x - y) ** 2),
                np.full(n, 1.0 / n),
                jac=lambda x: 2.0 * (x - y),
                bounds=[(0.0, None)] * n,
                constraints=[LinearConstraint(np.ones(n), 1.0, 1.0)],
                method="SLSQP",
            )
            theirs = np.maximum(res.x, 0.0)
            theirs /= theirs.sum()  # repair rounding so the reference point is feasible
            assert np.sum((ours - y) ** 2) <= np.sum((theirs - y) ** 2) + 1e-9


class TestFeasibleProjection:
    @staticmethod
    def slsqp_reference(y, core, alpha):
        n = len(y)
        res = minimize(
            lambda x: np.sum((x - y) ** 2),
            project_feasible(np.full(n, 1.0 / n), core, alpha),
            jac=lambda x: 2.0 * (x - y),
            bounds=[(0.0, None)] * n,
            constraints=[
                LinearConstraint(np.ones(n), 1.0, 1.0),
                LinearConstraint(core.astype(float), alpha, np.inf),
            ],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        return res.x

    def test_result_is_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n))
            core = np.zeros(n, dtype=bool)
            core[rng.choice(n, size=k, replace=False)] = True
            alpha = float(rng.uniform(0.0, 1.0))
            x = project_feasible(rng.normal(size=n), core, alpha)
            assert x.min() >= 0.0
            assert x.sum() == pytest.approx(1.0, abs=1e-9)
            assert x[core].sum() >= alpha - 1e-9

    def test_loose_constraint_reduces_to_simplex_projection(self):
        y = np.array([0.5, 0.2, 0.1, 0.4])
        core = np.array([True, True, False, False])
        plain = project_to_scaled_simplex(y, 1.0)
        assert np.array_equal(project_feasible(y, core, 0.1), plain)

    def test_binding_constraint_splits_the_budget(self):
        y = np.full(4, 0.25)
        core = np.array([True, False, False, False])
        x = project_feasible(y, core, 0.9)
        assert x[0] == pytest.approx(0.9, abs=1e-12)
        assert np.allclose(x[1:], 0.1 / 3.0, atol=1e-12)

    def test_matches_slsqp(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            core = np.zeros(n, dtype=bool)
            core[rng.choice(n, size=k, replace=False)] = True
            alpha = float(rng.uniform(0.3, 0.99))
            y = rng.normal(scale=1.5, size=n)
            ours = project_feasible(y, core, alpha)
            ref = self.slsqp_reference(y, core, alpha)
            assert np.max(np.abs(ours - ref)) < 1e-6


class TestMaximizeEntropy:
    @staticmethod
    def slsqp_reference(n, core_indices, alpha):
        core = np.zeros(n, dtype=bool)
        core[list(core_indices)] = True
        res = minimize(
            lambda x: -shannon_entropy(np.maximum(x, 0.0)),
            project_feasible(np.full(n, 1.0 / n), core, alpha),
            bounds=[(0.0, 1.0)] * n,
            constraints=[
                LinearConstraint(np.ones(n), 1.0, 1.0),
                LinearConstraint(core.astype(float), alpha, np.inf),
            ],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        return res.x

    def test_loose_constraint_yields_uniform(self):
        p = maximize_entropy(10, range(4), 0.2)
        assert np.max(np.abs(p - 0.1)) < 1e-10

    def test_result_is_feasible(self):
        p = maximize_entropy(6, [0, 3], 0.9)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert p[[0, 3]].sum() >= 0.9 - 1e-9

    @pytest.mark.parametrize("n,core,alpha", [
        (6, (0, 1), 0.8),
        (5, (2,), 0.95),
        (10, (0, 1, 2, 3), 0.7),
        (4, (1, 2, 3), 0.9),
    ])
    def test_matches_slsqp(self, n, core, alpha):
        ours = maximize_entropy(n, core, alpha)
        ref = self.slsqp_reference(n, core, alpha)
        assert shannon_entropy(ours) >= shannon_entropy(ref) - 1e-9
        assert np.max(np.abs(ours - ref)) < 1e-6

    def test_dominates_sampled_feasible_points(self):
        rng = np.random.default_rng(23)
        best = maximize_entropy(7, (0, 1, 2), 0.85)
        samples = sample_feasible_distributions(7, (0, 1, 2), 0.85, 5000, rng)
        assert shannon_entropy(best) >= np.max(shannon_entropy(samples)) - 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="outside"):
            maximize_entropy(4, [0], 1.5)
        with pytest.raises(ValueError, match="proper"):
            maximize_entropy(4, [], 0.5)
        with pytest.raises(ValueError, match="proper"):
            maximize_entropy(4, range(4), 0.5)


class TestFeasibleDistributionSampler:
    def test_rows_are_feasible(self):
        rng = np.random.default_rng(29)
        rows = sample_feasible_distributions(8, (1, 4, 6), 0.75, 4000, rng)
        assert rows.shape == (4000, 8)
        assert rows.min() >= 0.0
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-9
        assert rows[:, [1, 4, 6]].sum(axis=1).min() >= 0.75 - 1e-9

    def test_core_total_follows_truncated_beta(self):
        # mapping the core totals through the truncated cdf must give U[0, 1]
        rng = np.random.default_rng(31)
        n, k, alpha = 9, 3, 0.6
        rows = sample_feasible_distributions(n, range(k), alpha, 3000, rng)
        t = rows[:, :k].sum(axis=1)
        lo = beta_dist.cdf(alpha, k, n - k)
        u = (beta_dist.cdf(t, k, n - k) - lo) / (1.0 - lo)
        assert kstest(u, "uniform").pvalue > 1e-4

    def test_alpha_zero_reduces_to_flat_dirichlet(self):
        # unconstrained: the core total of a flat Dirichlet is Beta(k, n-k)
        rng = np.random.default_rng(37)
        n, k = 6, 2
        rows = sample_feasible_distributions(n, range(k), 0.0, 3000, rng)
        t = rows[:, :k].sum(axis=1)
        assert kstest(t, beta_dist(k, n - k).cdf).pvalue > 1e-4

    def test_proper_core_required(self):
        rng = np.random.default_rng(41)
        with pytest.raises(ValueError, match="proper"):
            sample_feasible_distributions(4, [], 0.5, 10, rng)
        with pytest.raises(ValueError, match="proper"):
            sample_feasible_distributions(4, range(4), 0.5, 10, rng)


class TestFeasibleMassCardinalitySampler:
    def test_bounds(self):
        rng = np.random.default_rng(43)
        n, k, alpha = 10, 3, 0.8
        out = sample_feasible_mass_cardinalities(n, k, alpha, 5000, rng)
        assert out.shape == (5000,)
        # inside focals hold 1..k atoms, outside focals 1..n
        assert out.min() >= alpha * 1.0 + (1.0 - alpha) * 1.0 - 1e-12
        assert out.max() <= alpha * k + (1.0 - alpha) * n + 1e-12

    def test_alpha_one_stays_inside_the_core(self):
        rng = np.random.default_rng(47)
        out = sample_feasible_mass_cardinalities(12, 4, 1.0, 2000, rng)
        assert out.min() >= 1.0 - 1e-12
        assert out.max() <= 4.0 + 1e-12

    def test_singleton_core_pins_the_inside_term(self):
        rng = np.random.default_rng(53)
        out = sample_feasible_mass_cardinalities(5, 1, 1.0, 500, rng)
        assert np.max(np.abs(out - 1.0)) < 1e-12

    def test_core_size_limits(self):
        rng = np.random.default_rng(59)
        with pytest.raises(ValueError, match="strictly between"):
            sample_feasible_mass_cardinalities(5, 0, 0.5, 10, rng)
        with pytest.raises(ValueError, match="strictly between"):
            sample_feasible_mass_cardinalities(5, 5, 0.5, 10, rng)


FRAME = Frame(["a", "b", "_"])
HEADER = "frame w: a b _\nmass m over w:\n"
# whitespace that `str.strip` and `str.split` read as space, `\x85` a line break too
SPACE = [" ", "\t", "\xa0", "\u3000", "\x1f", "\x85"]
# the frame's labels, two it lacks, space and braces
LABEL_CHARS = ["a", "b", "_", "c", "\u0661", "{", "}"] + SPACE
# five weights the parser reads, then tokens it refuses and ones that are no single token
WEIGHTS = ["1.0", "0.5", "0.25", "1", "inf", "0.2_5", "\u0661", "0.5}", "{b}", "0.5 0.5", ""]


def chars(alphabet, max_size):
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map("".join)


# a line `{labels} weight` spelt well, or with anything of the alphabet around and inside it
LABELS = st.lists(st.sampled_from(["a", "b", "_", "c"]), max_size=4).map(" ".join)
CLEAN_LINE = st.builds("{{{}}} {}".format, LABELS, st.sampled_from(WEIGHTS[:5]))
NOISY_LINE = st.builds(lambda *parts: "".join(parts), chars(SPACE, 2), st.sampled_from(["{", "{", "{{"]),
                       st.one_of(LABELS, chars(LABEL_CHARS, 6)), st.sampled_from(["}", "}", "", "}}"]),
                       chars(SPACE + ["{", "}"], 3), st.sampled_from(WEIGHTS), chars(SPACE, 2))


def reference_outcome(text):
    """What the parser gives `text` with the regex reading each focal line: focal items, or message, line, cause."""
    pairs = []
    for line, raw in enumerate(text.splitlines()[2:], start=3):
        content = raw.strip()
        if not content:  # a `\x85` cuts a drawn line: one piece starts `{`, malformed if a non-blank one follows
            continue
        try:
            pairs.append(reference_focal_line(FRAME, content))
        except ValidationError as exc:
            return f"line {line}: {exc}", line, ValidationError
    try:  # the block closes at the end of the text, and its header line reports what the mass refuses
        return list(MassFunction._from_masks(FRAME, pairs).focal_elements())
    except ValidationError as exc:
        return f"line 2: {exc}", 2, ValidationError


def parsed_outcome(text):
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        return str(exc), exc.line, type(exc.__cause__)
    return list(doc.masses["m"].focal_elements())


@given(st.lists(st.one_of(CLEAN_LINE, NOISY_LINE), min_size=1, max_size=3))
@settings(max_examples=400)
def test_focal_lines_read_as_the_regex_reads_them(lines):
    text = HEADER + "\n".join(lines)
    assert parsed_outcome(text) == reference_outcome(text)
