import random
import tracemalloc
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from credal import (
    Frame,
    FuzzySet,
    MassFunction,
    NumericScale,
    ProbabilityDistribution,
    TrianglePoint,
    TriangleRegion,
    VagueStatement,
    contour,
    evidence,
    make_mass,
    membership_from_random_set,
)
from conftest import TOL
from laws import frame_of, masses, random_general_mass
from oracles import reference_moebius, reference_zeta, subset_sum_table


@pytest.fixture
def staircase(w3) -> MassFunction:
    """0.5 on {w1}, 0.3 on {w1 w2}, 0.2 on the whole frame."""
    return make_mass(w3, [
        (w3.singleton("w1"), 0.5),
        (w3.subset(["w1", "w2"]), 0.3),
        (w3.full, 0.2),
    ])


class TestConstruction:
    def test_three_focals(self, staircase, w3):
        assert len(staircase) == 3
        assert staircase.weight_of(w3.singleton("w1")) == pytest.approx(0.5, abs=TOL)

    def test_sum_tolerance(self, w3):
        # a hair inside the tolerance is accepted and renormalized
        m = MassFunction(w3, [(w3.full, 1.0000005)])
        assert m.weight_of(w3.full) == 1.0

    def test_duplicate_focals_merge(self, w3):
        m = MassFunction(w3, [(w3.singleton("w1"), 0.25), (w3.singleton("w1"), 0.25), (w3.full, 0.5)])
        assert len(m) == 2
        assert m.weight_of(w3.singleton("w1")) == pytest.approx(0.5, abs=TOL)

    def test_numbers_of_any_numeric_type_build(self, w3):
        values = [np.float32(0.5), np.int64(0), Fraction(1, 2)]
        assert ProbabilityDistribution(w3, values).values == (0.5, 0.0, 0.5)
        assert make_mass(w3, [(w3.full, Fraction(1))]) == MassFunction(w3, [(w3.full, np.float64(1.0))])
        alpha = VagueStatement(w3.singleton("w1"), Fraction(1, 2)).alpha
        assert alpha == 0.5 and type(alpha) is float  # records store the floats they read
        point = TrianglePoint.locate(np.float32(0.5), 0)
        assert point.region is TriangleRegion.POSSIBILISTIC_AXES and type(point.x) is type(point.y) is float
        fuzzy = FuzzySet.from_breakpoints(NumericScale(1, 3), [(np.int64(1), Fraction(1)), (3, np.float32(0))])
        assert fuzzy.values == (1.0, 0.5, 0.0)

    def test_vacuous(self, w3):
        m = MassFunction.vacuous(w3)
        assert [s.mask for s, _ in m.focal_elements()] == [0b111]


class TestBeliefPlausibility:
    def test_belief_of_pair(self, staircase, w3):
        assert staircase.belief(w3.subset(["w1", "w2"])) == pytest.approx(0.8, abs=TOL)

    def test_belief_of_uncovered_singletons(self, staircase, w3):
        assert staircase.belief(w3.singleton("w2")) == 0.0
        assert staircase.belief(w3.singleton("w3")) == 0.0

    def test_belief_limits(self, staircase, w3):
        assert staircase.belief(w3.empty) == 0.0
        assert staircase.belief(w3.full) == pytest.approx(1.0, abs=TOL)

    def test_plausibility_of_singletons(self, staircase, w3):
        assert staircase.plausibility(w3.singleton("w2")) == pytest.approx(0.5, abs=TOL)
        assert staircase.plausibility(w3.singleton("w3")) == pytest.approx(0.2, abs=TOL)

    def test_vacuous_mass_commits_to_nothing(self, w3):
        m = MassFunction.vacuous(w3)
        for a in w3.all_subsets():
            if a.is_full:
                assert m.belief(a) == 1.0
            else:
                assert m.belief(a) == 0.0
            if not a.is_empty:
                assert m.plausibility(a) == 1.0

    def test_definite_book_leaves_no_room_in_the_middle(self):
        # two equal stakes on the outer outcomes pin the middle one to zero
        frame = Frame(["a", "nab", "nb"])
        p = ProbabilityDistribution(frame, [0.5, 0.0, 0.5])
        m = p.as_mass()
        middle = frame.singleton("nab")
        assert m.belief(middle) == 0.0
        assert m.plausibility(middle) == 0.0

    def test_tables_match_pointwise_evaluation(self, staircase, w3):
        bel = staircase.belief_table()
        pl = staircase.plausibility_table()
        for a in w3.all_subsets():
            assert bel[a.mask] == pytest.approx(staircase.belief(a), abs=TOL)
            assert pl[a.mask] == pytest.approx(staircase.plausibility(a), abs=TOL)


class TestFromProbability:
    def test_uniform_two_atoms(self):
        frame = Frame(["w1", "w2"])
        m = ProbabilityDistribution.uniform(frame).as_mass()
        assert m.weight_of(frame.singleton("w1")) == 0.5
        assert m.weight_of(frame.singleton("w2")) == 0.5

    def test_dirac(self, w3):
        m = ProbabilityDistribution(w3, [1.0, 0.0, 0.0]).as_mass()
        assert len(m) == 1
        assert m.belief(w3.singleton("w1")) == 1.0
        assert m.plausibility(w3.singleton("w1")) == 1.0

    def test_additivity(self, w3):
        m = ProbabilityDistribution(w3, [0.2, 0.3, 0.5]).as_mass()
        a = w3.subset(["w1", "w3"])
        assert m.belief(a) == pytest.approx(0.7, abs=TOL)
        assert m.plausibility(a) == pytest.approx(0.7, abs=TOL)

    def test_zero_atoms_are_not_focal(self, w3):
        m = ProbabilityDistribution(w3, [0.5, 0.0, 0.5]).as_mass()
        assert len(m) == 2


class TestExpectedCardinality:
    def test_staircase(self, staircase):
        assert staircase.expected_cardinality() == pytest.approx(1.7, abs=TOL)

    def test_vacuous_is_maximal(self):
        for n in (1, 3, 7):
            frame = frame_of(n)
            assert MassFunction.vacuous(frame).expected_cardinality() == pytest.approx(n, abs=TOL)

    def test_bayesian_is_one(self, w3):
        m = ProbabilityDistribution(w3, [0.2, 0.3, 0.5]).as_mass()
        assert m.expected_cardinality() == pytest.approx(1.0, abs=TOL)


class TestClassify:
    def test_nested_chain_is_consonant(self, w3):
        m = make_mass(w3, [(w3.singleton("w1"), 0.3), (w3.subset(["w1", "w2"]), 0.7)])
        assert m.classify().tag == str(m.classify()) == "consonant"

    def test_overlapping_pair_is_general(self, w3):
        m = make_mass(w3, [(w3.subset(["w1", "w2"]), 0.5), (w3.subset(["w2", "w3"]), 0.5)])
        c = m.classify()
        assert c.tag == "general"
        assert c.labels == frozenset({"general"})

    def test_vacuous_precedence(self, w3):
        c = MassFunction.vacuous(w3).classify()
        assert c.tag == "vacuous"
        assert c.labels == frozenset({"vacuous", "consonant"})

    def test_dirac_is_bayesian_and_consonant(self, w3):
        c = ProbabilityDistribution(w3, [1, 0, 0]).as_mass().classify()
        assert c.tag == "bayesian"
        assert c.labels == frozenset({"bayesian", "consonant"})

    def test_spread_probability_is_bayesian_only(self, w3):
        c = ProbabilityDistribution(w3, [0.2, 0.3, 0.5]).as_mass().classify()
        assert c.tag == "bayesian"
        assert c.labels == frozenset({"bayesian"})


class TestTriangle:
    def test_vacuous_sits_at_the_ignorance_vertex(self, w3):
        pt = MassFunction.vacuous(w3).triangle_point(w3.singleton("w1"))
        assert (pt.x, pt.y) == (0.0, 0.0)
        assert pt.region is TriangleRegion.IGNORANCE
        assert pt.ignorance == 1.0

    def test_even_odds_sit_on_the_probabilistic_edge(self):
        frame = Frame(["a", "b"])
        m = ProbabilityDistribution(frame, [0.5, 0.5]).as_mass()
        pt = m.triangle_point(frame.singleton("a"))
        assert (pt.x, pt.y) == (0.5, 0.5)
        assert pt.region is TriangleRegion.PROBABILISTIC_EDGE
        assert pt.ignorance == 0.0

    def test_partial_symmetric_support_is_interior(self, w3):
        m = make_mass(w3, [
            (w3.singleton("w1"), 0.2),
            (w3.singleton("w2"), 0.2),
            (w3.full, 0.6),
        ])
        pt = m.triangle_point(w3.singleton("w1"))
        assert (pt.x, pt.y) == (0.2, 0.2)
        assert pt.region is TriangleRegion.INTERIOR
        assert pt.ignorance == pytest.approx(0.6, abs=TOL)

    def test_one_sided_support_sits_on_the_axes(self, w3):
        m = make_mass(w3, [(w3.singleton("w1"), 0.4), (w3.full, 0.6)])
        pt = m.triangle_point(w3.singleton("w1"))
        assert pt.region is TriangleRegion.POSSIBILISTIC_AXES
        assert pt.ignorance is None

    def test_certainty_vertices(self, w3):
        m = ProbabilityDistribution(w3, [1, 0, 0]).as_mass()
        assert m.triangle_point(w3.singleton("w1")).region is TriangleRegion.CERTAIN
        assert m.triangle_point(w3.singleton("w2")).region is TriangleRegion.CERTAIN_NOT

    def test_a_point_within_the_tolerance_of_a_vertex_is_at_it(self):
        assert TrianglePoint.locate(evidence.EQ_TOLERANCE, 0.0).region is TriangleRegion.IGNORANCE

    def test_symmetric_support_never_exceeds_half(self):
        rng = random.Random(23)
        for _ in range(300):
            frame = frame_of(rng.randint(2, 6))
            m = random_general_mass(rng, frame)
            a = frame.from_mask(rng.randint(1, (1 << len(frame)) - 2))
            pt = m.triangle_point(a)
            if pt.ignorance is not None:
                assert pt.x <= 0.5 + TOL
                assert -TOL <= pt.ignorance <= 1.0 + TOL


class TestProbabilityDistribution:
    def test_renormalization(self, w3):
        p = ProbabilityDistribution(w3, [0.3333333, 0.3333333, 0.3333334])
        assert fsum(p.values) == pytest.approx(1.0, abs=TOL)

    def test_probability_of(self, w3):
        p = ProbabilityDistribution(w3, [0.2, 0.3, 0.5])
        assert p.probability_of(w3.subset(["w2", "w3"])) == pytest.approx(0.8, abs=TOL)
        assert p.probability_of(w3.empty) == 0.0


@given(masses(16))
@settings(max_examples=20)
def test_tables_equal_the_element_loop_bit_for_bit(m):
    n = len(m.frame)
    weights = {subset.mask: w for subset, w in m.focal_elements()}
    ref = reference_zeta(n, weights)
    full = (1 << n) - 1
    ref_pl = [ref[full] - ref[full ^ mask] for mask in range(full + 1)]
    bel = m.belief_table()
    assert list(map(float.hex, bel)) == list(map(float.hex, ref))
    assert list(map(float.hex, m.plausibility_table())) == list(map(float.hex, ref_pl))
    # Bel table -> Moebius -> masses
    expected = [0.0] * (full + 1)
    for mask, w in weights.items():
        expected[mask] = w
    assert max(abs(reference_moebius(n, bel) - expected)) <= TOL


def test_point_queries_stop_at_one_where_the_weights_sum_an_ulp_above_it():
    frame = Frame(["a", "b", "c"])
    m = MassFunction(frame, [(frame.subset(["a"]), 0.5160001), (frame.subset(["a", "b"]), 0.479),
                             (frame.full, 0.005)])
    assert m.belief(frame.full) == 1.0
    assert m.plausibility(frame.full) == 1.0
    assert m.plausibility(frame.singleton("a")) == 1.0
    assert membership_from_random_set(m, "a") == 1.0
    # the table cells are not clamped: they match the point queries within 1e-12
    assert abs(m.belief_table()[-1] - m.belief(frame.full)) <= TOL
    assert abs(m.plausibility_table()[1] - m.plausibility(frame.singleton("a"))) <= TOL


@given(masses(64))
@settings(max_examples=30)
def test_membership_is_the_contour_at_every_point(m):
    values = contour(m).values
    for i, atom in enumerate(m.frame.atoms):
        assert membership_from_random_set(m, atom) == values[i]


@given(masses(14), st.lists(st.integers(min_value=0), min_size=1, max_size=16))
@settings(max_examples=30)
def test_tables_equal_the_scalars(m, masks):
    full = (1 << len(m.frame)) - 1
    bel, pl = m.belief_table(), m.plausibility_table()
    for mask in masks + [0, full]:
        a = m.frame.from_mask(mask & full)
        assert abs(bel[a.mask] - m.belief(a)) <= TOL
        assert abs(pl[a.mask] - m.plausibility(a)) <= TOL


class TestTableCache:
    def test_one_transform_per_mass(self, monkeypatch):
        calls, zeta = [], evidence._zeta

        def counting(n, seeds):
            calls.append(n)
            return zeta(n, seeds)

        monkeypatch.setattr(evidence, "_zeta", counting)
        m = random_general_mass(random.Random(5), frame_of(6))
        bel = m.belief_table()
        m.plausibility_table()
        assert m.belief_table() == bel
        assert calls == [6]

    def test_mutating_a_returned_table_changes_nothing(self):
        m = random_general_mass(random.Random(6), frame_of(5))
        bel, pl = m.belief_table(), m.plausibility_table()
        expected_bel, expected_pl = bel.copy(), pl.copy()
        bel[:] = [2.0] * len(bel)
        pl[3] = -1.0
        assert m.belief_table() == expected_bel
        assert m.plausibility_table() == expected_pl

    def test_equality_and_repr_ignore_the_table(self):
        frame = frame_of(4)
        used, fresh = (random_general_mass(random.Random(7), frame) for _ in range(2))
        text = repr(used)
        used.belief_table()
        assert used == fresh and repr(used) == text


def hard_mass(n: int) -> dict[int, float]:
    """Deterministic seeds over `n` atoms: up to 300 focal sets, weights from (0, 1) down to subnormal."""
    rng = random.Random(n)
    seeds = {}
    for i in range(300):
        seeds[rng.randrange(1, 1 << n)] = [rng.random(), 1e-17, 1e-300, 5e-324][i % 4]
    return seeds


@pytest.mark.parametrize("n", [12, 13])
def test_multi_block_tables_equal_the_element_loop_bit_for_bit(n):
    seeds = hard_mass(n)
    assert list(map(float.hex, evidence._zeta(n, seeds))) == list(map(float.hex, reference_zeta(n, seeds)))


def test_multi_block_tables_equal_the_numpy_transform_bit_for_bit():
    seeds = hard_mass(17)
    expected = subset_sum_table(17, seeds).tolist()
    assert list(map(float.hex, evidence._zeta(17, seeds))) == list(map(float.hex, expected))


def sparse_mass(n: int, layout: str) -> dict[int, float]:
    """Seeds with `hard_mass`'s weights in the blocks of `_zeta` that `layout` names, so the others are skipped.

    `first`, `second` and `top` fill one block, `odd` every other block
    from the second on, and `each` puts one seed in every block.
    """
    rng = random.Random(f"{n}-{layout}")
    block = min(1 << n, evidence._ZETA_BLOCK)
    count = (1 << n) // block
    blocks = {"first": [0], "second": [1], "top": [count - 1], "odd": range(1, count, 2), "each": range(count)}[layout]
    seeds = {}
    for b in blocks:
        for _ in range(1 if layout == "each" else 40):
            seeds[rng.randrange(max(1, b * block), (b + 1) * block)] = [rng.random(), 1e-17, 1e-300, 5e-324][len(seeds) % 4]
    return seeds


LAYOUTS = ["first", "second", "top", "odd", "each"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", [12, 13])
def test_skipped_blocks_leave_the_element_loop_table_bit_for_bit(n, layout):
    seeds = sparse_mass(n, layout)
    assert list(map(float.hex, evidence._zeta(n, seeds))) == list(map(float.hex, reference_zeta(n, seeds)))


# at 20 atoms `each` skips nothing and costs a dense transform; the other layouts keep the test under a second
@pytest.mark.parametrize("n,layout", [(n, layout) for n in (17, 20) for layout in LAYOUTS if (n, layout) != (20, "each")])
def test_skipped_blocks_leave_the_numpy_table_bit_for_bit(n, layout):
    seeds = sparse_mass(n, layout)
    # the float64 bit patterns, which `float.hex` spells out, compared without 2^21 Python strings
    table = np.array(evidence._zeta(n, seeds)).view(np.uint64)
    np.testing.assert_array_equal(table, subset_sum_table(n, seeds).view(np.uint64))


def test_vacuous_tables_at_the_cap_are_exact():
    m = MassFunction.vacuous(frame_of(evidence.TABLE_MAX_ATOMS))
    size = 1 << evidence.TABLE_MAX_ATOMS
    assert m.belief_table() == [0.0] * (size - 1) + [1.0]
    assert m.plausibility_table() == [0.0] + [1.0] * (size - 1)


@pytest.mark.parametrize("seeds", [hard_mass(16), sparse_mass(16, "first")], ids=["dense", "sparse"])
def test_transform_needs_little_memory_beyond_its_table(seeds):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = evidence._zeta(16, seeds)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(table) == 1 << 16
    assert peak <= 1.25 * kept
