import random
import tracemalloc
from math import fsum, nextafter

import pytest
from hypothesis import given, settings, strategies as st

from credal import (
    Frame,
    FrameMismatchError,
    MassFunction,
    ProbabilityDistribution,
    TrianglePoint,
    TriangleRegion,
    ValidationError,
    VagueStatement,
    bracket_check,
    contour,
    evidence,
    make_mass,
    membership_from_random_set,
    minspec_mass,
)
from oracles import reference_moebius, reference_zeta, subset_sum_table

TOL = 1e-12


@pytest.fixture
def w3() -> Frame:
    return Frame(["w1", "w2", "w3"])


@pytest.fixture
def staircase(w3) -> MassFunction:
    """0.5 on {w1}, 0.3 on {w1 w2}, 0.2 on the whole frame."""
    return make_mass(w3, [
        (w3.singleton("w1"), 0.5),
        (w3.subset(["w1", "w2"]), 0.3),
        (w3.full, 0.2),
    ])


def random_mass(rng: random.Random, frame: Frame) -> MassFunction:
    n = len(frame)
    count = rng.randint(1, min(8, (1 << n) - 1))
    masks = rng.sample(range(1, 1 << n), count)
    weights = [rng.random() + 0.05 for _ in masks]
    total = fsum(weights)
    return MassFunction(frame, [(frame.from_mask(m), w / total) for m, w in zip(masks, weights)])


class TestConstruction:
    def test_three_focals(self, staircase, w3):
        assert len(staircase) == 3
        assert staircase.weight_of(w3.singleton("w1")) == pytest.approx(0.5, abs=TOL)

    def test_empty_focal_rejected(self, w3):
        with pytest.raises(ValidationError, match="contradiction"):
            MassFunction(w3, [(w3.empty, 0.5), (w3.full, 0.5)])

    def test_negative_weight_rejected(self, w3):
        with pytest.raises(ValidationError, match="negative"):
            MassFunction(w3, [(w3.full, 1.5), (w3.singleton("w1"), -0.5)])

    def test_zero_weight_rejected_by_make_mass(self, w3):
        with pytest.raises(ValidationError, match="non-positive"):
            make_mass(w3, [(w3.full, 1.0), (w3.singleton("w1"), 0.0)])

    @pytest.mark.parametrize("ctor", [MassFunction, make_mass])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, w3, ctor, bad):
        with pytest.raises(ValidationError, match="non-finite|non-positive"):
            ctor(w3, [(w3.singleton("w1"), bad), (w3.full, 1.0)])

    @pytest.mark.parametrize("ctor", [MassFunction, make_mass])
    def test_overflowing_sum_rejected(self, w3, ctor):
        # fsum raises OverflowError on these; it must surface as a ValidationError
        with pytest.raises(ValidationError, match="sum"):
            ctor(w3, [(w3.singleton("w1"), 1e308), (w3.singleton("w2"), 1e308)])

    def test_sum_tolerance(self, w3):
        with pytest.raises(ValidationError, match="sum"):
            MassFunction(w3, [(w3.full, 0.8)])
        # a hair inside the tolerance is accepted and renormalized
        m = MassFunction(w3, [(w3.full, 1.0000005)])
        assert m.weight_of(w3.full) == 1.0

    def test_duplicate_focals_merge(self, w3):
        m = MassFunction(w3, [(w3.singleton("w1"), 0.25), (w3.singleton("w1"), 0.25), (w3.full, 0.5)])
        assert len(m) == 2
        assert m.weight_of(w3.singleton("w1")) == pytest.approx(0.5, abs=TOL)

    def test_vacuous(self, w3):
        m = MassFunction.vacuous(w3)
        assert [s.mask for s, _ in m.focal_elements()] == [0b111]

    def test_cross_frame_focal_rejected(self, w3):
        other = Frame(["w1", "w2"])
        with pytest.raises(FrameMismatchError):
            MassFunction(w3, [(other.full, 1.0)])


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
            frame = Frame([f"w{i}" for i in range(n)])
            assert MassFunction.vacuous(frame).expected_cardinality() == pytest.approx(n, abs=TOL)

    def test_bayesian_is_one(self, w3):
        m = ProbabilityDistribution(w3, [0.2, 0.3, 0.5]).as_mass()
        assert m.expected_cardinality() == pytest.approx(1.0, abs=TOL)

    def test_bounds_on_random_masses(self):
        rng = random.Random(11)
        for _ in range(200):
            frame = Frame([f"w{i}" for i in range(rng.randint(1, 8))])
            m = random_mass(rng, frame)
            assert 1.0 - TOL <= m.expected_cardinality() <= len(frame) + TOL


class TestClassify:
    def test_nested_chain_is_consonant(self, w3):
        m = make_mass(w3, [(w3.singleton("w1"), 0.3), (w3.subset(["w1", "w2"]), 0.7)])
        assert m.classify().tag == "consonant"

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

    def test_rejects_trivial_propositions(self, staircase, w3):
        with pytest.raises(ValidationError):
            staircase.triangle_point(w3.empty)
        with pytest.raises(ValidationError):
            staircase.triangle_point(w3.full)

    def test_locate_rejects_points_outside(self):
        with pytest.raises(ValidationError):
            TrianglePoint.locate(0.7, 0.7)

    def test_symmetric_support_never_exceeds_half(self):
        rng = random.Random(23)
        for _ in range(300):
            frame = Frame([f"w{i}" for i in range(rng.randint(2, 6))])
            m = random_mass(rng, frame)
            a = frame.from_mask(rng.randint(1, (1 << len(frame)) - 2))
            pt = m.triangle_point(a)
            if pt.ignorance is not None:
                assert pt.x <= 0.5 + TOL
                assert -TOL <= pt.ignorance <= 1.0 + TOL


class TestProbabilityDistribution:
    def test_value_bounds(self, w3):
        with pytest.raises(ValidationError, match="outside"):
            ProbabilityDistribution(w3, [1.1, -0.05, -0.05])

    def test_sum_tolerance(self, w3):
        with pytest.raises(ValidationError, match="sum"):
            ProbabilityDistribution(w3, [0.5, 0.1, 0.1])

    def test_renormalization(self, w3):
        p = ProbabilityDistribution(w3, [0.3333333, 0.3333333, 0.3333334])
        assert fsum(p.values) == pytest.approx(1.0, abs=TOL)

    def test_length_check(self, w3):
        with pytest.raises(ValidationError, match="expected 3"):
            ProbabilityDistribution(w3, [0.5, 0.5])

    def test_probability_of(self, w3):
        p = ProbabilityDistribution(w3, [0.2, 0.3, 0.5])
        assert p.probability_of(w3.subset(["w2", "w3"])) == pytest.approx(0.8, abs=TOL)
        assert p.probability_of(w3.empty) == 0.0


@st.composite
def small_random_mass(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    frame = Frame([f"w{i}" for i in range(n)])
    count = draw(st.integers(min_value=1, max_value=min(6, (1 << n) - 1)))
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=count, max_size=count, unique=True))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=count, max_size=count))
    total = fsum(weights)
    return frame, MassFunction(frame, [(frame.from_mask(m), w / total) for m, w in zip(masks, weights)])


@given(small_random_mass())
@settings(max_examples=150, deadline=None)
def test_duality_and_ordering_hold_exhaustively(fm):
    frame, m = fm
    bel = m.belief_table()
    pl = m.plausibility_table()
    full = (1 << len(frame)) - 1
    for mask in range(full + 1):
        assert bel[mask] + pl[full ^ mask] == pytest.approx(1.0, abs=TOL)
        assert bel[mask] <= pl[mask] + TOL


@given(small_random_mass())
@settings(max_examples=100, deadline=None)
def test_monotonicity_under_inclusion(fm):
    frame, m = fm
    bel = m.belief_table()
    pl = m.plausibility_table()
    n = len(frame)
    # the covering relation (drop one atom) implies the full order by transitivity
    for mask in range(1, 1 << n):
        for i in range(n):
            if mask >> i & 1:
                below = mask ^ (1 << i)
                assert bel[below] <= bel[mask] + TOL
                assert pl[below] <= pl[mask] + TOL


@pytest.mark.parametrize("n", [21, 64])
def test_tables_on_large_frames_are_refused(n):
    m = MassFunction.vacuous(Frame([f"w{i}" for i in range(n)]))
    for table in (m.belief_table, m.plausibility_table):
        with pytest.raises(ValidationError, match=f"frame has {n} atoms; powerset tables are capped at 20"):
            table()


# weights far below the rest: subnormals, 1e-300 and 1e-17, which vanish next to 1 in a sum
tiny_weights = st.one_of(
    st.floats(min_value=5e-324, max_value=2.2e-308),
    st.sampled_from([5e-324, 1e-300, 1e-17]),
)


@st.composite
def mass_with_tiny_weights(draw, max_atoms=16):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    frame = Frame([f"w{i}" for i in range(n)])
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=1, max_size=10, unique=True))
    weights = [draw(st.floats(min_value=0.01, max_value=1.0))]
    weights += [draw(st.one_of(st.floats(min_value=0.01, max_value=1.0), tiny_weights)) for _ in masks[1:]]
    total = fsum(weights)
    return frame, MassFunction(frame, [(frame.from_mask(m), w / total) for m, w in zip(masks, weights)])


@given(mass_with_tiny_weights())
@settings(max_examples=20, deadline=None)
def test_tables_equal_the_element_loop_bit_for_bit(fm):
    frame, m = fm
    n = len(frame)
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


@given(mass_with_tiny_weights(max_atoms=64), st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
                                                      min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_scalar_laws_on_general_masses(fm, pairs):
    frame, m = fm
    full = (1 << len(frame)) - 1
    for a, b in pairs:
        # a chain A <= A | B of sampled subsets
        low, high = frame.from_mask(a & full), frame.from_mask((a | b) & full)
        bel, pl = m.belief(low), m.plausibility(low)
        # point queries lie in [0, 1] exactly, however the renormalized weights round
        assert 0.0 <= bel <= pl <= 1.0
        assert abs(pl - (1.0 - m.belief(low.complement()))) <= TOL
        assert bel <= m.belief(high) + TOL
        assert pl <= m.plausibility(high) + TOL


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


@given(mass_with_tiny_weights(max_atoms=64))
@settings(max_examples=30, deadline=None)
def test_membership_is_the_contour_at_every_point(fm):
    frame, m = fm
    values = contour(m).values
    for i, atom in enumerate(frame.atoms):
        assert membership_from_random_set(m, atom) == values[i]


@given(mass_with_tiny_weights(max_atoms=14), st.lists(st.integers(min_value=0), min_size=1, max_size=16))
@settings(max_examples=30, deadline=None)
def test_tables_equal_the_scalars(fm, masks):
    frame, m = fm
    full = (1 << len(frame)) - 1
    bel, pl = m.belief_table(), m.plausibility_table()
    for mask in masks + [0, full]:
        a = frame.from_mask(mask & full)
        assert abs(bel[a.mask] - m.belief(a)) <= TOL
        assert abs(pl[a.mask] - m.plausibility(a)) <= TOL


@given(st.integers(min_value=2, max_value=64).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=(1 << n) - 2))),
       st.one_of(st.floats(min_value=0.0, max_value=1.0), tiny_weights, st.sampled_from([nextafter(1.0, 0.0), 1.0])))
@settings(max_examples=60, deadline=None)
def test_bracket_holds_up_to_64_atoms(core, alpha):
    n, mask = core
    frame = Frame([f"w{i}" for i in range(n)])
    s = VagueStatement(frame.from_mask(mask), alpha)
    report = bracket_check(s)
    assert report.holds
    assert report.subsets_checked == 1 << n
    # least width 1 - Bel(core), first reached at the core or at the lowest atom outside it
    width = 1.0 - minspec_mass(s)[0].belief(s.core)
    outside = next(1 << i for i in range(n) if not mask >> i & 1)
    assert report.tightest_width == width
    assert report.tightest_subset.mask == (min(mask, outside) if width < 1.0 else 1)


class TestTableCache:
    def test_one_transform_per_mass(self, monkeypatch):
        calls, zeta = [], evidence._zeta

        def counting(n, seeds):
            calls.append(n)
            return zeta(n, seeds)

        monkeypatch.setattr(evidence, "_zeta", counting)
        m = random_mass(random.Random(5), Frame([f"w{i}" for i in range(6)]))
        bel = m.belief_table()
        m.plausibility_table()
        assert m.belief_table() == bel
        assert calls == [6]

    def test_mutating_a_returned_table_changes_nothing(self):
        m = random_mass(random.Random(6), Frame([f"w{i}" for i in range(5)]))
        bel, pl = m.belief_table(), m.plausibility_table()
        expected_bel, expected_pl = bel.copy(), pl.copy()
        bel[:] = [2.0] * len(bel)
        pl[3] = -1.0
        assert m.belief_table() == expected_bel
        assert m.plausibility_table() == expected_pl

    def test_equality_and_repr_ignore_the_table(self):
        frame = Frame([f"w{i}" for i in range(4)])
        used, fresh = (random_mass(random.Random(7), frame) for _ in range(2))
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


def test_transform_needs_little_memory_beyond_its_table():
    seeds = hard_mass(16)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = evidence._zeta(16, seeds)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(table) == 1 << 16
    assert peak <= 1.25 * kept
