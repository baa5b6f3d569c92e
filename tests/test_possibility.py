import random

import pytest
from hypothesis import given, settings, strategies as st

from credal import (
    Frame,
    MassFunction,
    NormalizationError,
    PossibilityDistribution,
    ValidationError,
    consonant_approximate,
    contour,
    make_mass,
    make_possibility,
    pi_to_mass,
)

TOL = 1e-12


@pytest.fixture
def w3() -> Frame:
    return Frame(["w1", "w2", "w3"])


@pytest.fixture
def ramp(w3) -> PossibilityDistribution:
    return make_possibility(w3, [1.0, 0.7, 0.3])


def random_grades(rng: random.Random, n: int) -> list[float]:
    """Normalized grades on the binary64 lattice (random() yields multiples of 2**-53)."""
    values = [rng.random() for _ in range(n)]
    values[rng.randrange(n)] = 1.0
    return values


def random_consonant_mass(rng: random.Random, frame: Frame) -> MassFunction:
    n = len(frame)
    order = rng.sample(range(n), n)
    depth = rng.randint(1, n)
    mask = 0
    chain = []
    for i in order[:depth]:
        mask |= 1 << i
        chain.append(mask)
    picks = sorted(rng.sample(chain, rng.randint(1, depth)))
    weights = [rng.random() + 0.05 for _ in picks]
    total = sum(weights)
    return MassFunction(frame, [(frame.from_mask(m), w / total) for m, w in zip(picks, weights)])


class TestConstruction:
    def test_length_check(self, w3):
        with pytest.raises(ValidationError, match="expected 3"):
            make_possibility(w3, [1.0, 0.5])

    def test_bound_check(self, w3):
        with pytest.raises(ValidationError, match="outside"):
            make_possibility(w3, [1.0, 0.5, 1.2])
        with pytest.raises(ValidationError, match="outside"):
            make_possibility(w3, [1.0, -0.1, 0.5])

    def test_normalization_flag(self, w3):
        assert make_possibility(w3, [1.0, 0.2, 0.0]).is_normalized
        assert not make_possibility(w3, [0.9, 0.2, 0.0]).is_normalized

    def test_normalize(self, w3):
        pi = make_possibility(w3, [0.5, 0.25, 0.0]).normalize()
        assert pi.values == (1.0, 0.5, 0.0)

    def test_normalize_rejects_all_zero(self, w3):
        with pytest.raises(NormalizationError, match="all-zero"):
            make_possibility(w3, [0.0, 0.0, 0.0]).normalize()


class TestMeasures:
    def test_possibility_is_max_over_atoms(self, ramp, w3):
        assert ramp.possibility_of(w3.subset(["w2", "w3"])) == 0.7
        assert ramp.possibility_of(w3.singleton("w3")) == 0.3

    def test_necessity_is_dual(self, ramp, w3):
        for a in w3.all_subsets():
            assert ramp.necessity_of(a) == pytest.approx(
                1.0 - ramp.possibility_of(a.complement()), abs=TOL)

    def test_limits(self, ramp, w3):
        assert ramp.possibility_of(w3.empty) == 0.0
        assert ramp.possibility_of(w3.full) == 1.0
        assert ramp.necessity_of(w3.empty) == 0.0
        assert ramp.necessity_of(w3.full) == 1.0

    def test_necessity_positive_only_with_full_possibility(self, w3):
        # a proposition must be fully possible before it can be somewhat necessary
        rng = random.Random(7)
        for _ in range(200):
            pi = make_possibility(w3, random_grades(rng, 3))
            for a in w3.all_subsets():
                if pi.necessity_of(a) > TOL:
                    assert pi.possibility_of(a) == 1.0

    def test_union_is_max_decomposable(self):
        frame = Frame([f"w{i}" for i in range(5)])
        rng = random.Random(19)
        pi = make_possibility(frame, random_grades(rng, 5))
        for a in frame.all_subsets():
            for b in frame.all_subsets():
                assert pi.possibility_of(a | b) == max(
                    pi.possibility_of(a), pi.possibility_of(b))

    def test_intersection_bound_can_be_strict(self, w3):
        # the min bound on intersections is an inequality, not an identity
        pi = make_possibility(w3, [1.0, 1.0, 0.0])
        a = w3.singleton("w1")
        b = w3.singleton("w2")
        bound = min(pi.possibility_of(a), pi.possibility_of(b))
        assert pi.possibility_of(a & b) == 0.0
        assert bound == 1.0


class TestLevelCuts:
    def test_distinct_levels_descending(self, w3):
        pi = make_possibility(w3, [0.3, 1.0, 0.3])
        cuts = pi.level_cuts()
        assert [level for level, _ in cuts] == [1.0, 0.3]
        assert [cut.mask for _, cut in cuts] == [0b010, 0b111]

    def test_cuts_are_nested(self):
        frame = Frame([f"w{i}" for i in range(8)])
        rng = random.Random(3)
        for _ in range(50):
            pi = make_possibility(frame, random_grades(rng, 8))
            cuts = pi.level_cuts()
            for (_, small), (_, big) in zip(cuts, cuts[1:]):
                assert small.entails(big)

    def test_zero_grades_never_appear(self, w3):
        pi = make_possibility(w3, [1.0, 0.0, 0.0])
        assert pi.level_cuts() == [(1.0, w3.singleton("w1"))]


class TestDecomposition:
    def test_worked_staircase(self, ramp, w3):
        m = ramp.as_mass()
        assert m.weight_of(w3.singleton("w1")) == pytest.approx(0.3, abs=TOL)
        assert m.weight_of(w3.subset(["w1", "w2"])) == pytest.approx(0.4, abs=TOL)
        assert m.weight_of(w3.full) == pytest.approx(0.3, abs=TOL)

    def test_result_is_consonant(self, ramp):
        assert "consonant" in ramp.as_mass().classify().labels

    def test_subnormal_input_refused(self, w3):
        with pytest.raises(NormalizationError, match="normalize"):
            make_possibility(w3, [0.9, 0.5, 0.1]).as_mass()

    def test_contour_inverts_decomposition_exactly(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 10)
            frame = Frame([f"w{i}" for i in range(n)])
            pi = make_possibility(frame, random_grades(rng, n))
            assert contour(pi_to_mass(pi)).values == pi.values

    def test_decomposition_inverts_contour_on_consonant_masses(self):
        rng = random.Random(43)
        for _ in range(300):
            frame = Frame([f"w{i}" for i in range(rng.randint(1, 10))])
            m = random_consonant_mass(rng, frame)
            back = pi_to_mass(contour(m))
            focals = dict(m.focal_elements())
            back_focals = dict(back.focal_elements())
            assert set(back_focals) == set(focals)
            for s, w in focals.items():
                assert back_focals[s] == pytest.approx(w, abs=TOL)

    def test_dirac_round_trip(self, w3):
        pi = make_possibility(w3, [0.0, 1.0, 0.0])
        m = pi_to_mass(pi)
        assert len(m) == 1
        assert m.weight_of(w3.singleton("w2")) == 1.0
        assert contour(m).values == pi.values


class TestConsonantApproximation:
    def test_exact_on_consonant_input(self, ramp):
        pi, report = consonant_approximate(ramp.as_mass())
        assert pi.values == (1.0, 0.7, 0.3)
        assert report.consistent
        assert report.subnormalization == 1.0

    def test_disjoint_split_is_flagged(self):
        frame = Frame(["a", "b", "c"])
        m = make_mass(frame, [(frame.singleton("a"), 0.5), (frame.singleton("c"), 0.5)])
        pi, report = consonant_approximate(m)
        assert not report.consistent
        assert report.subnormalization == pytest.approx(0.5, abs=TOL)
        assert pi.values == (1.0, 0.0, 1.0)

    def test_overlapping_conflict(self, w3):
        m = make_mass(w3, [
            (w3.subset(["w1", "w2"]), 0.6),
            (w3.subset(["w2", "w3"]), 0.4),
        ])
        pi, report = consonant_approximate(m)
        assert report.consistent
        assert pi.values == (0.6, 1.0, 0.4)

    def test_approximation_is_consonant(self):
        rng = random.Random(59)
        for _ in range(100):
            n = rng.randint(2, 6)
            frame = Frame([f"w{i}" for i in range(n)])
            count = rng.randint(1, 5)
            masks = rng.sample(range(1, 1 << n), min(count, (1 << n) - 1))
            weights = [rng.random() + 0.05 for _ in masks]
            total = sum(weights)
            m = MassFunction(frame, [(frame.from_mask(k), w / total) for k, w in zip(masks, weights)])
            pi, _ = consonant_approximate(m)
            assert "consonant" in pi_to_mass(pi).classify().labels

    def test_contour_caps_at_one(self, w3):
        # weights renormalized through division can overshoot by an ulp; the cap hides that
        weights = [0.1] * 10
        m = MassFunction(w3, [(w3.full, sum(weights))])
        assert contour(m).values == (1.0, 1.0, 1.0)


# grades at the edges of binary64: 1e-300, subnormals down to the smallest, 1 ulp below 1
EXTREME_GRADES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-17, 1.0 - 2**-53, 1.0]


@st.composite
def normalized_pi(draw) -> PossibilityDistribution:
    """A normalized distribution over 1-64 atoms whose grades come from a small pool,
    so several atoms share a grade and level cuts nest with equal grades."""
    n = draw(st.integers(min_value=1, max_value=64))
    pool = draw(st.lists(st.one_of(st.sampled_from(EXTREME_GRADES), st.floats(0.0, 1.0)),
                         min_size=1, max_size=6))
    grades = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    grades[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    return PossibilityDistribution(Frame([f"a{i}" for i in range(n)]), grades)


def subsets(frame: Frame):
    return st.integers(min_value=0, max_value=(1 << len(frame)) - 1).map(frame.from_mask)


class TestConsonantLaws:
    """The paper's consonant laws over the whole 1-64-atom range, on extreme grades."""

    @given(normalized_pi())
    @settings(max_examples=30, deadline=None)
    def test_pi_to_mass_to_contour_round_trip(self, pi):
        mass = pi.as_mass()
        assert "consonant" in mass.classify().labels
        for back, grade in zip(contour(mass).values, pi.values):
            assert abs(back - grade) <= TOL

    @given(normalized_pi(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_necessity_is_dual_to_possibility(self, pi, data):
        mass = pi.as_mass()
        for a in data.draw(st.lists(subsets(pi.frame), min_size=1, max_size=6)):
            assert pi.necessity_of(a).hex() == (1.0 - pi.possibility_of(a.complement())).hex()
            # the level-cut mass measures every subset as the distribution does
            assert abs(mass.plausibility(a) - pi.possibility_of(a)) <= TOL
            assert abs(mass.belief(a) - pi.necessity_of(a)) <= TOL

    @given(normalized_pi(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_possibility_max_and_necessity_min_decomposable(self, pi, data):
        mass = pi.as_mass()
        for a, b in data.draw(st.lists(st.tuples(subsets(pi.frame), subsets(pi.frame)),
                                       min_size=1, max_size=6)):
            assert abs(pi.possibility_of(a | b) - max(pi.possibility_of(a), pi.possibility_of(b))) <= TOL
            assert abs(pi.necessity_of(a & b) - min(pi.necessity_of(a), pi.necessity_of(b))) <= TOL
            assert abs(mass.plausibility(a | b) - max(mass.plausibility(a), mass.plausibility(b))) <= TOL
            assert abs(mass.belief(a & b) - min(mass.belief(a), mass.belief(b))) <= TOL
