import random

import pytest

from credal import (
    Frame,
    MassFunction,
    PossibilityDistribution,
    consonant_approximate,
    contour,
    make_mass,
    make_possibility,
    pi_to_mass,
)
from conftest import TOL
from laws import frame_of, random_general_mass


@pytest.fixture
def ramp(w3) -> PossibilityDistribution:
    return make_possibility(w3, [1.0, 0.7, 0.3])


class TestConstruction:
    def test_normalization_flag(self, w3):
        assert make_possibility(w3, [1.0, 0.2, 0.0]).is_normalized
        assert not make_possibility(w3, [0.9, 0.2, 0.0]).is_normalized

    def test_normalize(self, w3):
        pi = make_possibility(w3, [0.5, 0.25, 0.0]).normalize()
        assert pi.values == (1.0, 0.5, 0.0)


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
            pi, _ = consonant_approximate(random_general_mass(rng, frame_of(rng.randint(2, 6))))
            assert "consonant" in pi_to_mass(pi).classify().labels

    def test_contour_caps_at_one(self, w3):
        # weights renormalized through division can overshoot by an ulp; the cap hides that
        weights = [0.1] * 10
        m = MassFunction(w3, [(w3.full, sum(weights))])
        assert contour(m).values == (1.0, 1.0, 1.0)
