from math import fsum

import pytest

from credal import (
    FuzzySet,
    MassFunction,
    NumericScale,
    ProbabilityDistribution,
    bayes_fuzzy_condition,
    fuzzy_event_probability,
    membership_from_random_set,
    possibilistic_condition,
)
from conftest import TOL


@pytest.fixture
def age() -> NumericScale:
    return NumericScale(20, 29)


@pytest.fixture
def young(age) -> FuzzySet:
    """Fully young through 24, fading linearly to 0 at 29."""
    return FuzzySet.from_breakpoints(age, [(20, 1.0), (24, 1.0), (29, 0.0)], name="young")


class TestNumericScale:
    def test_points_and_membership(self, age):
        assert list(age.points) == list(range(20, 30))
        assert len(age) == 10
        assert 29 in age
        assert 30 not in age

    def test_index(self, age):
        assert age.index(20) == 0
        assert age.index(29) == 9

    @pytest.mark.parametrize("point", [2.0, 2.5, float("nan"), "2"], ids=repr)
    def test_containment_agrees_with_the_points(self, point):
        scale = NumericScale(1, 3)
        assert (point in scale) == (point in scale.points)

    def test_largest_scale_and_forty_digit_bounds_build(self):
        # 40 digits are the most a message shows whole
        assert len(NumericScale(0, 63)) == 64
        nines = 10**40 - 1
        assert NumericScale(nines - 63, nines).frame.atoms[-1] == str(nines)

    def test_frame_atoms_are_point_labels(self, age):
        assert age.frame.atoms[0] == "20"
        assert age.frame.atoms[-1] == "29"


class TestFuzzySet:
    def test_breakpoint_interpolation(self, young):
        assert young.membership(20) == 1.0
        assert young.membership(24) == 1.0
        assert young.membership(29) == 0.0
        assert young.membership(25) == pytest.approx(0.8, abs=TOL)
        assert young.membership(27) == pytest.approx(0.4, abs=TOL)

    def test_flat_extension(self, age):
        f = FuzzySet.from_breakpoints(age, [(23, 0.5), (26, 1.0)])
        assert f.membership(20) == 0.5
        assert f.membership(29) == 1.0

    def test_clamping(self, age):
        f = FuzzySet.from_breakpoints(age, [(20, -0.5), (29, 1.5)])
        assert f.membership(20) == 0.0
        assert f.membership(29) == 1.0

    def test_as_possibility_round_trip(self, young):
        assert young.as_possibility().values == young.values
        assert young.is_normalized


class TestRandomSetView:
    def test_membership_equals_meaning_coverage(self, age, young):
        # rebuild "young" from its own level-cut meanings and read the grades back
        meaning = young.as_possibility().as_mass()
        for x in age.points:
            assert membership_from_random_set(meaning, x) == pytest.approx(
                young.membership(x), abs=TOL)

    def test_crisp_meaning_gives_indicator(self, age):
        crisp = MassFunction(age.frame, [(age.frame.subset(["22", "23"]), 1.0)])
        assert membership_from_random_set(crisp, 22) == 1.0
        assert membership_from_random_set(crisp, 24) == 0.0


class TestFuzzyEventProbability:
    def test_expectation(self, age, young):
        prior = ProbabilityDistribution.uniform(age.frame)
        expected = fsum(young.values) / 10.0
        assert fuzzy_event_probability(young, prior) == pytest.approx(expected, abs=TOL)

    def test_crisp_event_reduces_to_probability(self, age):
        crisp = FuzzySet(age, [1.0] * 5 + [0.0] * 5)
        prior = ProbabilityDistribution.uniform(age.frame)
        assert fuzzy_event_probability(crisp, prior) == pytest.approx(0.5, abs=TOL)


class TestPossibilisticConditioning:
    def test_pi_is_membership_verbatim(self, young):
        result = possibilistic_condition(young)
        assert result.pi.values == young.values

    def test_certainty_profile(self, age):
        # only the single fully-compatible point carries singleton weight
        f = FuzzySet.from_breakpoints(age, [(24, 0.0), (25, 1.0), (26, 0.0)])
        result = possibilistic_condition(f)
        weight = result.certainty[age.index(25)]
        assert weight > 0.0
        assert fsum(result.certainty) == pytest.approx(weight, abs=TOL)

    def test_plateau_has_no_certainty(self, young):
        # the top cut holds five points, so no singleton focal exists
        result = possibilistic_condition(young)
        assert result.certainty == (0.0,) * 10


class TestBayesFuzzyConditioning:
    def test_posterior_proportional_to_grade_times_prior(self, age, young):
        prior = ProbabilityDistribution.uniform(age.frame)
        post = bayes_fuzzy_condition(prior, young)
        raw = [mu * p for mu, p in zip(young.values, prior.values)]
        total = fsum(raw)
        for got, want in zip(post.values, raw):
            assert got == pytest.approx(want / total, abs=TOL)

    def test_crisp_indicator_reduces_to_bayes(self, age):
        crisp = FuzzySet(age, [1.0] * 4 + [0.0] * 6)
        prior = ProbabilityDistribution(age.frame, [0.05, 0.15, 0.2, 0.1] + [0.1] * 5 + [0.0])
        post = bayes_fuzzy_condition(prior, crisp)
        inside = 0.05 + 0.15 + 0.2 + 0.1
        assert post.values[0] == pytest.approx(0.05 / inside, abs=TOL)
        assert post.values[2] == pytest.approx(0.2 / inside, abs=TOL)
        assert all(v == 0.0 for v in post.values[4:])

    def test_idempotent_on_compatible_crisp_evidence(self, age):
        # conditioning on a crisp event that already has probability 1 is a no-op
        prior = ProbabilityDistribution(age.frame, [0.3, 0.7] + [0.0] * 8)
        f = FuzzySet(age, [1.0, 1.0] + [0.0] * 8)
        post = bayes_fuzzy_condition(prior, f)
        assert post.values == prior.values
