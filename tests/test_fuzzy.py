from math import fsum, isfinite

import pytest

from credal import (
    ConditioningError,
    FrameMismatchError,
    FuzzySet,
    MassFunction,
    NormalizationError,
    NumericScale,
    ProbabilityDistribution,
    ValidationError,
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
        with pytest.raises(ValidationError, match="outside scale"):
            age.index(19)

    @pytest.mark.parametrize("point", [2.0, 2.5, float("nan"), "2"], ids=repr)
    def test_points_are_integers(self, point):
        young = FuzzySet(NumericScale(1, 3), [1.0, 0.5, 0.0], name="y")
        assert (point in young.scale) == (point in young.scale.points)
        with pytest.raises(ValidationError, match=f"scale point {point!r} is not an integer"):
            young.membership(point)
        with pytest.raises(ValidationError, match="is not an integer"):
            young.scale.index(point)

    @pytest.mark.parametrize("lower,upper,bad", [(1.5, 3, "1.5"), ("1", "3", "'1'")])
    def test_bounds_are_integers(self, lower, upper, bad):
        with pytest.raises(ValidationError, match=f"scale bound {bad} is not an integer"):
            NumericScale(lower, upper)

    def test_bounds_order(self):
        with pytest.raises(ValidationError, match="out of order"):
            NumericScale(5, 4)

    def test_size_cap(self):
        NumericScale(0, 63)
        with pytest.raises(ValidationError, match="more than 64"):
            NumericScale(0, 64)

    def test_frame_atoms_are_point_labels(self, age):
        assert age.frame.atoms[0] == "20"
        assert age.frame.atoms[-1] == "29"

    BIG = "10000000...00000000 (5001 digits)"

    @pytest.mark.parametrize("lower,upper,message", [
        (10**5000, 1, f"scale bounds out of order: {BIG}..1"),
        (1, 10**5000, f"scale 1..{BIG} has more than 64 points"),
        (10**5000, 10**5000 + 1, f"scale {BIG}..10000000...00000001 (5001 digits) has points too long to label"),
        (-10**41, 10**40, "scale -10000000...00000000 (42 digits)..10000000...00000000 (41 digits) "
                          "has more than 64 points"),
    ], ids=["out_of_order", "too_many_points", "too_long_to_label", "negative"])
    def test_huge_bounds_are_abbreviated(self, lower, upper, message):
        with pytest.raises(ValidationError) as info:
            NumericScale(lower, upper)
        assert str(info.value) == message

    def test_huge_point_is_abbreviated(self, young):
        with pytest.raises(ValidationError) as info:
            young.membership(10**5000)
        assert str(info.value) == f"point {self.BIG} outside scale 20..29"

    def test_forty_digits_are_shown_whole(self):
        nines = 10**40 - 1
        NumericScale(nines - 63, nines)
        with pytest.raises(ValidationError) as info:
            NumericScale(nines, nines - 1)
        assert str(info.value) == f"scale bounds out of order: {nines}..{nines - 1}"


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

    def test_breakpoints_must_increase(self, age):
        with pytest.raises(ValidationError, match="increase"):
            FuzzySet.from_breakpoints(age, [(24, 1.0), (24, 0.5)])

    @pytest.mark.parametrize("grade", [float("nan"), float("inf"), float("-inf")])
    def test_breakpoint_grades_must_be_finite(self, age, grade):
        with pytest.raises(ValidationError, match=f"non-finite breakpoint grade {grade!r}"):
            FuzzySet.from_breakpoints(age, [(20, 1.0), (24, grade), (29, 0.0)])

    @pytest.mark.parametrize("breakpoints", [
        [(float("nan"), 1.0), (25, 0.0)],
        [(20, 1.0), (float("inf"), 0.0)],
        [(float("-inf"), 1.0), (25, 0.0)],
    ])
    def test_breakpoint_positions_must_be_finite(self, age, breakpoints):
        x = next(x for x, _ in breakpoints if not isfinite(x))
        with pytest.raises(ValidationError, match=f"non-finite breakpoint position {x!r}"):
            FuzzySet.from_breakpoints(age, breakpoints)

    def test_breakpoints_required(self, age):
        with pytest.raises(ValidationError, match="breakpoint"):
            FuzzySet.from_breakpoints(age, [])

    def test_value_validation(self, age):
        with pytest.raises(ValidationError, match="expected 10"):
            FuzzySet(age, [1.0] * 9)
        with pytest.raises(ValidationError, match="outside"):
            FuzzySet(age, [1.0] * 9 + [1.5])

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

    def test_frame_mismatch(self, young):
        other = NumericScale(0, 9)
        with pytest.raises(FrameMismatchError):
            fuzzy_event_probability(young, ProbabilityDistribution.uniform(other.frame))


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

    def test_subnormal_refused(self, age):
        f = FuzzySet(age, [0.5] * 10, name="half")
        with pytest.raises(NormalizationError, match="subnormal"):
            possibilistic_condition(f)


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

    def test_null_event_refused(self, age):
        f = FuzzySet(age, [1.0] + [0.0] * 9)
        prior = ProbabilityDistribution(age.frame, [0.0, 0.5, 0.5] + [0.0] * 7)
        with pytest.raises(ConditioningError, match="probability"):
            bayes_fuzzy_condition(prior, f)

    def test_idempotent_on_compatible_crisp_evidence(self, age):
        # conditioning on a crisp event that already has probability 1 is a no-op
        prior = ProbabilityDistribution(age.frame, [0.3, 0.7] + [0.0] * 8)
        f = FuzzySet(age, [1.0, 1.0] + [0.0] * 8)
        post = bayes_fuzzy_condition(prior, f)
        assert post.values == prior.values
