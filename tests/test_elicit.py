import random
from math import nextafter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from credal import (
    Frame,
    MassFunction,
    VagueStatement,
    bracket_check,
    maxent_distribution,
    minspec_mass,
)
from conftest import TOL
from laws import frame_of
from oracles import exhaustive_bracket, maximize_entropy, shannon_entropy

# confidences where rounding shows: zero, the least subnormal, one that vanishes next to 1, thirds
ADVERSARIAL_ALPHAS = [0.0, 5e-324, 1e-17, 0.1, 1 / 3, 0.5, 0.7, 0.8, 0.999999, 1.0]


def report_fields(report):
    """A bracket report's five fields, floats by `float.hex`, the subset by mask."""
    return (report.holds, report.subsets_checked, report.max_violation.hex(),
            report.tightest_width.hex(), report.tightest_subset.mask)


def oracle_fields(s: VagueStatement):
    """The same fields from the exhaustive scan over the statement's powerset tables."""
    mass, _ = minspec_mass(s)
    holds, checked, violation, width, mask = exhaustive_bracket(
        len(s.core.frame), maxent_distribution(s).values,
        {subset.mask: w for subset, w in mass.focal_elements()})
    return holds, checked, violation.hex(), width.hex(), mask


@pytest.fixture
def w10() -> Frame:
    return frame_of(10)


@pytest.fixture
def probably_low(w10) -> VagueStatement:
    """'Probably one of the first three outcomes', confidence 0.8."""
    return VagueStatement(w10.subset(["w0", "w1", "w2"]), 0.8)


class TestMaxent:
    def test_binding_bound_splits_evenly(self, probably_low):
        p = maxent_distribution(probably_low)
        for i, v in enumerate(p.values):
            want = 0.8 / 3 if i < 3 else 0.2 / 7
            assert v == pytest.approx(want, abs=TOL)

    def test_loose_bound_gives_uniform(self, w10):
        s = VagueStatement(w10.subset([f"w{i}" for i in range(5)]), 0.3)
        assert maxent_distribution(s).values == (0.1,) * 10

    def test_boundary_alpha_equals_share_gives_uniform(self, w10):
        s = VagueStatement(w10.subset([f"w{i}" for i in range(5)]), 0.5)
        assert maxent_distribution(s).values == (0.1,) * 10

    def test_certainty_empties_the_complement(self, w10):
        s = VagueStatement(w10.subset(["w0", "w1"]), 1.0)
        p = maxent_distribution(s)
        assert p.values[:2] == (0.5, 0.5)
        assert p.values[2:] == (0.0,) * 8

    def test_matches_numeric_maximizer(self, w10):
        # small spot check; the acceptance suite runs the full grid
        for k, alpha in [(3, 0.8), (1, 0.95), (7, 0.5), (4, 0.4)]:
            s = VagueStatement(w10.subset([f"w{i}" for i in range(k)]), alpha)
            ours = np.array(maxent_distribution(s).values)
            ref = maximize_entropy(10, range(k), alpha)
            assert np.max(np.abs(ours - ref)) < 1e-6
            assert shannon_entropy(ours) >= shannon_entropy(ref) - 1e-9


class TestMinspec:
    def test_two_focal_structure(self, probably_low, w10):
        mass, _ = minspec_mass(probably_low)
        assert mass.weight_of(probably_low.core) == pytest.approx(0.8, abs=TOL)
        assert mass.weight_of(w10.full) == pytest.approx(0.2, abs=TOL)
        assert len(mass) == 2

    def test_pi_is_one_on_core_and_complement_elsewhere(self, probably_low):
        _, pi = minspec_mass(probably_low)
        assert pi.values[:3] == (1.0, 1.0, 1.0)
        assert all(v == pytest.approx(0.2, abs=TOL) for v in pi.values[3:])

    @given(st.integers(min_value=2, max_value=64).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=(1 << n) - 2))),
           st.one_of(st.sampled_from(ADVERSARIAL_ALPHAS + [nextafter(0.0, 1.0), 2.2250738585072014e-308,
                                                           nextafter(1.0, 0.0)]),
                     st.floats(min_value=0.0, max_value=1.0),
                     st.floats(min_value=0.0, max_value=2.2250738585072014e-308)),
           st.lists(st.integers(min_value=0), max_size=6))
    @settings(max_examples=60)
    def test_closed_form_up_to_64_atoms(self, core, alpha, masks):
        n, mask = core
        frame = frame_of(n)
        mass, pi = minspec_mass(VagueStatement(frame.from_mask(mask), alpha))
        # the closed form: 1 - alpha rounded once, the core keeping what it leaves of 1
        rest = 1.0 - alpha
        expected = {}
        if 1.0 - rest > 0.0:
            expected[mask] = (1.0 - rest).hex()
        if rest > 0.0:
            expected[frame.full.mask] = rest.hex()
        assert {s.mask: w.hex() for s, w in mass.focal_elements()} == expected
        assert pi.values == tuple(1.0 if mask >> i & 1 else rest for i in range(n))
        assert pi.as_mass() == mass
        for a in [frame.empty, frame.full] + [frame.from_mask(m & frame.full.mask) for m in masks]:
            assert pi.necessity_of(a).hex() == (1.0 - pi.possibility_of(~a)).hex()

    def test_alpha_zero_is_vacuous(self, w10):
        mass, pi = minspec_mass(VagueStatement(w10.singleton("w0"), 0.0))
        assert len(mass) == 1
        assert mass.weight_of(w10.full) == 1.0
        assert pi.values == (1.0,) * 10

    def test_alpha_one_is_categorical(self, probably_low, w10):
        mass, pi = minspec_mass(VagueStatement(probably_low.core, 1.0))
        assert len(mass) == 1
        assert mass.weight_of(probably_low.core) == 1.0
        assert pi.values[3:] == (0.0,) * 7

    def test_result_is_consonant(self, probably_low):
        mass, _ = minspec_mass(probably_low)
        assert "consonant" in mass.classify().labels

    def test_maximizes_expected_cardinality(self, w10):
        # any other mass with Bel(core) >= alpha commits to smaller sets on average
        rng = random.Random(73)
        core = w10.subset(["w0", "w1", "w2"])
        s = VagueStatement(core, 0.8)
        mass, _ = minspec_mass(s)
        best = mass.expected_cardinality()
        assert best == pytest.approx(0.8 * 3 + 0.2 * 10, abs=TOL)
        submasks = [m for m in range(1, 1 << 10) if m & ~core.mask == 0]
        others = [m for m in range(1, 1 << 10) if m & ~core.mask]
        for _ in range(200):
            inside = [(w10.from_mask(m), 0.8 / 2) for m in rng.sample(submasks, 2)]
            outside = [(w10.from_mask(m), 0.2 / 2) for m in rng.sample(others, 2)]
            rival = MassFunction(w10, inside + outside)
            assert rival.belief(core) >= 0.8 - TOL
            assert rival.expected_cardinality() <= best + TOL


class TestBracket:
    def test_reported_shape(self, probably_low):
        report = bracket_check(probably_low)
        assert report.holds
        assert report.subsets_checked == 1 << 10
        assert report.max_violation <= 1e-9

    def test_tightest_at_the_core(self, probably_low):
        # bel(core) = alpha and pl(core) = 1, so the width there is 1 - alpha;
        # every other contingent subset is slacker
        report = bracket_check(probably_low)
        assert report.tightest_subset.mask == probably_low.core.mask
        assert report.tightest_width == pytest.approx(0.2, abs=TOL)

    @pytest.mark.parametrize("n", [21, 64])
    def test_frames_beyond_the_table_cap_are_checked(self, n):
        frame = frame_of(n)
        report = bracket_check(VagueStatement(frame.from_mask(0b101), 0.5))
        assert report.subsets_checked == 1 << n
        assert report.holds
        assert report.tightest_subset.mask == 0b010

    def test_matches_the_exhaustive_oracle_bit_for_bit(self):
        # the samples print max violations such as 2.22045e-16, so rounding shows
        rng = random.Random(89)
        for n in range(2, 14):
            frame = frame_of(n)
            for alpha in [0.0, 1e-17, 0.5, 0.8, 0.999999, 1.0] * 3:
                s = VagueStatement(frame.from_mask(rng.randint(1, (1 << n) - 2)), alpha)
                assert report_fields(bracket_check(s)) == oracle_fields(s), (n, alpha, s.core.mask)

    @given(st.integers(min_value=2, max_value=16).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=(1 << n) - 2))),
           st.one_of(st.sampled_from(ADVERSARIAL_ALPHAS), st.floats(min_value=0.0, max_value=1.0)))
    @settings(max_examples=60)
    def test_matches_the_exhaustive_oracle_on_drawn_statements(self, core, alpha):
        n, mask = core
        s = VagueStatement(frame_of(n).from_mask(mask), alpha)
        assert report_fields(bracket_check(s)) == oracle_fields(s)
