import random
from math import fsum

import numpy as np
import pytest

from credal import elicit
from credal import (
    Frame,
    MassFunction,
    ValidationError,
    VagueStatement,
    bracket_check,
    contour,
    maxent_distribution,
    minspec_mass,
    pi_to_mass,
)
from oracles import maximize_entropy, shannon_entropy

TOL = 1e-12


@pytest.fixture
def w10() -> Frame:
    return Frame([f"w{i}" for i in range(10)])


@pytest.fixture
def probably_low(w10) -> VagueStatement:
    """'Probably one of the first three outcomes', confidence 0.8."""
    return VagueStatement(w10.subset(["w0", "w1", "w2"]), 0.8)


class TestVagueStatement:
    def test_empty_core_rejected(self, w10):
        with pytest.raises(ValidationError, match="contradiction"):
            VagueStatement(w10.empty, 0.5)

    def test_full_core_rejected(self, w10):
        with pytest.raises(ValidationError, match="no information"):
            VagueStatement(w10.full, 0.5)

    def test_alpha_bounds(self, w10):
        core = w10.singleton("w0")
        with pytest.raises(ValidationError, match="outside"):
            VagueStatement(core, 1.2)
        with pytest.raises(ValidationError, match="outside"):
            VagueStatement(core, -0.1)
        VagueStatement(core, 0.0)
        VagueStatement(core, 1.0)


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

    def test_bound_is_met(self, w10):
        rng = random.Random(61)
        for _ in range(200):
            k = rng.randint(1, 9)
            core = w10.subset([f"w{i}" for i in range(k)])
            alpha = rng.random()
            s = VagueStatement(core, alpha)
            p = maxent_distribution(s)
            assert p.probability_of(core) >= alpha - TOL
            assert fsum(p.values) == pytest.approx(1.0, abs=TOL)

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

    def test_belief_of_core_is_alpha(self, w10):
        rng = random.Random(67)
        for _ in range(200):
            core = w10.subset([f"w{i}" for i in range(rng.randint(1, 9))])
            alpha = rng.random()
            mass, _ = minspec_mass(VagueStatement(core, alpha))
            assert mass.belief(core) == pytest.approx(alpha, abs=TOL)

    def test_pi_is_one_on_core_and_complement_elsewhere(self, probably_low):
        _, pi = minspec_mass(probably_low)
        assert pi.values[:3] == (1.0, 1.0, 1.0)
        assert all(v == pytest.approx(0.2, abs=TOL) for v in pi.values[3:])

    def test_mass_and_pi_are_the_same_object_in_two_dresses(self, w10):
        # the decomposition of the returned pi reproduces the returned mass
        # bitwise, including awkward alphas with inexact complements
        rng = random.Random(71)
        for _ in range(300):
            core = w10.subset([f"w{i}" for i in range(rng.randint(1, 9))])
            alpha = rng.choice([0.0, 1.0, 0.3, rng.random()])
            mass, pi = minspec_mass(VagueStatement(core, alpha))
            assert pi_to_mass(pi) == mass
            assert contour(mass).values == pi.values

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

    def test_holds_across_random_statements(self):
        rng = random.Random(79)
        for _ in range(50):
            n = rng.randint(2, 8)
            frame = Frame([f"w{i}" for i in range(n)])
            core_mask = rng.randint(1, (1 << n) - 2)
            s = VagueStatement(frame.from_mask(core_mask), rng.random())
            assert bracket_check(s).holds

    def test_frame_size_cap(self):
        frame = Frame([f"w{i}" for i in range(21)])
        s = VagueStatement(frame.singleton("w0"), 0.5)
        with pytest.raises(ValidationError, match="capped"):
            bracket_check(s)
        bracket_check(s, max_frame_size=21)

    def test_list_and_numpy_paths_agree_bit_for_bit(self, monkeypatch):
        # the samples print max violations such as 2.22045e-16, so rounding shows
        rng = random.Random(89)
        for n in range(2, 14):
            frame = Frame([f"w{i}" for i in range(n)])
            for alpha in [0.0, 1e-17, 0.5, 0.8, 0.999999, 1.0] * 3:
                s = VagueStatement(frame.from_mask(rng.randint(1, (1 << n) - 2)), alpha)
                reports = []
                for limit in (64, 0):  # every frame on plain lists, then every frame on numpy
                    monkeypatch.setattr(elicit, "_PURE_CHECK_MAX_ATOMS", limit)
                    reports.append(bracket_check(s))
                lists, arrays = reports
                where = (n, alpha, s.core.mask)
                assert lists.holds == arrays.holds, where
                assert lists.subsets_checked == arrays.subsets_checked, where
                assert lists.tightest_subset.mask == arrays.tightest_subset.mask, where
                assert lists.max_violation.hex() == arrays.max_violation.hex(), where
                assert lists.tightest_width.hex() == arrays.tightest_width.hex(), where

    def test_tables_agree_with_pointwise_measures(self, w10):
        # the subset-sum machinery must agree with the direct definitions
        s = VagueStatement(w10.subset(["w1", "w5"]), 0.6)
        p = maxent_distribution(s)
        mass, _ = minspec_mass(s)
        rng = random.Random(83)
        for _ in range(50):
            a = w10.from_mask(rng.randint(0, (1 << 10) - 1))
            assert mass.belief(a) <= p.probability_of(a) + 1e-9
            assert p.probability_of(a) <= mass.plausibility(a) + 1e-9
