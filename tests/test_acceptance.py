"""Acceptance gate: one test per promised behavior, with timing budgets.

Four entries draw seeded objects and check each one against every law of
its kind, as `laws.LAWS` states them; the laws live there alone. The other
three certify what no other test does: the max-entropy and min-specificity
closed forms against numeric oracles and sampled rivals, and conditioning
on crisp evidence. Each test prints a single line naming the behavior it certifies, its
measured runtime, and the budget it had to stay under. Run as

    pytest tests/test_acceptance.py -v -s

to see both pytest's verdict per criterion and the timing lines.
"""

import random
import time
from math import fsum

import numpy as np

import laws
from credal import (
    NumericScale,
    FuzzySet,
    ProbabilityDistribution,
    VagueStatement,
    bayes_fuzzy_condition,
    fuzzy_event_probability,
    make_possibility,
    maxent_distribution,
    minspec_mass,
)
from laws import frame_of, random_consonant_mass, random_general_mass, random_grades
from oracles import (
    maximize_entropy,
    sample_feasible_distributions,
    sample_feasible_mass_cardinalities,
    shannon_entropy,
)

ALPHA_GRID = [i / 10 for i in range(11)]


def certify(name: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"
    print(f"\nPASS {name} ({elapsed:.2f}s < {budget:.0f}s)")


def obey(obj, frame, probes: random.Random) -> None:
    """Check every law of `obj`'s kind, on the empty and full sets of `frame` and four subsets drawn from `probes`."""
    drawn = [frame.from_mask(probes.getrandbits(len(frame))) for _ in range(4)]
    laws.LAWS[type(obj)](obj, [frame.empty, frame.full, *drawn])


def test_levelcut_roundtrips():
    """Grades to masses and back bit for bit; masses to grades and back to 1e-12."""
    start = time.perf_counter()
    rng, probes = random.Random(101), random.Random("probes")
    for _ in range(1000):
        n = rng.randint(2, 16)
        frame = frame_of(n)
        obey(make_possibility(frame, random_grades(rng, n)), frame, probes)
    for _ in range(1000):
        frame = frame_of(rng.randint(2, 16))
        obey(random_consonant_mass(rng, frame), frame, probes)
    certify("level-cut round trips: 1000 exact, 1000 within 1e-12", start, 5.0)


def test_consonant_decomposability_and_limit_laws():
    """Nested evidence turns belief into min and plausibility into max, with the boundary laws."""
    start = time.perf_counter()
    rng, probes = random.Random(103), random.Random("probes")
    for _ in range(100):
        frame = frame_of(rng.randint(2, 10))
        m = random_consonant_mass(rng, frame)
        assert "consonant" in m.classify().labels  # which is what makes the mass laws check these
        obey(m, frame, probes)
    certify("consonant evidence: min/max decomposability and limit laws", start, 60.0)


def statement_grid():
    for n in (5, 10, 20):
        frame = frame_of(n)
        for k in range(1, n):
            core = frame.from_mask((1 << k) - 1)
            for alpha in ALPHA_GRID:
                yield n, k, alpha, VagueStatement(core, alpha)


def test_maxent_closed_form_vs_numeric_oracle():
    """The flattest committed distribution survives a fight with a numeric maximizer and 10^4 rivals."""
    start = time.perf_counter()
    np_rng = np.random.default_rng(109)
    for n, k, alpha, statement in statement_grid():
        ours = np.array(maxent_distribution(statement).values)
        ref = maximize_entropy(n, range(k), alpha)
        assert np.max(np.abs(ours - ref)) <= 1e-6

        samples = sample_feasible_distributions(n, range(k), alpha, 10_000, np_rng)
        assert shannon_entropy(ours) >= np.max(shannon_entropy(samples)) - 1e-9
    certify("max-entropy closed form: matches the oracle, dominates sampled rivals", start, 120.0)


def test_minspec_expected_cardinality_vs_sampled_masses():
    """The least committed random set is lazier than 10^4 sampled competitors on every statement."""
    start = time.perf_counter()
    np_rng = np.random.default_rng(113)
    for n, k, alpha, statement in statement_grid():
        mass, _ = minspec_mass(statement)
        ours = mass.expected_cardinality()
        rivals = sample_feasible_mass_cardinalities(n, k, alpha, 10_000, np_rng)
        assert ours >= np.max(rivals) - 1e-9
    certify("min-specificity mass: maximal expected cardinality vs sampled masses", start, 120.0)


def test_probability_bracket_exhaustive():
    """Both readings of a statement agree: the flattest distribution sits inside the envelope, every subset."""
    start = time.perf_counter()
    rng, probes = random.Random(127), random.Random("probes")
    checked = 0
    for n in range(2, 13):
        frame = frame_of(n)
        for alpha in ALPHA_GRID:
            cores = [frame.from_mask((1 << k) - 1) for k in range(1, n)]
            cores += [frame.from_mask(rng.randint(1, (1 << n) - 2)) for _ in range(3)]
            for core in cores:
                obey(VagueStatement(core, alpha), frame, probes)
                checked += 1 << n
    certify(f"belief/plausibility bracket: zero violations over {checked} subsets", start, 120.0)


def test_conditioning_reductions():
    """Conditioning on a crisp predicate collapses to textbook conditioning, and its
    event probability is the plain probability of the set, exactly."""
    start = time.perf_counter()
    rng = random.Random(131)
    for _ in range(1000):
        n = rng.randint(2, 15)
        scale = NumericScale(0, n - 1)
        weights = [rng.random() + 0.01 for _ in range(n)]
        total = fsum(weights)
        prior = ProbabilityDistribution(scale.frame, [w / total for w in weights])

        core_mask = rng.randint(1, (1 << n) - 1)
        core = scale.frame.from_mask(core_mask)
        indicator = FuzzySet(scale, [float(core_mask >> i & 1) for i in range(n)])

        event = fuzzy_event_probability(indicator, prior)
        assert event == prior.probability_of(core)  # exactly

        posterior = bayes_fuzzy_condition(prior, indicator)
        for i in range(n):
            crisp = prior.values[i] / event if core_mask >> i & 1 else 0.0
            assert abs(posterior.values[i] - crisp) <= 1e-12
        assert abs(fsum(posterior.values) - 1.0) <= 1e-12
    certify("crisp-evidence conditioning reductions: 1000 priors", start, 5.0)


def test_duality_monotonicity_suite():
    """Belief and plausibility stay dual, ordered, and monotone; probabilities collapse the gap."""
    start = time.perf_counter()
    rng, probes = random.Random(137), random.Random("probes")
    for trial in range(1000):
        n = rng.randint(1, 10)
        frame = frame_of(n)
        if trial % 5 == 0:
            weights = [rng.random() + 0.01 for _ in range(n)]
            total = fsum(weights)
            p = ProbabilityDistribution(frame, [w / total for w in weights])
            obey(p, frame, probes)
            m = p.as_mass()
        else:
            m = random_general_mass(rng, frame)
        obey(m, frame, probes)
    certify("duality, ordering, monotonicity, Bayesian collapse: 1000 masses", start, 60.0)
