"""Acceptance gate: one test per promised behavior, with timing budgets.

Each test prints a single line naming the behavior it certifies, its
measured runtime, and the budget it had to stay under. Run as

    pytest tests/test_acceptance.py -v -s

to see both pytest's verdict per criterion and the timing lines.
"""

import random
import time
from math import fsum

import numpy as np

from credal import (
    Frame,
    MassFunction,
    NumericScale,
    FuzzySet,
    ProbabilityDistribution,
    VagueStatement,
    bayes_fuzzy_condition,
    bracket_check,
    contour,
    fuzzy_event_probability,
    make_possibility,
    maxent_distribution,
    minspec_mass,
    pi_to_mass,
)
from cli_runner import credal
from laws import frame_of, random_consonant_mass, random_general_mass, random_grades
from oracles import (
    maximize_entropy,
    sample_feasible_distributions,
    sample_feasible_mass_cardinalities,
    shannon_entropy,
)

ALPHA_GRID = [i / 10 for i in range(11)]


def certify(name: str, start: float | None = None, budget: float | None = None) -> None:
    if start is None:
        print(f"\nPASS {name}")
        return
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"
    print(f"\nPASS {name} ({elapsed:.2f}s < {budget:.0f}s)")


def test_three_outcome_paradox_exact():
    """A two-way bet leaves no room for the third outcome, and saying nothing leaves it wide open."""
    start = time.perf_counter()
    frame = Frame(["a", "nab", "nb"])
    middle = frame.singleton("nab")

    book = ProbabilityDistribution(frame, [0.5, 0.0, 0.5]).as_mass()
    assert book.belief(middle) == 0.0
    assert book.plausibility(middle) == 0.0

    silence = MassFunction.vacuous(frame)
    assert silence.belief(middle) == 0.0
    assert silence.plausibility(middle) == 1.0

    # the same four answers through the command line, byte for byte
    doc = (
        "frame horses: a nab nb\n"
        "prob book over horses: 0.5 0.0 0.5\n"
        "mass silence over horses:\n"
        "  {a nab nb} 1.0\n"
    )
    for args, expected in [
        (["query", "Bel", "book", "{nab}"], "Bel = 0\n"),
        (["query", "Pl", "book", "{nab}"], "Pl = 0\n"),
        (["query", "Bel", "silence", "{nab}"], "Bel = 0\n"),
        (["query", "Pl", "silence", "{nab}"], "Pl = 1\n"),
    ]:
        result = credal(*args, doc=doc)
        assert result.exit_code == 0
        assert result.stdout == expected
    certify("three-outcome paradox: exact Bel/Pl under both encodings", start, 1.0)


def test_levelcut_roundtrips():
    """Grades to masses and back bit for bit; masses to grades and back to 1e-12."""
    start = time.perf_counter()
    rng = random.Random(101)

    for _ in range(1000):
        n = rng.randint(2, 16)
        frame = frame_of(n)
        pi = make_possibility(frame, random_grades(rng, n))
        assert contour(pi_to_mass(pi)).values == pi.values

    for _ in range(1000):
        n = rng.randint(2, 16)
        frame = frame_of(n)
        m = random_consonant_mass(rng, frame)
        back = pi_to_mass(contour(m))
        focals = dict(m.focal_elements())
        back_focals = dict(back.focal_elements())
        assert set(back_focals) == set(focals)
        for subset, weight in focals.items():
            assert abs(back_focals[subset] - weight) <= 1e-12
    certify("level-cut round trips: 1000 exact, 1000 within 1e-12", start, 5.0)


def test_consonant_decomposability_and_limit_laws():
    """Nested evidence turns belief into min and plausibility into max, with the boundary laws."""
    start = time.perf_counter()
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randint(2, 10)
        frame = frame_of(n)
        m = random_consonant_mass(rng, frame)
        bel = np.asarray(m.belief_table())
        pl = np.asarray(m.plausibility_table())
        masks = np.arange(1 << n)

        inter = masks[:, None] & masks[None, :]
        assert np.max(np.abs(bel[inter] - np.minimum.outer(bel, bel))) <= 1e-12
        union = masks[:, None] | masks[None, :]
        assert np.max(np.abs(pl[union] - np.maximum.outer(pl, pl))) <= 1e-12

        # one of a proposition and its negation is fully plausible,
        # one is not believed at all, and any believed one is fully plausible
        pl_c, bel_c = pl[::-1], bel[::-1]
        assert np.max(np.abs(np.maximum(pl, pl_c) - 1.0)) <= 1e-12
        assert np.max(np.minimum(bel, bel_c)) <= 1e-12
        assert np.max(np.abs(pl[bel > 0] - 1.0)) <= 1e-12
    certify("consonant evidence: min/max decomposability and limit laws", start, 60.0)


def test_min_rule_strict_inequality_witness():
    """The min bound on conjunctions is not an identity: a generated witness gaps it by > 0.1."""
    rng = random.Random(107)
    best_gap = 0.0
    for _ in range(50):
        n = rng.randint(2, 6)
        frame = frame_of(n)
        pi = make_possibility(frame, random_grades(rng, n))
        for a_mask in range(1, 1 << n):
            for b_mask in range(1, 1 << n):
                a = frame.from_mask(a_mask)
                b = frame.from_mask(b_mask)
                bound = min(pi.possibility_of(a), pi.possibility_of(b))
                got = pi.possibility_of(a & b)
                assert got <= bound + 1e-12  # the inequality direction always holds
                best_gap = max(best_gap, bound - got)
    assert best_gap > 0.1, f"no witness with gap > 0.1 (best {best_gap})"
    certify(f"conjunction min-rule is an inequality only (witness gap {best_gap:.3f})")


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
    rng = random.Random(127)
    checked = 0
    for n in range(2, 13):
        frame = frame_of(n)
        for alpha in ALPHA_GRID:
            cores = [frame.from_mask((1 << k) - 1) for k in range(1, n)]
            cores += [frame.from_mask(rng.randint(1, (1 << n) - 2)) for _ in range(3)]
            for core in cores:
                report = bracket_check(VagueStatement(core, alpha))
                assert report.holds
                assert report.max_violation <= 1e-9
                checked += report.subsets_checked
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


def test_triangle_convention_rows():
    """The three canonical states of knowledge land on their triangle landmarks, byte for byte."""
    doc = (
        "frame pair: a b\n"
        "mass m_vacuous over pair:\n"
        "  {a b} 1.0\n"
        "prob p_half over pair: 0.5 0.5\n"
        "mass m_interior over pair:\n"
        "  {a} 0.2\n"
        "  {b} 0.2\n"
        "  {a b} 0.6\n"
    )
    golden = [
        (["triangle", "m_vacuous", "{a}"], "m_vacuous,0.000000,0.000000,O,1.000000\n"),
        (["triangle", "p_half", "{a}"], "p_half,0.500000,0.500000,probabilistic-edge,0.000000\n"),
        (["triangle", "m_interior", "{a}"], "m_interior,0.200000,0.200000,interior,0.600000\n"),
    ]
    for args, expected in golden:
        result = credal(*args, doc=doc)
        assert result.exit_code == 0
        assert result.stdout == expected
    certify("triangle landmark rows: golden CLI output")


def test_duality_monotonicity_suite():
    """Belief and plausibility stay dual, ordered, and monotone; probabilities collapse the gap."""
    start = time.perf_counter()
    rng = random.Random(137)
    for trial in range(1000):
        n = rng.randint(1, 10)
        frame = frame_of(n)
        bayesian = trial % 5 == 0
        if bayesian:
            weights = [rng.random() + 0.01 for _ in range(n)]
            total = fsum(weights)
            p = ProbabilityDistribution(frame, [w / total for w in weights])
            m = p.as_mass()
        else:
            m = random_general_mass(rng, frame)
        bel = np.asarray(m.belief_table())
        pl = np.asarray(m.plausibility_table())

        assert np.max(np.abs(bel + pl[::-1] - 1.0)) <= 1e-12
        assert np.min(pl - bel) >= -1e-12

        masks = np.arange(1 << n)
        for i in range(n):
            above = masks[(masks >> i & 1) == 1]
            below = above ^ (1 << i)
            assert np.min(bel[above] - bel[below]) >= -1e-12
            assert np.min(pl[above] - pl[below]) >= -1e-12

        if bayesian:
            assert np.max(np.abs(pl - bel)) <= 1e-12
            for mask in range(1 << n):
                want = p.probability_of(frame.from_mask(mask))
                assert abs(bel[mask] - want) <= 1e-12
    certify("duality, ordering, monotonicity, Bayesian collapse: 1000 masses", start, 60.0)
