"""The paper's laws, each stated once as a check on one object, and the generators the tests draw from.

`LAWS` maps each kind of object, a subset, mass, possibility
distribution, probability, fuzzy set or vague statement, to the function
that asserts every law of that kind on one object and on `probes`, subsets
of its frame:

- values and measures lie in [0, 1], and Bel <= Pl;
- duality: Pl(A) = 1 - Bel(not A), and N(A) = 1 - Pi(not A) bit for bit;
- monotonicity: Bel and Pl grow with A;
- consonant decomposability: Pi, and Pl of a consonant mass, are max over
  unions; N, and Bel of a consonant mass, are min over intersections;
- consonant limits: max(Pl(A), Pl(not A)) = 1 and min(Bel(A), Bel(not A)) = 0;
- a probability's Bayesian mass collapses the gap: Bel = P = Pl;
- lossless round trips: pi -> mass -> pi, and consonant mass -> pi -> mass;
- a statement's bracket: Bel(A) <= P(A) <= Pl(A) between its two readings;
- the document's: a mass, pi or prob that `_declaration` writes reads back.
"""

import random
from itertools import product
from math import fsum, isclose, nextafter

from hypothesis import strategies as st

from conftest import TOL
from credal import (Frame, FuzzySet, MassFunction, NumericScale, PossibilityDistribution, ProbabilityDistribution,
                    Subset, VagueStatement, bracket_check, contour, maxent_distribution, minspec_mass, parse_document,
                    pi_to_mass, possibilistic_condition)
from credal.document import _declaration
from credal.evidence import EQ_TOLERANCE, SUM_TOLERANCE
from credal.fuzzy import NULL_EVENT_TOLERANCE

# the largest frame whose whole powerset tables the mass and probability laws scan
TABLE_ATOMS = 10
# the least grade `is_normalized` counts as a top of 1, and the float below it, which it does not
NORMAL_EDGE = 1.0 - EQ_TOLERANCE
SUBNORMAL_EDGE = nextafter(NORMAL_EDGE, 0.0)
# numbers where rounding shows: subnormals, one that vanishes next to 1, repeating fractions, 1 ulp below 1
EDGE = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-17, 1 / 3, 2 / 3, 0.5, 1 - 2**-53, 1.0]
# weights far below the rest, which vanish next to 1 in a sum
TINY = st.floats(5e-324, 2.2e-308) | st.sampled_from([5e-324, 1e-300, 1e-17])
# what drawn weights are scaled to sum to: 1, an ulp off it, and the edges of the constructors' tolerance
SUMS = st.sampled_from([1.0, nextafter(1.0, 2.0), nextafter(1.0, 0.0), 1.0 - SUM_TOLERANCE, 1.0 + SUM_TOLERANCE])
# confidences in [0, 1] where rounding shows, and two outside it
ALPHAS = st.sampled_from(EDGE + [0.8, 0.999999, nextafter(1.0, 2.0), float("nan")]) | st.floats(0.0, 1.0)


def frame_of(n: int) -> Frame:
    """The frame w0 ... w{n-1}."""
    return Frame([f"w{i}" for i in range(n)])


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


def random_general_mass(rng: random.Random, frame: Frame) -> MassFunction:
    n = len(frame)
    count = rng.randint(1, min(10, (1 << n) - 1))
    masks = {}  # distinct non-zero masks in draw order; `getrandbits` takes every n up to 64
    while len(masks) < count:
        if mask := rng.getrandbits(n):
            masks[mask] = None
    weights = [rng.random() + 0.02 for _ in masks]
    total = sum(weights)
    return MassFunction(frame, [(frame.from_mask(m), w / total) for m, w in zip(masks, weights)])


def null_event(scale: NumericScale, below: bool = False) -> tuple[ProbabilityDistribution, FuzzySet]:
    """A prior and a fuzzy set over `scale`, of 2 points or more, whose event probability is exactly
    `NULL_EVENT_TOLERANCE`, the least that `bayes_fuzzy_condition` accepts, or with `below` the float under it."""
    grade = 2 * NULL_EVENT_TOLERANCE
    rest = [0.0] * (len(scale) - 2)
    return (ProbabilityDistribution(scale.frame, [0.5, 0.5, *rest]),
            FuzzySet(scale, [nextafter(grade, 0.0) if below else grade, 0.0, *rest]))


@st.composite
def focal_weights(draw, frame: Frame) -> list[tuple[Subset, float]]:
    """Up to 10 focal sets of `frame`, some named twice, with weights summing to 1; all but the first may be tiny."""
    masks = draw(st.lists(st.integers(1, (1 << len(frame)) - 1), min_size=1, max_size=10))
    weights = [draw(st.floats(0.01, 1.0))] + [draw(st.floats(0.01, 1.0) | TINY) for _ in masks[1:]]
    total = fsum(weights)
    return [(frame.from_mask(m), w / total) for m, w in zip(masks, weights)]


def masses(max_atoms: int) -> st.SearchStrategy[MassFunction]:
    """A mass over `frame_of(n)`, n from 1 to `max_atoms`, with `focal_weights`."""
    return st.integers(1, max_atoms).map(frame_of).flatmap(
        lambda frame: focal_weights(frame).map(lambda pairs: MassFunction(frame, pairs)))


@st.composite
def grades(draw, n: int) -> list[float]:
    """`n` grades from a pool of up to 6, so atoms share grades and level cuts tie, and one of them a top grade:
    1, or either side of the tolerance edge of `is_normalized`."""
    lattice = st.integers(0, 2**53).map(lambda k: k / 2**53)
    pool = draw(st.lists(st.sampled_from(EDGE) | st.floats(0.0, 1.0) | lattice, min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, NORMAL_EDGE, SUBNORMAL_EDGE]))
    return values


def subset_laws(a: Subset, probes: list[Subset]) -> None:
    """Complement is an involution, A and not-A partition the frame, membership and `index` read the mask."""
    frame = a.frame
    assert ~~a == a and (a | ~a).is_full and (a & ~a).is_empty
    assert a.cardinality + (~a).cardinality == len(frame)
    for i, atom in enumerate(frame.atoms):
        assert frame.index(atom) == i and (atom in a) == bool(a.mask >> i & 1)
    for b in probes:
        assert a & b <= a <= a | b and ~(a | b) == ~a & ~b


def mass_laws(m: MassFunction, probes: list[Subset]) -> None:
    """A declaration that reads back; Bel <= Pl in [0, 1], duality and monotonicity, on the probes and on a small
    frame's whole powerset; on a consonant mass, min/max decomposability, the limit laws and a round trip through
    its contour."""
    n = len(m.frame)
    reread(m)
    assert 1.0 - TOL <= m.expected_cardinality() <= n + TOL
    consonant = "consonant" in m.classify().labels
    for a, b in product(probes, repeat=2):
        bel, pl = m.belief(a), m.plausibility(a)
        # point queries lie in [0, 1] exactly, however the renormalized weights round
        assert 0.0 <= bel <= pl <= 1.0
        assert abs(pl - (1.0 - m.belief(~a))) <= TOL
        assert bel <= m.belief(a | b) + TOL and pl <= m.plausibility(a | b) + TOL
        if consonant:
            assert abs(m.belief(a & b) - min(bel, m.belief(b))) <= TOL
            assert abs(m.plausibility(a | b) - max(pl, m.plausibility(b))) <= TOL
    if consonant:
        pi = contour(m)
        focals, back = dict(m.focal_elements()), dict(pi_to_mass(pi).focal_elements())
        assert all(abs(back.get(s, 0.0) - focals.get(s, 0.0)) <= TOL for s in focals.keys() | back.keys())
        # a weight below an ulp of the plausibility it adds to vanishes from the contour; no other does
        if min(focals.values()) > TOL:
            assert back.keys() == focals.keys()
    if n <= TABLE_ATOMS:
        bel, pl = m.belief_table(), m.plausibility_table()
        full = (1 << n) - 1
        if consonant:
            # Pi of every subset, the contour's largest grade among its atoms, so that N(A) = 1 - Pi(not A)
            poss = [0.0] * (full + 1)
            for mask in range(1, full + 1):
                low = mask & -mask
                poss[mask] = max(poss[mask ^ low], pi.values[low.bit_length() - 1])
        for mask in range(full + 1):
            assert abs(bel[mask] + pl[full ^ mask] - 1.0) <= TOL and bel[mask] <= pl[mask] + TOL
            # the covering relation (drop one atom) implies the full order by transitivity
            for i in range(n):
                if mask >> i & 1:
                    assert bel[mask ^ 1 << i] <= bel[mask] + TOL and pl[mask ^ 1 << i] <= pl[mask] + TOL
            if consonant:
                # within TOL / 2 of N and Pi, which are min- and max-decomposable exactly, so Bel of every
                # intersection and Pl of every union are within TOL of the min and max of their operands
                assert abs(bel[mask] - (1.0 - poss[full ^ mask])) <= TOL / 2 and abs(pl[mask] - poss[mask]) <= TOL / 2
                # nested focal sets lie on one side: of A and not A, one is fully plausible and one not believed
                assert abs(max(pl[mask], pl[full ^ mask]) - 1.0) <= TOL and min(bel[mask], bel[full ^ mask]) == 0.0
        for a in probes:
            assert abs(bel[a.mask] - m.belief(a)) <= TOL and abs(pl[a.mask] - m.plausibility(a)) <= TOL


def pi_laws(pi: PossibilityDistribution, probes: list[Subset]) -> None:
    """Grades in [0, 1] whose declaration reads back, strictly nested level cuts, Pi max- and N min-decomposable
    and dual bit for bit; a normalized pi decomposes into a consonant mass that measures as it does and gives its
    grades back."""
    assert all(0.0 <= v <= 1.0 for v in pi.values)
    reread(pi)
    cuts = pi.level_cuts()
    for (high, small), (low, big) in zip(cuts, cuts[1:]):
        assert high > low and small <= big and small != big
    for a, b in product(probes, repeat=2):
        assert pi.possibility_of(a | b) == max(pi.possibility_of(a), pi.possibility_of(b))
        assert pi.necessity_of(a & b) == min(pi.necessity_of(a), pi.necessity_of(b))
        assert pi.necessity_of(a).hex() == (1.0 - pi.possibility_of(~a)).hex()
    if not pi.is_normalized:
        return
    mass = pi.as_mass()
    assert "consonant" in mass.classify().labels
    back = contour(mass).values
    assert all(abs(b - v) <= TOL for b, v in zip(back, pi.values))
    # below a top grade of exactly 1, drops between grades on the 2**-53 lattice are exact, and so is the trip
    if 1.0 in pi.values and all((v * 2**53).is_integer() for v in pi.values):
        assert back == pi.values
    for a in probes:
        assert abs(mass.plausibility(a) - pi.possibility_of(a)) <= TOL
        assert abs(mass.belief(a) - pi.necessity_of(a)) <= TOL
        # a proposition must be fully possible before it can be somewhat necessary
        assert pi.necessity_of(a) <= TOL or pi.possibility_of(a) == max(pi.values)


def prob_laws(p: ProbabilityDistribution, probes: list[Subset]) -> None:
    """Values in [0, 1] summing to 1 whose declaration reads back, P(A) + P(not A) = 1, and Bel = P = Pl for its
    Bayesian mass, on the probes and on a small frame's whole powerset."""
    assert all(0.0 <= v <= 1.0 for v in p.values) and abs(fsum(p.values) - 1.0) <= TOL
    reread(p)
    mass = p.as_mass()
    for a in probes:
        prob = p.probability_of(a)
        assert abs(prob + p.probability_of(~a) - 1.0) <= TOL
        assert abs(mass.belief(a) - prob) <= TOL and abs(mass.plausibility(a) - prob) <= TOL
    if len(p.frame) <= TABLE_ATOMS:
        bel, pl = mass.belief_table(), mass.plausibility_table()
        for a in p.frame.all_subsets():
            prob = p.probability_of(a)
            assert abs(bel[a.mask] - prob) <= TOL and abs(pl[a.mask] - prob) <= TOL


def fuzzy_laws(f: FuzzySet, probes: list[Subset]) -> None:
    """A fuzzy set reads as its possibility distribution point by point; read with no prior, it restricts
    the value to that distribution, and only a one-point top cut carries certainty."""
    assert f.as_possibility().values == f.values == tuple(map(f.membership, f.scale.points))
    if f.is_normalized:
        result = possibilistic_condition(f)
        assert result.pi.values == f.values
        assert sum(c > 0.0 for c in result.certainty) <= 1 and fsum(result.certainty) <= 1.0


def statement_laws(s: VagueStatement, probes: list[Subset]) -> None:
    """Max entropy meets the bound, min specificity believes the core to alpha as one consonant object in two
    forms, and Bel <= P <= Pl holds between them on every subset, as `bracket_check` reports."""
    n, core = len(s.core.frame), s.core.mask
    p = maxent_distribution(s)
    mass, pi = minspec_mass(s)
    assert p.probability_of(s.core) >= s.alpha - TOL and abs(mass.belief(s.core) - s.alpha) <= TOL
    assert pi_to_mass(pi) == mass and contour(mass).values == pi.values
    for a in probes:
        assert mass.belief(a) <= p.probability_of(a) + 1e-9 and p.probability_of(a) <= mass.plausibility(a) + 1e-9
    report = bracket_check(s)
    assert report.holds and report.subsets_checked == 1 << n
    # least width 1 - Bel(core), first reached at the core or at the lowest atom outside it
    width = 1.0 - mass.belief(s.core)
    outside = next(1 << i for i in range(n) if not core >> i & 1)
    assert report.tightest_width == width
    assert report.tightest_subset.mask == (min(core, outside) if width < 1.0 else 1)


LAWS = {Subset: subset_laws, MassFunction: mass_laws, PossibilityDistribution: pi_laws,
        ProbabilityDistribution: prob_laws, FuzzySet: fuzzy_laws, VagueStatement: statement_laws}


def reread(obj: MassFunction | PossibilityDistribution | ProbabilityDistribution):
    """`obj` as `_declaration` writes it after its frame's line, read back: it must parse, with the same focal sets
    in the same order and each number within 1e-5."""
    header = f"frame w: {' '.join(obj.frame.atoms)}"
    lines = _declaration(parse_document(header), "x", obj)
    doc = parse_document("\n".join([header, *lines]))
    if isinstance(obj, MassFunction):
        back = doc.masses["x"]
        assert list(back._weights) == list(obj._weights)
        pairs = zip(back._weights.values(), obj._weights.values())
    else:
        back = (doc.pis if isinstance(obj, PossibilityDistribution) else doc.probs)["x"]
        pairs = zip(back.values, obj.values)
    assert all(isclose(b, v, rel_tol=1e-5, abs_tol=1e-12) for b, v in pairs), lines
    return back
