"""One stateful machine applies every public transform, in any order, and checks the laws of what it makes.

The machine draws one scale of 1-64 points, whose frame all its objects
share, and keeps bundles of masses, possibility distributions,
probabilities, statements, fuzzy sets and subsets. Each step draws a new
object or applies a transform to kept ones, a write and re-read through
the document grammar among them, so that re-read objects feed further
steps. The step returns a value, which must obey every law in `laws.py`,
or raises one `CredalError`, which keeps nothing; any other exception
fails the test. `test_seeded_laws` checks each law on seeded objects, the same in every run.
"""

import operator
import random
from math import fsum

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, multiple, rule

import laws
from credal import (CredalError, FuzzySet, MassFunction, NumericScale, PossibilityDistribution,
                    ProbabilityDistribution, Subset, VagueStatement, bayes_fuzzy_condition, consonant_approximate,
                    contour, maxent_distribution, minspec_mass, pi_to_mass, possibilistic_condition)


class Laws(RuleBasedStateMachine):
    masses, pis, probs = Bundle("masses"), Bundle("pis"), Bundle("probs")
    statements, fuzzies, subsets = Bundle("statements"), Bundle("fuzzies"), Bundle("subsets")

    @initialize(target=subsets, n=st.integers(1, 64), lower=st.integers(-64, 64), data=st.data())
    def start(self, n, lower, data):
        self.scale = NumericScale(lower, lower + n - 1)
        self.frame = self.scale.frame
        # the subsets every law is checked on: the empty and full sets and the last four made
        masks = data.draw(st.lists(st.integers(0, self.frame.full.mask), min_size=1, max_size=4))
        self.probes = [self.frame.from_mask(mask) for mask in masks]
        return multiple(*self.probes)

    def keep(self, make, *args):
        """What `make(*args)` returns, once it obeys its laws; nothing if it raises a one-line CredalError."""
        try:
            obj = make(*args)
        except CredalError as exc:
            assert "\n" not in str(exc)
            return multiple()
        laws.LAWS[type(obj)](obj, [self.frame.empty, self.frame.full, *self.probes[-4:]])
        if isinstance(obj, Subset):
            self.probes.append(obj)
        return obj

    def reread(self, obj):
        """`obj` written as a declaration and read back, which must not fail."""
        back = laws.reread(obj)
        return self.keep(lambda: back)

    @rule(target=masses, data=st.data(), total=laws.SUMS)
    def draw_mass(self, data, total):
        pairs = data.draw(laws.focal_weights(self.frame))
        return self.keep(MassFunction, self.frame, [(a, w * total) for a, w in pairs])

    @rule(target=probs, data=st.data(), total=laws.SUMS)
    def draw_prob(self, data, total):
        values = data.draw(laws.grades(len(self.frame)))
        scale = total / fsum(values)
        return self.keep(ProbabilityDistribution, self.frame, [v * scale for v in values])

    @rule(target=pis, data=st.data())
    def draw_pi(self, data):
        return self.keep(PossibilityDistribution, self.frame, data.draw(laws.grades(len(self.frame))))

    @rule(target=fuzzies, data=st.data())
    def draw_fuzzy(self, data):
        return self.keep(FuzzySet, self.scale, data.draw(laws.grades(len(self.frame))))

    @rule(target=subsets, mask=st.integers(0, 2**64 - 1))
    def subset(self, mask):
        return self.keep(self.frame.from_mask, mask & self.frame.full.mask)

    @rule(target=statements, core=subsets, alpha=laws.ALPHAS)
    def statement(self, core, alpha):
        return self.keep(VagueStatement, core, alpha)

    @rule(target=subsets, a=subsets, b=subsets)
    def union(self, a, b):
        return self.keep(operator.or_, a, b)

    @rule(target=subsets, a=subsets, b=subsets)
    def meet(self, a, b):
        return self.keep(operator.and_, a, b)

    @rule(target=subsets, a=subsets)
    def complement(self, a):
        return self.keep(operator.invert, a)

    @rule(target=masses, pi=pis)
    def to_mass(self, pi):
        return self.keep(pi_to_mass, pi)

    @rule(target=masses, p=probs)
    def bayesian(self, p):
        return self.keep(p.as_mass)

    @rule(target=masses, s=statements)
    def minspec(self, s):
        return self.keep(lambda: minspec_mass(s)[0])

    @rule(target=pis, s=statements)
    def minspec_pi(self, s):
        return self.keep(lambda: minspec_mass(s)[1])

    @rule(target=pis, pi=pis)
    def normalize(self, pi):
        return self.keep(pi.normalize)

    @rule(target=pis, m=masses)
    def contour_of(self, m):
        return self.keep(contour, m)

    @rule(target=pis, m=masses)
    def approximate(self, m):
        return self.keep(lambda: consonant_approximate(m)[0])

    @rule(target=pis, f=fuzzies)
    def condition(self, f):
        return self.keep(lambda: possibilistic_condition(f).pi)

    @rule(target=probs, s=statements)
    def maxent(self, s):
        return self.keep(maxent_distribution, s)

    @rule(target=probs, p=probs, f=fuzzies)
    def bayes(self, p, f):
        return self.keep(bayes_fuzzy_condition, p, f)

    @rule(target=fuzzies, pi=pis)
    def fuzzy(self, pi):
        return self.keep(FuzzySet, self.scale, pi.values)

    @rule(target=masses, m=masses)
    def reread_mass(self, m):
        return self.reread(m)

    @rule(target=pis, pi=pis)
    def reread_pi(self, pi):
        return self.reread(pi)

    @rule(target=probs, p=probs)
    def reread_prob(self, p):
        return self.reread(p)

Laws.TestCase.settings = settings(max_examples=100, stateful_step_count=12)
TestLaws = Laws.TestCase


def at_edge(grades: list[float]) -> list[float]:
    """`grades` with its top grade of 1 lowered to the least grade `is_normalized` counts as 1."""
    return [laws.NORMAL_EDGE if v == 1.0 else v for v in grades]


# one seeded object of each kind over a frame of n points; its laws are checked on it and on four seeded probes
SEEDED = {
    "subset": lambda rng, frame, g: frame.from_mask(rng.getrandbits(len(frame))),
    "mass": lambda rng, frame, g: laws.random_general_mass(rng, frame),
    "consonant": lambda rng, frame, g: laws.random_consonant_mass(rng, frame),
    "pi": lambda rng, frame, g: PossibilityDistribution(frame, g),
    "prob": lambda rng, frame, g: ProbabilityDistribution(frame, [v / fsum(g) for v in g]),
    "fuzzy": lambda rng, frame, g: FuzzySet(NumericScale(0, len(frame) - 1), g),
    "statement": lambda rng, frame, g: VagueStatement(frame.from_mask(rng.randrange(1, frame.full.mask)), g[0]),
    "approximation": lambda rng, frame, g: consonant_approximate(laws.random_general_mass(rng, frame))[0],
    "minspec-pi": lambda rng, frame, g: minspec_mass(
        VagueStatement(frame.from_mask(rng.randrange(1, frame.full.mask)), g[0]))[1],
    "pi-at-edge": lambda rng, frame, g: PossibilityDistribution(frame, at_edge(g)),
    "mass-at-edge": lambda rng, frame, g: pi_to_mass(PossibilityDistribution(frame, at_edge(g))),
    "fuzzy-at-edge": lambda rng, frame, g: FuzzySet(NumericScale(0, len(frame) - 1), at_edge(g)),
    # the least event probability `bayes_fuzzy_condition` accepts; the float below it is a `LIBRARY` row
    "posterior-at-edge": lambda rng, frame, g: bayes_fuzzy_condition(*laws.null_event(NumericScale(0, len(frame) - 1))),
}


@pytest.mark.parametrize("n", [2, 8, 13, 63, 64])
@pytest.mark.parametrize("kind", SEEDED)
def test_seeded_laws(kind, n):
    rng = random.Random(n)
    frame = NumericScale(0, n - 1).frame
    probes = [frame.from_mask(rng.getrandbits(n)) for _ in range(4)]
    obj = SEEDED[kind](rng, frame, laws.random_grades(rng, n))
    laws.LAWS[type(obj)](obj, [frame.empty, frame.full, *probes])
