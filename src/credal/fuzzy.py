"""Fuzzy sets over integer scales and conditioning on vague evidence.

A vague predicate like "young" is modeled as a fuzzy set over an age scale.
Its membership function is the contour of a random set: the meaning of the
predicate is uncertain, captured by a mass function over candidate crisp
meanings, and the grade at a point is the total weight of the meanings
containing it.

Two conditioning regimes are provided for a statement "the value satisfies
the predicate": with no prior knowledge the membership function is read
directly as a possibility distribution over the value (with a per-point
certainty profile from the singleton focals of its level-cut mass); with a
probabilistic prior the statement revises the prior in proportion to
membership, which reduces to ordinary conditioning when the predicate is
crisp.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import fsum, isfinite

from ._record import Record
from .errors import ConditioningError, NormalizationError, ValidationError
from .evidence import MassFunction, ProbabilityDistribution, _real
from .frames import Frame, MAX_ATOMS, _check_same_frame, _index
from .possibility import PossibilityDistribution

NULL_EVENT_TOLERANCE = 1e-12


def _shown(x: int) -> str:
    """`x` in decimal; past 40 digits its first and last 8 and its length, never formatted whole."""
    size = abs(x)
    if size < 10**40:
        return str(x)
    digits = int(size.bit_length() * 0.30102999566398120)  # the count, or one short
    digits += size >= 10**digits
    return f"{'-' if x < 0 else ''}{size // 10 ** (digits - 8)}...{size % 10**8:08d} ({digits} digits)"


class NumericScale(Record):
    """An inclusive integer range serving as an ordered frame of scale points."""

    __slots__ = ("lower", "upper", "frame")
    __match_args__ = ("lower", "upper")

    def __init__(self, lower: int, upper: int):
        lower, upper = _index(lower, "scale bound"), _index(upper, "scale bound")
        bounds = f"{_shown(lower)}..{_shown(upper)}"
        if lower > upper:
            raise ValidationError(f"scale bounds out of order: {bounds}")
        if upper - lower + 1 > MAX_ATOMS:
            raise ValidationError(f"scale {bounds} has more than {MAX_ATOMS} points")
        try:  # `str` refuses a point past the int-string cap
            labels = tuple(str(x) for x in range(lower, upper + 1))
        except ValueError:
            raise ValidationError(f"scale {bounds} has points too long to label") from None
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        # the implied frame: one atom per integer point, in order
        object.__setattr__(self, "frame", Frame(labels))

    @property
    def points(self) -> range:
        return range(self.lower, self.upper + 1)

    def __len__(self) -> int:
        return self.upper - self.lower + 1

    def __contains__(self, x: int) -> bool:
        return x in self.points

    def index(self, x: int) -> int:
        """The position of point `x` among the scale's points; `x` must be an integer."""
        x = _index(x, "scale point")
        if x not in self:
            raise ValidationError(f"point {_shown(x)} outside scale {_shown(self.lower)}..{_shown(self.upper)}")
        return x - self.lower


class FuzzySet(Record):
    """A named membership function over a scale, one grade per integer point.

    Representationally identical to a possibility distribution over the
    scale's frame, and stored as one; `as_possibility()` returns it. Two
    sets are equal when their scales and grades are, whatever their names.
    """

    __slots__ = ("scale", "name", "_pi")
    __hash__ = None

    def __init__(self, scale: NumericScale, values: Iterable[float], name: str = ""):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_pi", PossibilityDistribution(scale.frame, values))

    @property
    def values(self) -> tuple[float, ...]:
        return self._pi.values

    @classmethod
    def from_breakpoints(
        cls, scale: NumericScale, breakpoints: Sequence[tuple[float, float]], name: str = ""
    ) -> FuzzySet:
        """Build a membership function from (x, grade) breakpoints.

        Grades must be finite; they are interpolated linearly between
        breakpoints, extended flat beyond the first and last, and clamped to
        [0, 1] afterwards. Breakpoint positions must be finite and strictly
        increasing, and the scale's points must lie within the float range.
        """
        if not breakpoints:
            raise ValidationError("at least one breakpoint is required")
        too_large = "breakpoint or scale point too large for a float"
        xs = [_real(x, "breakpoint position", too_large) for x, _ in breakpoints]
        ys = [_real(y, "breakpoint grade", too_large) for _, y in breakpoints]
        points = [_real(p, "scale point", too_large) for p in scale.points]
        for what, values in (("grade", ys), ("position", xs)):
            for v in values:
                if not isfinite(v):
                    raise ValidationError(f"non-finite breakpoint {what} {v!r}")
        for a, b in zip(xs, xs[1:]):
            if b <= a:
                raise ValidationError(f"breakpoint positions must increase (got {a} then {b})")

        def interpolate(x: float) -> float:
            if x <= xs[0]:
                y = ys[0]
            elif x >= xs[-1]:
                y = ys[-1]
            else:
                k = next(i for i in range(len(xs) - 1) if x <= xs[i + 1])
                t = (x - xs[k]) / (xs[k + 1] - xs[k])
                y = ys[k] + t * (ys[k + 1] - ys[k])
            return min(1.0, max(0.0, y))

        return cls(scale, map(interpolate, points), name)

    def membership(self, x: int) -> float:
        return self.values[self.scale.index(x)]

    @property
    def is_normalized(self) -> bool:
        return self._pi.is_normalized

    def as_possibility(self) -> PossibilityDistribution:
        return self._pi

    def _values(self) -> tuple[NumericScale, tuple[float, ...]]:
        return self.scale, self.values

    def __repr__(self) -> str:
        return f"FuzzySet({self.name or '?'}: {', '.join(f'{v:g}' for v in self.values)})"


def membership_from_random_set(meaning: MassFunction, x: int | str) -> float:
    """Grade of a point under an uncertain meaning: total weight of the
    candidate meanings containing it.

    `meaning` is a mass function over a scale's frame; the grade equals the
    plausibility of the singleton at `x` (the contour value there).
    """
    label = str(x)
    singleton = meaning.frame.singleton(label)
    return meaning.plausibility(singleton)


def fuzzy_event_probability(f: FuzzySet, prior: ProbabilityDistribution) -> float:
    """Probability of a fuzzy event: the expectation of the membership function."""
    _check_same_frame(f.scale.frame, prior.frame)
    return fsum(mu * p for mu, p in zip(f.values, prior.values))


class PossibilisticConditioning(Record):
    """Result of reading a vague statement with no prior knowledge.

    `pi` restricts the possible values: the membership function verbatim.
    `certainty` gives, per scale point, the weight its singleton carries in
    the level-cut mass of the membership function; it is zero everywhere
    unless some level cut is a single point.
    """

    __slots__ = __match_args__ = ("pi", "certainty")

    def __init__(self, pi: PossibilityDistribution, certainty: tuple[float, ...]):
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "certainty", certainty)


def possibilistic_condition(f: FuzzySet) -> PossibilisticConditioning:
    """Condition on "the value satisfies `f`" under total prior ignorance.

    Requires a normalized membership function (some point fully compatible).
    The possibility of each value is its grade; the certainty profile comes
    from the singleton focal elements of the grade's level-cut decomposition.
    """
    if not f.is_normalized:
        raise NormalizationError(
            f"membership function {f.name or '?'} is subnormal (max grade < 1); "
            "normalize it before conditioning"
        )
    pi = f.as_possibility()
    meaning = pi.as_mass()
    certainty = tuple(
        meaning.weight_of(meaning.frame.from_mask(1 << i)) for i in range(len(f.scale))
    )
    return PossibilisticConditioning(pi, certainty)


def bayes_fuzzy_condition(prior: ProbabilityDistribution, f: FuzzySet) -> ProbabilityDistribution:
    """Revise a prior by a fuzzy event: posterior proportional to grade times prior.

    Reduces to ordinary conditioning when `f` is the indicator of a crisp
    subset. Raises when the fuzzy event has (near-)zero prior probability.
    """
    total = fuzzy_event_probability(f, prior)
    if total < NULL_EVENT_TOLERANCE:
        raise ConditioningError(
            f"cannot condition: the fuzzy event has probability {total!r} (below {NULL_EVENT_TOLERANCE})"
        )
    return ProbabilityDistribution(
        prior.frame, tuple(mu * p / total for mu, p in zip(f.values, prior.values))
    )
