"""Every library fault, once: a row of `LIBRARY` per fault, and a check that every `raise` is some row's.

A row is (id, a call that takes no argument, the class it raises, the whole
message). `test_library_fault` runs each call and checks the class exactly,
not a subclass, and the message whole, on one line. Document faults are
`tests/test_document.py`'s `FAULTS`, and the command line's are
`tests/test_cli.py`'s `ERRORS`.
"""

import ast
import pathlib
import traceback

import pytest

import credal
from credal import (ConditioningError, CredalError, Frame, FrameMismatchError, FuzzySet, MassFunction,
                    NormalizationError, NumericScale, PossibilityDistribution, ProbabilityDistribution, Subset,
                    TrianglePoint, ValidationError, VagueStatement, bayes_fuzzy_condition, fuzzy_event_probability,
                    make_mass, make_possibility, parse_frame, parse_subset, possibilistic_condition)
from laws import frame_of, null_event

NAN, INF = float("nan"), float("inf")
W2, W3, W10 = Frame(["w1", "w2"]), Frame(["w1", "w2", "w3"]), frame_of(10)
STAIRCASE = make_mass(W3, [(W3.singleton("w1"), 0.5), (W3.subset(["w1", "w2"]), 0.3), (W3.full, 0.2)])
AGE = NumericScale(20, 29)
YOUNG = FuzzySet.from_breakpoints(AGE, [(20, 1.0), (24, 1.0), (29, 0.0)], name="young")
Y = FuzzySet(NumericScale(1, 3), [1.0, 0.5, 0.0], name="y")
# how a message shows an integer of more than 40 digits, and the largest one it shows whole
BIG = "10000000...00000000 (5001 digits)"
NINES = 10**40 - 1

LIBRARY = [
    # frames.py: frames and their labels
    ("empty-frame", lambda: Frame([]), ValidationError, "a frame needs at least one atom"),
    ("65-atoms", lambda: frame_of(65), ValidationError,
     "frame exceeds 64 atoms (got 65); subsets are machine-word bitmasks"),
    ("duplicate-label", lambda: Frame(["a", "a"]), ValidationError, "duplicate label 'a'"),
    ("label-with-space", lambda: Frame(["a b", "ok"]), ValidationError,
     "label 'a b' contains forbidden character ' '"),
    ("label-with-open-brace", lambda: Frame(["a{", "ok"]), ValidationError,
     "label 'a{' contains forbidden character '{'"),
    ("label-with-close-brace", lambda: Frame(["}b", "ok"]), ValidationError,
     "label '}b' contains forbidden character '}'"),
    ("label-with-colon", lambda: Frame(["a:b", "ok"]), ValidationError, "label 'a:b' contains forbidden character ':'"),
    ("label-with-comma", lambda: Frame(["a,b", "ok"]), ValidationError, "label 'a,b' contains forbidden character ','"),
    ("empty-label", lambda: Frame(["", "ok"]), ValidationError, "empty label"),
    ("none-label", lambda: Frame([None, "ok"]), ValidationError, "label None is not a string"),
    ("zero-label", lambda: Frame([0, "ok"]), ValidationError, "label 0 is not a string"),
    ("int-label", lambda: Frame([5, "ok"]), ValidationError, "label 5 is not a string"),
    ("list-label", lambda: Frame([["a"], "ok"]), ValidationError, "label ['a'] is not a string"),
    # a label that cannot be hashed is no atom's label either, and neither is an argument that is no iterable
    ("unknown-index", lambda: W3.index("w9"), ValidationError, "unknown label 'w9'"),
    ("unknown-label", lambda: W3.subset(["w9"]), ValidationError, "unknown label 'w9'"),
    ("unhashable-in-subset", lambda: W3.subset([["w1"]]), ValidationError, "unknown label ['w1']"),
    ("unhashable-index", lambda: W3.index(["w1"]), ValidationError, "unknown label ['w1']"),
    ("unhashable-in", lambda: ["w1"] in W3.full, ValidationError, "unknown label ['w1']"),
    ("not-iterable", lambda: W3.subset(5), ValidationError, "unknown label 5"),
    # a string is one label or several run together, never a collection of its characters
    ("string-of-one-label", lambda: W2.subset("w1"), ValidationError,
     "subset labels must be a collection, not the string 'w1'"),
    ("string-of-two-labels", lambda: Frame(["a", "b"]).subset("ab"), ValidationError,
     "subset labels must be a collection, not the string 'ab'"),
    # nor are bytes, whose items are ints
    ("bytes-of-two-labels", lambda: Frame(["a", "b"]).subset(b"ab"), ValidationError,
     "subset labels must be a collection of strings, not b'ab'"),
    ("bytearray-of-one-label", lambda: Frame(["a", "b"]).subset(bytearray(b"a")), ValidationError,
     "subset labels must be a collection of strings, not bytearray(b'a')"),
    ("memoryview-of-two-labels", lambda: Frame(["a", "b"]).subset(memoryview(b"ab")), ValidationError,
     "subset labels must be a collection of strings, not a memoryview"),
    ("mask-past-the-powerset", lambda: Subset(W3, 1 << 3), ValidationError,
     "subset mask 0x8 outside the frame's powerset"),
    ("negative-mask", lambda: Subset(W3, -1), ValidationError, "subset mask -0x1 outside the frame's powerset"),
    ("float-mask", lambda: Subset(W3, 1.0), ValidationError, "subset mask 1.0 is not an integer"),
    ("cross-frame-union", lambda: W3.singleton("w1") | W2.singleton("w1"), FrameMismatchError,
     "frame mismatch: operands belong to different frames (w1 w2 w3 vs w1 w2)"),
    ("parse-frame-duplicate", lambda: parse_frame("frame x: a a"), ValidationError, "duplicate label 'a'"),
    ("parse-frame-100-labels", lambda: parse_frame("frame age: " + " ".join(map(str, range(100)))),
     ValidationError, "frame exceeds 64 atoms (got 100); subsets are machine-word bitmasks"),
    ("parse-frame-no-labels", lambda: parse_frame("frame empty:"), ValidationError,
     "frame declaration lists no labels"),
    ("parse-frame-malformed", lambda: parse_frame("frame missing-colon a b"), ValidationError,
     "malformed frame declaration: 'frame missing-colon a b'"),
    ("subset-literal-without-braces", lambda: parse_subset(W3, "w1 w3"), ValidationError,
     "malformed subset literal: 'w1 w3' (expected {label ...})"),
    ("subset-literal-without-close", lambda: parse_subset(W3, "{w1"), ValidationError,
     "malformed subset literal: '{w1' (expected {label ...})"),
    ("subset-literal-without-open", lambda: parse_subset(W3, "w1}"), ValidationError,
     "malformed subset literal: 'w1}' (expected {label ...})"),
    # evidence.py: masses
    ("empty-focal", lambda: MassFunction(W3, [(W3.empty, 0.5), (W3.full, 0.5)]), ValidationError,
     "focal element is the contradiction (empty set)"),
    ("negative-weight", lambda: MassFunction(W3, [(W3.full, 1.5), (W3.singleton("w1"), -0.5)]), ValidationError,
     "negative focal weight -0.5"),
    ("make-mass-zero-weight", lambda: make_mass(W3, [(W3.full, 1.0), (W3.singleton("w1"), 0.0)]), ValidationError,
     "non-positive focal weight 0.0"),
    ("nan-weight", lambda: MassFunction(W3, [(W3.singleton("w1"), NAN), (W3.full, 1.0)]), ValidationError,
     "non-finite focal weight nan"),
    ("inf-weight", lambda: MassFunction(W3, [(W3.singleton("w1"), INF), (W3.full, 1.0)]), ValidationError,
     "non-finite focal weight inf"),
    ("minus-inf-weight", lambda: MassFunction(W3, [(W3.singleton("w1"), -INF), (W3.full, 1.0)]), ValidationError,
     "non-finite focal weight -inf"),
    ("make-mass-nan-weight", lambda: make_mass(W3, [(W3.singleton("w1"), NAN), (W3.full, 1.0)]), ValidationError,
     "non-finite focal weight nan"),
    ("make-mass-inf-weight", lambda: make_mass(W3, [(W3.singleton("w1"), INF), (W3.full, 1.0)]), ValidationError,
     "non-finite focal weight inf"),
    ("make-mass-minus-inf-weight", lambda: make_mass(W3, [(W3.singleton("w1"), -INF), (W3.full, 1.0)]),
     ValidationError, "non-positive focal weight -inf"),
    # fsum raises OverflowError on these; it surfaces as a ValidationError
    ("overflowing-sum", lambda: MassFunction(W3, [(W3.singleton("w1"), 1e308), (W3.singleton("w2"), 1e308)]),
     ValidationError, "focal weights sum to inf, not 1 within 1e-06"),
    ("make-mass-overflowing-sum", lambda: make_mass(W3, [(W3.singleton("w1"), 1e308), (W3.singleton("w2"), 1e308)]),
     ValidationError, "focal weights sum to inf, not 1 within 1e-06"),
    ("weight-sum", lambda: MassFunction(W3, [(W3.full, 0.8)]), ValidationError,
     "focal weights sum to 0.8, not 1 within 1e-06"),
    ("cross-frame-focal", lambda: MassFunction(W3, [(W2.full, 1.0)]), FrameMismatchError,
     "frame mismatch: operands belong to different frames (w1 w2 w3 vs w1 w2)"),
    ("bel-table-21-atoms", MassFunction.vacuous(frame_of(21)).belief_table, ValidationError,
     "frame has 21 atoms; powerset tables are capped at 20"),
    ("pl-table-21-atoms", MassFunction.vacuous(frame_of(21)).plausibility_table, ValidationError,
     "frame has 21 atoms; powerset tables are capped at 20"),
    ("bel-table-64-atoms", MassFunction.vacuous(frame_of(64)).belief_table, ValidationError,
     "frame has 64 atoms; powerset tables are capped at 20"),
    ("pl-table-64-atoms", MassFunction.vacuous(frame_of(64)).plausibility_table, ValidationError,
     "frame has 64 atoms; powerset tables are capped at 20"),
    # text is not a number, even where `float` reads it, nor is anything else `float` cannot read; an int past
    # the float range is too large, and its message leaves out digits whose `repr` may itself raise
    ("underscore", lambda: ProbabilityDistribution(W3, ["0.2_5", 0.25, 0.5]), ValidationError,
     "probability value is not a number: '0.2_5'"),
    ("bytes", lambda: ProbabilityDistribution(W3, [b"0.25", 0.25, 0.5]), ValidationError,
     "probability value is not a number: b'0.25'"),
    ("foreign-digit", lambda: PossibilityDistribution(W3, ["\u0661", 0, 0]), ValidationError,
     "possibility value is not a number: '\u0661'"),
    ("breakpoint-text", lambda: FuzzySet.from_breakpoints(NumericScale(1, 3), [("1", "1.0")]), ValidationError,
     "breakpoint position is not a number: '1'"),
    ("make-mass-text", lambda: make_mass(W3, [(W3.full, "1")]), ValidationError, "focal weight is not a number: '1'"),
    ("bytearray-weight", lambda: MassFunction(W3, [(W3.full, bytearray(b"1"))]), ValidationError,
     "focal weight is not a number: bytearray(b'1')"),
    ("alpha-text", lambda: VagueStatement(W3.singleton("w1"), "0.5"), ValidationError,
     "confidence is not a number: '0.5'"),
    ("triangle-text", lambda: TrianglePoint.locate("0.5", 0), ValidationError,
     "triangle coordinate is not a number: '0.5'"),
    ("none-grade", lambda: PossibilityDistribution(W3, [1, 0.5, None]), ValidationError,
     "possibility value is not a number: None"),
    ("text-of-grades", lambda: PossibilityDistribution(W3, "1  "), ValidationError,
     "possibility value is not a number: '1'"),
    ("400-digit-prob", lambda: ProbabilityDistribution(W3, [10**400, 0, 0]), ValidationError,
     "probability value too large for a float"),
    ("5000-digit-pi", lambda: PossibilityDistribution(W3, [10**5000, 0, 0]), ValidationError,
     "possibility value too large for a float"),
    ("400-digit-weight", lambda: MassFunction(W3, [(W3.full, 10**400)]), ValidationError,
     "focal weight too large for a float"),
    ("5000-digit-make-mass", lambda: make_mass(W3, [(W3.full, 10**5000)]), ValidationError,
     "focal weight too large for a float"),
    ("400-digit-alpha", lambda: VagueStatement(W3.singleton("w1"), 10**400), ValidationError,
     "confidence too large for a float"),
    ("5000-digit-triangle", lambda: TrianglePoint.locate(10**5000, 0), ValidationError,
     "triangle coordinate too large for a float"),
    # evidence.py: the triangle and probabilities
    ("triangle-of-empty", lambda: STAIRCASE.triangle_point(W3.empty), ValidationError,
     "triangle point requires a contingent proposition (not empty, not full)"),
    ("triangle-of-full", lambda: STAIRCASE.triangle_point(W3.full), ValidationError,
     "triangle point requires a contingent proposition (not empty, not full)"),
    ("point-outside-triangle", lambda: TrianglePoint.locate(0.7, 0.7), ValidationError,
     "point (0.7, 0.7) lies outside the triangle (x + y > 1)"),
    # x + y - 1 is 1.00009e-12, past the tolerance by the measure that tags a point on the edge
    ("point-past-the-edge", lambda: TrianglePoint.locate(0.5, 0.5 + 1e-12), ValidationError,
     "point (0.5, 0.500000000001) lies outside the triangle (x + y > 1)"),
    ("nan-coordinate", lambda: TrianglePoint.locate(NAN, 0.0), ValidationError,
     "triangle coordinate nan outside [0, 1]"),
    ("negative-coordinate", lambda: TrianglePoint.locate(-0.5, 0.2), ValidationError,
     "triangle coordinate -0.5 outside [0, 1]"),
    ("coordinate-above-one", lambda: TrianglePoint.locate(2.0, -1.5), ValidationError,
     "triangle coordinate 2.0 outside [0, 1]"),
    ("probability-outside", lambda: ProbabilityDistribution(W3, [1.1, -0.05, -0.05]), ValidationError,
     "probability value 1.1 outside [0, 1]"),
    ("probability-sum", lambda: ProbabilityDistribution(W3, [0.5, 0.1, 0.1]), ValidationError,
     "probability values sum to 0.7, not 1 within 1e-06"),
    ("probability-count", lambda: ProbabilityDistribution(W3, [0.5, 0.5]), ValidationError,
     "expected 3 probability values, got 2"),
    # possibility.py
    ("pi-count", lambda: make_possibility(W3, [1.0, 0.5]), ValidationError, "expected 3 possibility values, got 2"),
    ("pi-above-one", lambda: make_possibility(W3, [1.0, 0.5, 1.2]), ValidationError,
     "possibility value 1.2 outside [0, 1]"),
    ("pi-below-zero", lambda: make_possibility(W3, [1.0, -0.1, 0.5]), ValidationError,
     "possibility value -0.1 outside [0, 1]"),
    ("normalize-all-zero", lambda: make_possibility(W3, [0.0, 0.0, 0.0]).normalize(), NormalizationError,
     "cannot normalize an all-zero distribution"),
    ("subnormal-decomposition", lambda: make_possibility(W3, [0.9, 0.5, 0.1]).as_mass(), NormalizationError,
     "level-cut decomposition requires a normalized distribution (max grade 1); call normalize() first"),
    # fuzzy.py: scales and their points
    ("point-below-scale", lambda: AGE.index(19), ValidationError, "point 19 outside scale 20..29"),
    ("membership-of-2.0", lambda: Y.membership(2.0), ValidationError, "scale point 2.0 is not an integer"),
    ("membership-of-2.5", lambda: Y.membership(2.5), ValidationError, "scale point 2.5 is not an integer"),
    ("membership-of-nan", lambda: Y.membership(NAN), ValidationError, "scale point nan is not an integer"),
    ("membership-of-text", lambda: Y.membership("2"), ValidationError, "scale point '2' is not an integer"),
    ("index-of-2.0", lambda: Y.scale.index(2.0), ValidationError, "scale point 2.0 is not an integer"),
    ("index-of-2.5", lambda: Y.scale.index(2.5), ValidationError, "scale point 2.5 is not an integer"),
    ("index-of-nan", lambda: Y.scale.index(NAN), ValidationError, "scale point nan is not an integer"),
    ("index-of-text", lambda: Y.scale.index("2"), ValidationError, "scale point '2' is not an integer"),
    ("float-bound", lambda: NumericScale(1.5, 3), ValidationError, "scale bound 1.5 is not an integer"),
    ("text-bounds", lambda: NumericScale("1", "3"), ValidationError, "scale bound '1' is not an integer"),
    ("bounds-out-of-order", lambda: NumericScale(5, 4), ValidationError, "scale bounds out of order: 5..4"),
    ("65-point-scale", lambda: NumericScale(0, 64), ValidationError, "scale 0..64 has more than 64 points"),
    ("huge-bounds-out-of-order", lambda: NumericScale(10**5000, 1), ValidationError,
     f"scale bounds out of order: {BIG}..1"),
    ("huge-bounds-too-many-points", lambda: NumericScale(1, 10**5000), ValidationError,
     f"scale 1..{BIG} has more than 64 points"),
    ("huge-bounds-too-long-to-label", lambda: NumericScale(10**5000, 10**5000 + 1), ValidationError,
     f"scale {BIG}..10000000...00000001 (5001 digits) has points too long to label"),
    ("huge-bounds-negative", lambda: NumericScale(-10**41, 10**40), ValidationError,
     "scale -10000000...00000000 (42 digits)..10000000...00000000 (41 digits) has more than 64 points"),
    ("huge-point", lambda: YOUNG.membership(10**5000), ValidationError, f"point {BIG} outside scale 20..29"),
    ("forty-digit-bounds", lambda: NumericScale(NINES, NINES - 1), ValidationError,
     f"scale bounds out of order: {NINES}..{NINES - 1}"),
    # fuzzy.py: fuzzy sets and conditioning
    ("breakpoints-not-increasing", lambda: FuzzySet.from_breakpoints(AGE, [(24, 1.0), (24, 0.5)]), ValidationError,
     "breakpoint positions must increase (got 24.0 then 24.0)"),
    ("nan-breakpoint-grade", lambda: FuzzySet.from_breakpoints(AGE, [(20, 1.0), (24, NAN), (29, 0.0)]),
     ValidationError, "non-finite breakpoint grade nan"),
    ("inf-breakpoint-grade", lambda: FuzzySet.from_breakpoints(AGE, [(20, 1.0), (24, INF), (29, 0.0)]),
     ValidationError, "non-finite breakpoint grade inf"),
    ("minus-inf-breakpoint-grade", lambda: FuzzySet.from_breakpoints(AGE, [(20, 1.0), (24, -INF), (29, 0.0)]),
     ValidationError, "non-finite breakpoint grade -inf"),
    ("nan-breakpoint-position", lambda: FuzzySet.from_breakpoints(AGE, [(NAN, 1.0), (25, 0.0)]), ValidationError,
     "non-finite breakpoint position nan"),
    ("inf-breakpoint-position", lambda: FuzzySet.from_breakpoints(AGE, [(20, 1.0), (INF, 0.0)]), ValidationError,
     "non-finite breakpoint position inf"),
    ("minus-inf-breakpoint-position", lambda: FuzzySet.from_breakpoints(AGE, [(-INF, 1.0), (25, 0.0)]),
     ValidationError, "non-finite breakpoint position -inf"),
    ("no-breakpoints", lambda: FuzzySet.from_breakpoints(AGE, []), ValidationError,
     "at least one breakpoint is required"),
    ("membership-count", lambda: FuzzySet(AGE, [1.0] * 9), ValidationError, "expected 10 possibility values, got 9"),
    ("membership-above-one", lambda: FuzzySet(AGE, [1.0] * 9 + [1.5]), ValidationError,
     "possibility value 1.5 outside [0, 1]"),
    ("fuzzy-event-frame-mismatch", lambda: fuzzy_event_probability(YOUNG, ProbabilityDistribution.uniform(
        NumericScale(0, 9).frame)), FrameMismatchError,
     "frame mismatch: operands belong to different frames (20 21 22 23 24 25 26 27 28 29 vs 0 1 2 3 4 5 6 7 8 9)"),
    ("subnormal-condition", lambda: possibilistic_condition(FuzzySet(AGE, [0.5] * 10, name="half")),
     NormalizationError, "membership function half is subnormal (max grade < 1); normalize it before conditioning"),
    ("null-fuzzy-event", lambda: bayes_fuzzy_condition(ProbabilityDistribution(AGE.frame, [0.0, 0.5, 0.5] + [0.0] * 7),
                                                       FuzzySet(AGE, [1.0] + [0.0] * 9)),
     ConditioningError, "cannot condition: the fuzzy event has probability 0.0 (below 1e-12)"),
    # one float below the least event probability it accepts; `test_seeded_laws` conditions at that least one
    ("fuzzy-event-an-ulp-below", lambda: bayes_fuzzy_condition(*null_event(NumericScale(1, 3), below=True)),
     ConditioningError, "cannot condition: the fuzzy event has probability 9.999999999999998e-13 (below 1e-12)"),
    # elicit.py
    ("empty-core", lambda: VagueStatement(W10.empty, 0.5), ValidationError,
     "statement core is the contradiction (empty set)"),
    ("full-core", lambda: VagueStatement(W10.full, 0.5), ValidationError,
     "statement core is the whole frame and carries no information"),
    ("alpha-above-one", lambda: VagueStatement(W10.singleton("w0"), 1.2), ValidationError,
     "confidence 1.2 outside [0, 1]"),
    ("alpha-below-zero", lambda: VagueStatement(W10.singleton("w0"), -0.1), ValidationError,
     "confidence -0.1 outside [0, 1]"),
]


def fault(call) -> CredalError:
    """What `call()` raises; anything other than a `CredalError` propagates, failing the test."""
    with pytest.raises(CredalError) as info:
        call()
    return info.value


@pytest.mark.parametrize("call,cls,message", [pytest.param(*row[1:], id=row[0]) for row in LIBRARY])
def test_library_fault(call, cls, message):
    exc = fault(call)
    assert type(exc) is cls
    assert str(exc) == message and "\n" not in message


SOURCE = pathlib.Path(credal.__file__).parent
LIBRARY_MODULES = ["elicit.py", "evidence.py", "frames.py", "fuzzy.py", "possibility.py"]


def raised_at(exc: CredalError) -> tuple[str, int]:
    """The file name and line of the innermost frame in credal's source that `exc`'s traceback passes."""
    return [(path.name, line) for frame, line in traceback.walk_tb(exc.__traceback__)
            if (path := pathlib.Path(frame.f_code.co_filename)).parent == SOURCE][-1]


def test_every_raise_is_some_rows():
    # which line of a `raise` spanning several the traceback names differs between interpreter versions
    reached = {raised_at(fault(call)) for _, call, _, _ in LIBRARY}
    unreached = []
    for name in LIBRARY_MODULES:
        for node in ast.walk(ast.parse((SOURCE / name).read_text())):
            if isinstance(node, ast.Raise) and not any(
                    file == name and node.lineno <= line <= node.end_lineno for file, line in reached):
                unreached.append(f"{name}:{node.lineno}")
    assert unreached == []
