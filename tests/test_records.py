"""The value classes behave as they did when they were frozen dataclasses.

Pins what callers can observe of the fourteen public value classes, the ten
former dataclasses and the four measure classes: `repr` strings, `==`
between instances of one class only, `hash` of equal values (the measures
stay unhashable), refusal of assignment and deletion, keyword
construction, and pickle, `copy` and `deepcopy` round trips of every public
class.
"""

import copy
import inspect
import pickle
from math import inf, nan

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import credal
from credal import (
    BracketReport,
    Classification,
    ConsistencyReport,
    Document,
    DocumentError,
    Frame,
    FrameMismatchError,
    FuzzySet,
    MassFunction,
    NumericScale,
    PossibilisticConditioning,
    PossibilityDistribution,
    ProbabilityDistribution,
    Subset,
    TrianglePoint,
    TriangleRegion,
    VagueStatement,
    ValidationError,
    bracket_check,
    consonant_approximate,
    parse_document,
    possibilistic_condition,
)
from credal._record import Record
from conftest import REPO_ROOT
from laws import frame_of

W = "Frame(atoms=('a', 'b', 'c'))"


def w() -> Frame:
    return Frame(atoms=("a", "b", "c"))


# each record built by keyword, and its repr; every factory call makes a fresh, equal instance
RECORDS = {
    "Frame": (w, W),
    "Subset": (lambda: Subset(frame=w(), mask=3), f"Subset(frame={W}, mask=3)"),
    "Classification": (lambda: Classification(tag="consonant", labels=frozenset({"consonant"})),
                       "Classification(tag='consonant', labels=frozenset({'consonant'}))"),
    "TrianglePoint": (lambda: TrianglePoint(x=0.25, y=0.25, region=TriangleRegion.INTERIOR, ignorance=0.5),
                      "TrianglePoint(x=0.25, y=0.25, region=<TriangleRegion.INTERIOR: 'interior'>, ignorance=0.5)"),
    "ConsistencyReport": (lambda: ConsistencyReport(consistent=False, subnormalization=0.75),
                          "ConsistencyReport(consistent=False, subnormalization=0.75)"),
    "VagueStatement": (lambda: VagueStatement(core=Subset(w(), 1), alpha=0.8),
                       f"VagueStatement(core=Subset(frame={W}, mask=1), alpha=0.8)"),
    "BracketReport": (lambda: BracketReport(holds=True, subsets_checked=8, max_violation=0.0, tightest_width=0.2,
                                            tightest_subset=Subset(w(), 1)),
                      "BracketReport(holds=True, subsets_checked=8, max_violation=0.0, tightest_width=0.2, "
                      f"tightest_subset=Subset(frame={W}, mask=1))"),
    "NumericScale": (lambda: NumericScale(lower=1, upper=3), "NumericScale(lower=1, upper=3)"),
    "PossibilisticConditioning": (
        lambda: PossibilisticConditioning(pi=PossibilityDistribution(w(), [1.0, 0.5, 0.0]), certainty=(0.5, 0.0, 0.0)),
        "PossibilisticConditioning(pi=PossibilityDistribution(1, 0.5, 0), certainty=(0.5, 0.0, 0.0))"),
    "Document": (lambda: Document(frames={"w": w()}),
                 f"Document(frames={{'w': {W}}}, scales={{}}, masses={{}}, pis={{}}, probs={{}}, fuzzies={{}}, "
                 "statements={})"),
    "MassFunction": (lambda: MassFunction(frame=w(), assignments={w().subset(["a"]): 0.5, w().full: 0.5}),
                     "MassFunction({a}: 0.5, {a b c}: 0.5)"),
    "ProbabilityDistribution": (lambda: ProbabilityDistribution(frame=w(), values=[0.5, 0.25, 0.25]),
                                "ProbabilityDistribution(0.5, 0.25, 0.25)"),
    "PossibilityDistribution": (lambda: PossibilityDistribution(frame=w(), values=[1.0, 0.5, 0.0]),
                                "PossibilityDistribution(1, 0.5, 0)"),
    "FuzzySet": (lambda: FuzzySet(scale=NumericScale(1, 3), values=[1.0, 0.5, 0.0], name="y"),
                 "FuzzySet(y: 1, 0.5, 0)"),
}
MEASURES = ["FuzzySet", "MassFunction", "PossibilityDistribution", "ProbabilityDistribution"]
# records whose fields all hash; PossibilisticConditioning holds an unhashable distribution, a Document dicts
HASHABLE = sorted(set(RECORDS) - {"PossibilisticConditioning", "Document", *MEASURES})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr(name):
    make, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_compare_equal(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_equal(name):
    make, _ = RECORDS[name]
    assert hash(make()) == hash(make())


def test_every_public_value_class_is_a_record():
    classes = {name for name in credal.__all__ if inspect.isclass(getattr(credal, name))}
    values = {name for name in classes if not issubclass(getattr(credal, name), (Exception, TriangleRegion))}
    assert values == set(RECORDS)
    assert all(issubclass(type(make()), Record) for make, _ in RECORDS.values())


@pytest.mark.parametrize("name", ["PossibilisticConditioning", "Document", *MEASURES])
def test_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(RECORDS[name][0]())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_other_classes_never_compare_equal(name):
    a = RECORDS[name][0]()
    for other in sorted(set(RECORDS) - {name}):
        b = RECORDS[other][0]()
        assert a.__eq__(b) is NotImplemented
        assert a != b and not a == b
    assert a.__eq__((a,)) is NotImplemented
    assert a != object()


def test_fields_differ_means_unequal():
    assert Subset(w(), 1) != Subset(w(), 2)
    assert Subset(w(), 1) != Subset(Frame("abd"), 1)
    assert NumericScale(1, 3) != NumericScale(1, 4)
    assert ConsistencyReport(True, 1.0) != ConsistencyReport(False, 1.0)
    doc = Document()
    doc.frames["w"] = w()
    assert doc != Document() and doc == RECORDS["Document"][0]()
    assert ProbabilityDistribution(w(), [0.5, 0.25, 0.25]) != ProbabilityDistribution(w(), [0.25, 0.5, 0.25])
    assert PossibilityDistribution(w(), [1.0, 0.5, 0.0]) != PossibilityDistribution(Frame("abd"), [1.0, 0.5, 0.0])
    assert MassFunction.vacuous(w()) != MassFunction.vacuous(Frame("abd"))
    assert MassFunction.vacuous(w()) != RECORDS["MassFunction"][0]()
    assert FuzzySet(NumericScale(1, 3), [1.0, 0.5, 0.0]) != FuzzySet(NumericScale(2, 4), [1.0, 0.5, 0.0])


def test_measures_compare_their_values_alone():
    # a fuzzy set's name, a mass's kept table and the focal order given do not take part in ==
    assert FuzzySet(NumericScale(1, 3), [1.0, 0.5, 0.0], name="y") == FuzzySet(NumericScale(1, 3), [1.0, 0.5, 0.0])
    kept = RECORDS["MassFunction"][0]()
    kept.belief_table()
    assert kept._bel is not None and kept == RECORDS["MassFunction"][0]()
    assert kept == MassFunction(w(), [(w().full, 0.5), (w().subset(["a"]), 0.5)])
    assert ProbabilityDistribution(w(), [0.5, 0.5, 0.0]).as_mass() == MassFunction(w(), {w().subset(["a"]): 0.5,
                                                                                           w().subset(["b"]): 0.5})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen(name):
    record = RECORDS[name][0]()
    before, twin = repr(record), RECORDS[name][0]()
    # the constructor's fields and every slot, derived ones (a kept table, a bit index) too
    for field in dict.fromkeys(record.__match_args__ + type(record).__slots__):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = 1
    assert repr(record) == before and record == twin


def test_positional_construction_follows_field_order():
    assert TrianglePoint(0.25, 0.25, TriangleRegion.INTERIOR, 0.5) == RECORDS["TrianglePoint"][0]()
    assert BracketReport(True, 8, 0.0, 0.2, Subset(w(), 1)) == RECORDS["BracketReport"][0]()
    assert Document({"w": w()}) == RECORDS["Document"][0]()
    assert Document().frames is not Document().frames


def test_hidden_fields_stay_out_of_eq_hash_and_repr():
    scale = NumericScale(1, 3)
    assert scale.frame == Frame(["1", "2", "3"])
    assert hash(scale) == hash((1, 3))
    assert hash(w()) == hash((("a", "b", "c"),))
    assert w()._bits == {"a": 1, "b": 2, "c": 4}


def public_objects():
    """One instance of every public value class, each with its derived state in use."""
    frame = w()
    mass = MassFunction(frame, [(frame.subset(["a"]), 0.5), (frame.subset(["a", "b"]), 0.25), (frame.full, 0.25)])
    mass.belief_table()  # the mass keeps its Bel table
    scale = NumericScale(20, 29)
    young = FuzzySet.from_breakpoints(scale, [(20, 1.0), (24, 1.0), (29, 0.0)], name="young")
    statement = VagueStatement(frame.subset(["a"]), 0.8)
    doc = parse_document((REPO_ROOT / "samples" / "horse_race.txt").read_text())
    objects = {name: make() for name, (make, _) in RECORDS.items()}
    objects.update({
        "MassFunction": mass,
        "ProbabilityDistribution": ProbabilityDistribution(frame, [0.5, 0.25, 0.25]),
        "PossibilityDistribution": PossibilityDistribution(frame, [1.0, 0.5, 0.0]),
        "FuzzySet": young,
        "TriangleRegion": TriangleRegion.POSSIBILISTIC_AXES,
        "Classification.of": mass.classify(),
        "TrianglePoint.of": mass.triangle_point(frame.subset(["a"])),
        "ConsistencyReport.of": consonant_approximate(mass)[1],
        "BracketReport.of": bracket_check(statement),
        "PossibilisticConditioning.of": possibilistic_condition(young),
        "Document.parsed": doc,
    })
    return objects


PUBLIC = public_objects()
ROUND_TRIPS = {f"pickle{p}": (lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p)))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)}
ROUND_TRIPS.update({"copy": copy.copy, "deepcopy": copy.deepcopy})


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_round_trip(name, how):
    original = PUBLIC[name]
    restored = ROUND_TRIPS[how](original)
    assert type(restored) is type(original)
    assert restored == original
    assert repr(restored) == repr(original)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_round_trip_keeps_derived_state(how):
    restored = ROUND_TRIPS[how](PUBLIC["MassFunction"])
    assert restored._bel == PUBLIC["MassFunction"]._bel
    assert restored.plausibility_table() == PUBLIC["MassFunction"].plausibility_table()
    assert ROUND_TRIPS[how](PUBLIC["Frame"])._bits == {"a": 1, "b": 2, "c": 4}
    scale = ROUND_TRIPS[how](PUBLIC["NumericScale"])
    assert scale.frame == PUBLIC["NumericScale"].frame
    doc = ROUND_TRIPS[how](PUBLIC["Document.parsed"])
    assert doc.frame_name(doc.masses["horse_leaky"].frame) == "horses"
    with pytest.raises(AttributeError):
        ROUND_TRIPS[how](PUBLIC["Subset"]).mask = 0


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("error", [ValidationError("bad"), DocumentError("bad", 3), FrameMismatchError("a b", "c d")],
                         ids=lambda error: type(error).__name__)
def test_errors_round_trip(error, how):
    restored = ROUND_TRIPS[how](error)
    assert type(restored) is type(error) and str(restored) == str(error)
    assert getattr(restored, "line", None) == getattr(error, "line", None)


def test_shallow_copy_of_a_document_shares_its_tables():
    doc = PUBLIC["Document.parsed"]
    shallow, deep = copy.copy(doc), copy.deepcopy(doc)
    assert shallow.masses is doc.masses
    assert deep.masses is not doc.masses and deep.masses == doc.masses


# the behaviour a frozen dataclass generates: fields shown in order, compared and hashed as one tuple
def model(record):
    values = tuple(getattr(record, name) for name in record.__match_args__)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(record.__match_args__, values))
    return f"{type(record).__qualname__}({shown})", values


floats = st.floats(allow_nan=True) | st.sampled_from([nan, inf, -inf, 0.0, -0.0, 5e-324])


@st.composite
def records(draw):
    """A hypothesis-drawn instance of one of the plain-field records."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        n = draw(st.integers(1, 8))
        return Subset(frame_of(n), draw(st.integers(0, (1 << n) - 1)))
    if kind == 1:
        return ConsistencyReport(draw(st.booleans()), draw(floats))
    if kind == 2:
        return TrianglePoint(draw(floats), draw(floats), draw(st.sampled_from(TriangleRegion)),
                             draw(st.none() | floats))
    if kind == 3:
        lower = draw(st.integers(-10**30, 10**30))
        return NumericScale(lower, lower + draw(st.integers(0, 63)))
    return Classification(draw(st.text(max_size=8)), frozenset(draw(st.lists(st.text(max_size=3), max_size=3))))


@given(records(), records())
# a loaded machine may draw slowly; that is not a fault of the classes
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_records_behave_as_their_dataclass_model(a, b):
    text, values = model(a)
    assert repr(a) == text
    assert hash(a) == hash(values)
    same_class = type(a) is type(b)
    assert (a == b) == (same_class and values == model(b)[1])
    assert (a != b) == (not a == b)
