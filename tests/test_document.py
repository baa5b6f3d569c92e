import re
import textwrap
from math import fsum

import pytest
from hypothesis import given, settings, strategies as st

from cli_runner import credal
from conftest import REPO_ROOT
from credal import DocumentError, Frame, MassFunction, ValidationError, parse_document

FULL_DOC = textwrap.dedent("""\
    # a frame, ways of weighing it, and a scale with a vague predicate
    frame w: w1 w2 w3

    mass m1 over w:
      {w1} 0.5
      {w1 w2} 0.3
      {w1 w2 w3} 0.2

    pi p1 over w: 1.0 0.7 0.3
    prob q1 over w: 0.2 0.3 0.5

    scale age: 20..29
    fuzzy young over age: (20,1.0) (24,1.0) (29,0.0)
    statement s1 over w: core {w1 w2} alpha 0.8
""")


class TestHappyPath:
    def test_all_tables_populated(self):
        doc = parse_document(FULL_DOC)
        assert set(doc.frames) == {"w"}
        assert set(doc.masses) == {"m1"}
        assert set(doc.pis) == {"p1"}
        assert set(doc.probs) == {"q1"}
        assert set(doc.scales) == {"age"}
        assert set(doc.fuzzies) == {"young"}
        assert set(doc.statements) == {"s1"}

    def test_mass_block_contents(self):
        doc = parse_document(FULL_DOC)
        m = doc.masses["m1"]
        frame = doc.frames["w"]
        assert m.weight_of(frame.singleton("w1")) == pytest.approx(0.5, abs=1e-12)
        assert m.weight_of(frame.full) == pytest.approx(0.2, abs=1e-12)

    def test_values_in_atom_order(self):
        doc = parse_document(FULL_DOC)
        assert doc.pis["p1"].values == (1.0, 0.7, 0.3)
        assert doc.probs["q1"].values == (0.2, 0.3, 0.5)

    def test_fuzzy_interpolates_breakpoints(self):
        doc = parse_document(FULL_DOC)
        assert doc.fuzzies["young"].membership(25) == pytest.approx(0.8, abs=1e-12)

    def test_statement_fields(self):
        doc = parse_document(FULL_DOC)
        s = doc.statements["s1"]
        assert s.core.labels() == ("w1", "w2")
        assert s.alpha == 0.8

    def test_frame_name_lookup(self):
        doc = parse_document(FULL_DOC)
        assert doc.frame_name(doc.frames["w"]) == "w"
        assert doc.frame_name(doc.scales["age"].frame) == "age"
        assert doc.frame_name(Frame(["x", "y"])) == "x y"

    def test_comments_and_blanks_ignored(self):
        doc = parse_document("# nothing\n\n   \nframe w: a b\n  # trailing comment line\n")
        assert set(doc.frames) == {"w"}

    def test_mass_block_closes_at_eof(self):
        doc = parse_document("frame w: a b\nmass m over w:\n{a} 1.0")
        assert len(doc.masses["m"]) == 1

    def test_scale_name_usable_as_frame(self):
        doc = parse_document("scale h: 1..3\nmass m over h:\n{1 3} 1.0\npi p over h: 1 1 0")
        frame = doc.scales["h"].frame
        assert doc.masses["m"].weight_of(frame.subset(["1", "3"])) == 1.0
        assert doc.pis["p"].values == (1.0, 1.0, 0.0)

    def test_negative_scale_bounds(self):
        doc = parse_document("scale z: -3..3")
        assert list(doc.scales["z"].points) == list(range(-3, 4))

    def test_repeated_label_collapses(self):
        doc = parse_document("frame w: a b\nmass m over w:\n{a a} 1.0")
        frame = doc.frames["w"]
        assert list(doc.masses["m"].focal_elements()) == [(frame.singleton("a"), 1.0)]

    def test_lines_naming_one_set_merge(self):
        doc = parse_document("frame w: a b\nmass m over w:\n{a} 0.25\n{a b} 0.5\n{b a} 0.25")
        frame = doc.frames["w"]
        assert list(doc.masses["m"].focal_elements()) == [(frame.singleton("a"), 0.25), (frame.full, 0.75)]

    def test_permuted_atoms_make_another_frame(self):
        doc = parse_document("frame a: x y z\nframe b: z y x\npi p over b: 1 0.5 0")
        assert doc.frame_name(doc.pis["p"].frame) == "b"

    def test_same_name_across_kinds_is_fine(self):
        doc = parse_document("frame x: a b\npi x over x: 1 0\nprob x over x: 1 0")
        assert "x" in doc.pis and "x" in doc.probs

    def test_exponents_and_signed_zero_still_parse(self):
        doc = parse_document("frame w: a b\npi p over w: 1E0 -0.0\nprob q over w: 1e-0 .0")
        assert doc.pis["p"].values == (1.0, 0.0) and doc.probs["q"].values == (1.0, 0.0)


def test_readme_examples_run():
    # README's document declares one object of every kind, and its library example runs as written
    readme = (REPO_ROOT / "README.md").read_text()
    [text] = re.findall(r"^```text\n(.*?)^```", readme, re.M | re.S)
    doc = parse_document(text)
    assert all((doc.frames, doc.masses, doc.pis, doc.probs, doc.scales, doc.fuzzies, doc.statements))
    [library] = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(library, {})


# more digits than Python reads into an int, and far more than a float holds
NINES = "9" * 5000

# Every document fault, once: (id, document, the whole message of its DocumentError, line prefix included)
FAULTS = [
    ("unrecognized-declaration", "frame w: a b\nbogus w: 1 2", "line 2: unrecognized declaration: 'bogus w: 1 2'"),
    ("unknown-frame", "pi p over v: 1 0", "line 1: unknown frame 'v'"),
    ("unknown-scale", "frame w: a b\nfuzzy f over w: (1,0.5)", "line 2: unknown scale 'w'"),
    ("duplicate-frame-name", "frame w: a b\nframe w: c d", "line 2: duplicate frame name 'w'"),
    ("duplicate-scale-name", "frame w: a b\nscale s: 1..2\nscale s: 3..4", "line 3: duplicate scale name 's'"),
    ("frame-repeats-frame", "frame a: x y z\nframe b: x y z", "line 2: frame 'b' repeats the atoms of frame 'a'"),
    ("frame-repeats-scale", "scale s: 1..3\nframe f: 1 2 3", "line 2: frame 'f' repeats the atoms of scale 's'"),
    ("scale-repeats-frame", "frame w: 1 2 3\nscale s: 1..3", "line 2: scale 's' repeats the atoms of frame 'w'"),
    ("malformed-frame", "frame w", "line 1: malformed frame declaration: 'frame w'"),
    ("frame-without-labels", "frame w:", "line 1: frame declaration lists no labels"),
    ("malformed-over", "frame w: a b\npi p over: 1 0",
     "line 2: malformed declaration: 'pi p over: 1 0' (expected <kind> <name> over <frame>: ...)"),
    ("focal-outside-block", "frame w: a b\n{a} 1.0", "line 2: focal line outside a mass block"),
    ("focal-after-block", "frame w: a b\nmass m over w:\n{a} 1.0\npi p over w: 1 0\n{b} 0.5",
     "line 5: focal line outside a mass block"),
    ("empty-block", "frame w: a b\nmass m over w:\npi p over w: 1 0", "line 2: mass 'm' declares no focal elements"),
    ("empty-block-at-end", "frame w: a b\nmass m over w:\n# none", "line 2: mass 'm' declares no focal elements"),
    ("weight-sum", "frame w: a b\nmass m over w:\n{a} 0.4", "line 2: focal weights sum to 0.4, not 1 within 1e-06"),
    ("malformed-focal", "frame w: a b\nmass m over w:\n{a} ",
     "line 3: malformed focal line: '{a}' (expected {label ...} weight)"),
    # a focal line is `{labels}`, space, then one token: a brace among the labels, no space or a second token
    # is malformed; a brace after the space is part of the weight token; labels are read before the weight
    ("focal-without-space", "frame w: a b\nmass m over w:\n{a}0.5",
     "line 3: malformed focal line: '{a}0.5' (expected {label ...} weight)"),
    ("focal-two-weights", "frame w: a b\nmass m over w:\n{a} 0.5 0.5",
     "line 3: malformed focal line: '{a} 0.5 0.5' (expected {label ...} weight)"),
    ("focal-second-close", "frame w: a b\nmass m over w:\n{a}} 0.5",
     "line 3: malformed focal line: '{a}} 0.5' (expected {label ...} weight)"),
    ("focal-second-open", "frame w: a b\nmass m over w:\n{a {b} 0.5",
     "line 3: malformed focal line: '{a {b} 0.5' (expected {label ...} weight)"),
    ("focal-brace-in-weight", "frame w: a b\nmass m over w:\n{a} 0.5}", "line 3: not a number: '0.5}'"),
    ("label-before-weight", "frame w: a b\nmass m over w:\n{c c} half", "line 3: unknown label 'c'"),
    ("unknown-label", "frame w: a b\nmass m over w:\n{c} 1.0", "line 3: unknown label 'c'"),
    ("foreign-label", "frame w: a b\nframe v: c d\nmass m over w:\n{a} 0.5\n{a c} 0.5", "line 5: unknown label 'c'"),
    ("bad-focal-weight", "frame w: a b\nmass m over w:\n{a} 0.5\n{b} half", "line 4: not a number: 'half'"),
    ("empty-focal", "frame w: a b\nmass m over w:\n{a} 0.5\n{} 0.5",
     "line 2: focal element is the contradiction (empty set)"),
    ("late-nan-weight", "frame w: a b\nmass m over w:\n{a} 0.5\n{b} nan", "line 2: non-finite focal weight nan"),
    ("nan-weight", "frame w: a b\nmass m over w:\n  {a} nan\n  {b} 1.0\n", "line 2: non-finite focal weight nan"),
    ("inf-weight", "frame w: a b\nmass m over w:\n  {a} inf\n  {b} 1.0\n", "line 2: non-finite focal weight inf"),
    ("overflowing-sum", "frame w: a b\nmass m over w:\n  {a} 1e308\n  {b} 1e308\n",
     "line 2: focal weights sum to inf, not 1 within 1e-06"),
    ("bad-number", "frame w: a b\npi p over w: 1 x", "line 2: not a number: 'x'"),
    # `float` reads `_` digit separators and any script's digits; a document's numbers are ASCII decimals
    ("underscore-weight", "frame w: a b\nmass m over w:\n{a} 0.2_5\n{b} 0.75", "line 3: not a number: '0.2_5'"),
    ("foreign-pi-digit", "frame w: a b\npi p over w: \u0661 0", "line 2: not a number: '\u0661'"),
    ("wide-alpha", "frame w: a b\nstatement s over w: core {a} alpha \uff10.5", "line 2: not a number: '\uff10.5'"),
    ("underscore-grade", "scale s: 1..5\nfuzzy f over s: (1,1_0)", "line 2: not a number: '1_0'"),
    ("foreign-scale-digits", "scale s: \u0661..\u0663",
     "line 1: malformed scale declaration: 'scale s: \u0661..\u0663' (expected scale <name>: <lo>..<hi>)"),
    ("foreign-position", "scale s: 1..3\nfuzzy f over s: (\u0661,1.0)",
     "line 2: malformed fuzzy declaration: expected breakpoints (<x>,<mu>), got '(\u0661,1.0)'"),
    ("inline-mass-values", "frame w: a b\nmass m over w: 0.5 0.5",
     "line 2: mass declaration takes no inline values; focal lines follow"),
    ("malformed-scale", "scale s: 1-5",
     "line 1: malformed scale declaration: 'scale s: 1-5' (expected scale <name>: <lo>..<hi>)"),
    ("scale-bounds-order", "scale s: 9..3", "line 1: scale bounds out of order: 9..3"),
    ("malformed-statement", "frame w: a b\nstatement s over w: core {a} beta 0.5",
     "line 2: malformed statement: expected core {label ...} alpha <value>, got 'core {a} beta 0.5'"),
    ("alpha-range", "frame w: a b\nstatement s over w: core {a} alpha 1.5", "line 2: confidence 1.5 outside [0, 1]"),
    ("alpha-text", "frame w: a b\nstatement s over w: core {a} alpha high", "line 2: not a number: 'high'"),
    ("malformed-fuzzy", "scale s: 1..5\nfuzzy f over s: 0.5 0.7",
     "line 2: malformed fuzzy declaration: expected breakpoints (<x>,<mu>), got '0.5 0.7'"),
    ("fuzzy-leftover", "scale s: 1..5\nfuzzy f over s: (1,0.5) junk",
     "line 2: malformed fuzzy declaration: expected breakpoints (<x>,<mu>), got '(1,0.5) junk'"),
    ("grade-text", "scale s: 1..5\nfuzzy f over s: (1,high)", "line 2: not a number: 'high'"),
    ("nan-grade", "scale age: 1..3\nfuzzy y over age: (1,1.0) (2,nan) (3,0.0)\n",
     "line 2: non-finite breakpoint grade nan"),
    ("inf-grade", "scale age: 1..3\nfuzzy y over age: (1,1.0) (2,inf) (3,0.0)\n",
     "line 2: non-finite breakpoint grade inf"),
    ("minus-inf-grade", "scale age: 1..3\nfuzzy y over age: (1,1.0) (2,-inf) (3,0.0)\n",
     "line 2: non-finite breakpoint grade -inf"),
    ("wrong-value-count", "frame w: a b c\npi p over w: 1 0", "line 2: expected 3 possibility values, got 2"),
    ("comments-count", "# one\n\n# three\npi p over v: 1 0", "line 4: unknown frame 'v'"),
    # integers past the float range, and past the interpreter's digit cap
    ("400-digit-breakpoint", f"scale age: 1..3\nfuzzy y over age: (1,1.0) ({NINES[:400]},0.0)\n",
     "line 2: breakpoint or scale point too large for a float"),
    ("400-digit-scale-points", f"scale age: {NINES[:399]}8..{NINES[:400]}\nfuzzy y over age: (1,1.0) (2,0.0)\n",
     "line 2: breakpoint or scale point too large for a float"),
    ("5000-digit-scale-bound", f"scale s: 1..{NINES}\n", "line 1: integer of 5000 digits is too long"),
    ("4300-digit-scale-bound", f"scale s: 1..{NINES[:4300]}\n",
     "line 1: scale 1..99999999...99999999 (4300 digits) has more than 64 points"),
    ("5000-digit-breakpoint", f"scale age: 1..3\nfuzzy y over age: (1,1.0) ({NINES},0.0)\n",
     "line 2: integer of 5000 digits is too long"),
    # a line with two faults reports the first that the parser checks: syntax (a frame line's labels included),
    # then a duplicate name, then the object's construction; an open mass block closes before any of them
    ("frame-label-before-name", "frame w: a b\nframe w: c c", "line 2: duplicate label 'c'"),
    ("scale-name-before-bounds", "scale s: 1..3\nscale s: 9..3", "line 2: duplicate scale name 's'"),
    ("pi-name-before-frame", "frame w: a b\npi p over w: 1 0\npi p over v: 1 0", "line 3: duplicate pi name 'p'"),
    ("mass-name-before-values", "frame w: a b\nmass m over w:\n{a} 1.0\nmass m over w: 0.5",
     "line 4: duplicate mass name 'm'"),
    ("open-block-before-name", "frame w: a b\nmass m over w:\n{a} 0.5\nmass m over w:\n{a} 1.0",
     "line 2: focal weights sum to 0.5, not 1 within 1e-06"),
    ("fuzzy-name-before-scale", "scale s: 1..3\nfuzzy f over s: (1,1.0)\nfuzzy f over t: junk",
     "line 3: duplicate fuzzy name 'f'"),
    ("mass-frame-before-values", "frame w: a b\nmass m over v: 0.5", "line 2: unknown frame 'v'"),
]
FAULT_ROWS = [pytest.param(text, message, id=name) for name, text, message in FAULTS]


@pytest.mark.parametrize("text,message", FAULT_ROWS)
def test_parse_document_raises_the_fault(text, message):
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    fault = info.value
    assert str(fault) == message
    # the line is attached once: the message names it, and only once
    assert message.startswith(f"line {fault.line}: ") and not re.match(r"line \d+: line ", message)
    # the category beneath: what the object's checks raised, except a mass block with nothing to build
    if message.endswith("declares no focal elements"):
        assert fault.__cause__ is None
    else:
        assert type(fault.__cause__) is ValidationError


@pytest.mark.parametrize("text,message", FAULT_ROWS)
def test_cli_prints_the_fault(text, message):
    # every command parses the whole document before it looks a name up, so one command line serves every row
    result = credal("classify", "m", doc=text)
    assert result.exit_code == 1
    assert result.stderr == f"Error: {message}\n"
    assert len(result.stderr.encode()) < 200


# any whitespace `str.split` knows, the unit separator \x1f included, spaces the labels and the weight
@pytest.mark.parametrize("line,labels", [
    ("{a}\xa01.0", ["a"]),
    ("{a}\x1f1.0", ["a"]),
    ("{a\u2003b}\u30001.0", ["a", "b"]),
    ("{ a  b }\t1.0", ["a", "b"]),
], ids=["nbsp", "unit-separator", "em-and-ideographic-space", "padded-labels"])
def test_focal_line_spacing(line, labels):
    doc = parse_document(f"frame w: a b\nmass m over w:\n{line}")
    frame = doc.frames["w"]
    assert list(doc.masses["m"].focal_elements()) == [(frame.subset(labels), 1.0)]


@st.composite
def mass_document(draw):
    """Document text for one mass over a 1-64 atom frame, plus its focal lines as (labels, weight).

    Lines draw from a small pool of sets, so some name one set twice; labels
    come in any order, may repeat, and weights reach down to 1e-300.
    """
    n = draw(st.integers(min_value=1, max_value=64))
    atoms = [f"a{i}" for i in range(n)]
    pool = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=6))
    masks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    raw = draw(st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=len(masks), max_size=len(masks)))
    total = fsum(raw)
    lines = []
    for mask, w in zip(masks, raw):
        labels = [a for i, a in enumerate(atoms) if mask >> i & 1]
        labels = draw(st.permutations(labels + draw(st.lists(st.sampled_from(labels), max_size=2))))
        lines.append((labels, w / total))
    text = "\n".join([f"frame w: {' '.join(atoms)}", "mass m over w:"]
                     + [f"  {{{' '.join(labels)}}} {w!r}" for labels, w in lines])
    return text, lines


@given(mass_document())
@settings(max_examples=60)
def test_parsed_mass_matches_public_constructor(doc_lines):
    # focal set by focal set and bit for bit, so the parsed mass obeys every law the public one does
    text, lines = doc_lines
    doc = parse_document(text)
    frame, mass = doc.frames["w"], doc.masses["m"]
    public = MassFunction(frame, [(frame.subset(labels), w) for labels, w in lines])
    assert list(mass.focal_elements()) == list(public.focal_elements())


ATOMS_64 = " ".join(f"a{i}" for i in range(64))


# 64 numbers each rounded to 6 digits once summed 1e-6 or more away from 1, so the reader refused them
@pytest.mark.parametrize("doc,argv,reader", [
    (f"frame w: {ATOMS_64}\npi p over w: " + " ".join(repr(1 - i * 0.012345649) for i in range(64)) + "\n",
     ["convert", "p"], ["cardinality", "p_mass"]),
    (f"frame w: {ATOMS_64}\nstatement s over w: core {{a0 a1 a2 a3 a4 a5 a6 a7 a8}} alpha 0.92072265625\n",
     ["elicit", "--statement", "s", "--method", "maxent"], ["query", "Bel", "s_maxent", "{a0}"]),
], ids=["convert", "elicit"])
def test_declaring_output_feeds_back(doc, argv, reader):
    written = credal(*argv, doc=doc)
    assert written.exit_code == 0
    assert credal(*reader, doc=doc + written.stdout).exit_code == 0
