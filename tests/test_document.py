import textwrap
from math import fsum

import pytest
from hypothesis import given, settings, strategies as st

from credal import DocumentError, MassFunction, parse_document

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


class TestErrors:
    def error(self, text: str) -> str:
        with pytest.raises(DocumentError) as info:
            parse_document(text)
        return str(info.value)

    def test_unrecognized_declaration(self):
        msg = self.error("frame w: a b\nbogus w: 1 2")
        assert msg.startswith("line 2:")
        assert "unrecognized" in msg

    def test_unknown_frame(self):
        assert "unknown frame 'v'" in self.error("pi p over v: 1 0")

    def test_unknown_scale_for_fuzzy(self):
        assert "unknown scale" in self.error("frame w: a b\nfuzzy f over w: (1,0.5)")

    def test_duplicate_names_within_kind(self):
        msg = self.error("frame w: a b\nframe w: c d")
        assert "duplicate frame name 'w'" in msg

    def test_same_name_across_kinds_is_fine(self):
        doc = parse_document("frame x: a b\npi x over x: 1 0\nprob x over x: 1 0")
        assert "x" in doc.pis and "x" in doc.probs

    def test_focal_line_outside_block(self):
        assert "outside a mass block" in self.error("frame w: a b\n{a} 1.0")

    def test_focal_after_block_closed(self):
        text = "frame w: a b\nmass m over w:\n{a} 1.0\npi p over w: 1 0\n{b} 0.5"
        msg = self.error(text)
        assert msg.startswith("line 5:")

    def test_empty_mass_block(self):
        msg = self.error("frame w: a b\nmass m over w:\npi p over w: 1 0")
        assert "declares no focal elements" in msg
        assert msg.startswith("line 2:")

    def test_mass_weight_error_reports_header_line(self):
        msg = self.error("frame w: a b\nmass m over w:\n{a} 0.4")
        assert msg.startswith("line 2:")
        assert "sum" in msg

    def test_malformed_focal(self):
        assert "malformed focal" in self.error("frame w: a b\nmass m over w:\n{a} ")

    def test_unknown_label_in_focal(self):
        msg = self.error("frame w: a b\nmass m over w:\n{c} 1.0")
        assert msg.startswith("line 3:")
        assert "unknown" in msg

    def test_label_of_another_frame_in_focal(self):
        msg = self.error("frame w: a b\nframe v: c d\nmass m over w:\n{a} 0.5\n{a c} 0.5")
        assert msg == "line 5: unknown label 'c'"

    def test_empty_focal_reports_header_line(self):
        msg = self.error("frame w: a b\nmass m over w:\n{a} 0.5\n{} 0.5")
        assert msg == "line 2: focal element is the contradiction (empty set)"

    def test_nan_weight_reports_header_line(self):
        msg = self.error("frame w: a b\nmass m over w:\n{a} 0.5\n{b} nan")
        assert msg == "line 2: non-finite focal weight nan"

    def test_bad_number(self):
        assert "not a number: 'x'" in self.error("frame w: a b\npi p over w: 1 x")

    def test_mass_inline_values_rejected(self):
        assert "no inline values" in self.error("frame w: a b\nmass m over w: 0.5 0.5")

    def test_malformed_scale(self):
        assert "malformed scale" in self.error("scale s: 1-5")

    def test_scale_bounds_order(self):
        assert "out of order" in self.error("scale s: 9..3")

    def test_malformed_statement(self):
        msg = self.error("frame w: a b\nstatement s over w: core {a} beta 0.5")
        assert "malformed statement" in msg

    def test_statement_alpha_out_of_range(self):
        assert "outside [0, 1]" in self.error("frame w: a b\nstatement s over w: core {a} alpha 1.5")

    def test_malformed_fuzzy(self):
        assert "malformed fuzzy" in self.error("scale s: 1..5\nfuzzy f over s: 0.5 0.7")

    def test_fuzzy_with_leftover_text(self):
        assert "malformed fuzzy" in self.error("scale s: 1..5\nfuzzy f over s: (1,0.5) junk")

    def test_wrong_value_count(self):
        msg = self.error("frame w: a b c\npi p over w: 1 0")
        assert "expected 3" in msg
        assert msg.startswith("line 2:")

    def test_line_numbers_count_comments_and_blanks(self):
        msg = self.error("# one\n\n# three\npi p over v: 1 0")
        assert msg.startswith("line 4:")


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


@given(mass_document(), st.data())
@settings(max_examples=60, deadline=None)
def test_parsed_mass_matches_public_constructor_and_duality(doc_lines, data):
    text, lines = doc_lines
    doc = parse_document(text)
    frame, mass = doc.frames["w"], doc.masses["m"]
    public = MassFunction(frame, [(frame.subset(labels), w) for labels, w in lines])
    assert list(mass.focal_elements()) == list(public.focal_elements())
    full = (1 << len(frame)) - 1
    for mask in data.draw(st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=8)):
        a = frame.from_mask(mask)
        assert abs(mass.plausibility(a) - (1.0 - mass.belief(a.complement()))) <= 1e-12
