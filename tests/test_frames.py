import pytest

from credal import Frame, FrameMismatchError, Subset, ValidationError, parse_frame, parse_subset
from laws import frame_of


class TestFrameConstruction:
    def test_preserves_declaration_order(self):
        frame = Frame(["h1", "h2", "h3", "h4"])
        assert frame.atoms == tuple(frame) == ("h1", "h2", "h3", "h4")
        assert len(frame) == 4
        assert frame.size == 4

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="duplicate label"):
            Frame(["a", "a"])

    def test_rejects_empty_frame(self):
        with pytest.raises(ValidationError):
            Frame([])

    def test_rejects_more_than_64_atoms(self):
        frame_of(64)  # at the cap is fine
        with pytest.raises(ValidationError, match="64"):
            frame_of(65)

    @pytest.mark.parametrize("label,message", [
        ("a b", "label 'a b' contains forbidden character ' '"),
        ("a{", "label 'a{' contains forbidden character '{'"),
        ("}b", "label '}b' contains forbidden character '}'"),
        ("a:b", "label 'a:b' contains forbidden character ':'"),
        ("a,b", "label 'a,b' contains forbidden character ','"),
        ("", "empty label"),
        (None, "label None is not a string"),
        (0, "label 0 is not a string"),
        (5, "label 5 is not a string"),
        (["a"], "label ['a'] is not a string")],
        ids=["a b", "a{", "}b", "a:b", "a,b", "", "None", "0", "5", "list"])
    def test_rejects_bad_label(self, label, message):
        with pytest.raises(ValidationError) as info:
            Frame([label, "ok"])
        assert str(info.value) == message

    def test_index_of_unknown_label(self, w3):
        with pytest.raises(ValidationError, match="unknown label 'w9'"):
            w3.index("w9")

    @pytest.mark.parametrize("n", [1, 2, 63, 64])
    def test_index_and_membership_of_every_atom(self, n):
        frame = frame_of(n)
        for i, atom in enumerate(frame.atoms):
            assert frame.index(atom) == i
            assert atom in frame.subset([atom])


class TestParseFrame:
    def test_basic(self):
        name, frame = parse_frame("frame horses: h1 h2 h3 h4")
        assert name == "horses"
        assert frame.atoms == ("h1", "h2", "h3", "h4")

    def test_duplicate_label_named_in_error(self):
        with pytest.raises(ValidationError, match="duplicate label 'a'"):
            parse_frame("frame x: a a")

    def test_oversized(self):
        labels = " ".join(str(i) for i in range(100))
        with pytest.raises(ValidationError, match="64"):
            parse_frame(f"frame age: {labels}")

    def test_no_labels(self):
        with pytest.raises(ValidationError, match="no labels"):
            parse_frame("frame empty:")

    def test_malformed(self):
        with pytest.raises(ValidationError, match="malformed"):
            parse_frame("frame missing-colon a b")


class TestSubsets:
    def test_subset_of_collapses_duplicates(self, w3):
        s = w3.subset(["w1", "w2", "w1"])
        assert s.cardinality == 2
        assert s.labels() == ("w1", "w2")

    def test_empty_subset_is_contradiction(self, w3):
        s = w3.subset([])
        assert s.is_empty
        assert s.cardinality == 0
        assert not s

    # a label that cannot be hashed is no atom's label either, and neither is an argument that is no iterable
    @pytest.mark.parametrize("lookup,message", [
        (lambda frame: frame.subset(["w9"]), "unknown label 'w9'"),
        (lambda frame: frame.subset([["w1"]]), "unknown label ['w1']"),
        (lambda frame: frame.index(["w1"]), "unknown label ['w1']"),
        (lambda frame: ["w1"] in frame.full, "unknown label ['w1']"),
        (lambda frame: frame.subset(5), "unknown label 5")],
        ids=["outside-the-frame", "unhashable-in-subset", "unhashable-index", "unhashable-in", "not-iterable"])
    def test_unknown_label(self, w3, lookup, message):
        with pytest.raises(ValidationError) as info:
            lookup(w3)
        assert str(info.value) == message

    def test_complement(self, w3):
        assert (~w3.singleton("w1")).labels() == ("w2", "w3")

    def test_entailment(self, w3):
        assert w3.singleton("w1") <= w3.subset(["w1", "w2"])
        assert not w3.subset(["w1", "w3"]) <= w3.subset(["w1", "w2"])

    def test_intersection(self, w3):
        meet = w3.subset(["w1", "w2"]) & w3.subset(["w2", "w3"])
        assert meet.labels() == ("w2",)
        assert len(meet) == 1

    def test_union_and_membership(self, w3):
        join = w3.singleton("w1") | w3.singleton("w3")
        assert join.labels() == tuple(join) == ("w1", "w3")
        assert "w1" in join and "w2" not in join

    def test_str_form(self, w3):
        assert str(w3.subset(["w3", "w1"])) == "{w1 w3}"
        assert str(w3.empty) == "{}"

    def test_mask_out_of_range(self, w3):
        with pytest.raises(ValidationError):
            Subset(w3, 1 << 3)
        with pytest.raises(ValidationError):
            Subset(w3, -1)

    def test_mask_must_be_an_integer(self, w3):
        with pytest.raises(ValidationError, match="subset mask 1.0 is not an integer"):
            Subset(w3, 1.0)

    def test_cross_frame_operations_rejected(self, w3):
        other = Frame(["w1", "w2"])
        with pytest.raises(FrameMismatchError):
            w3.singleton("w1") | other.singleton("w1")


class TestParseSubset:
    def test_literal(self, w3):
        assert parse_subset(w3, "{w1 w3}").labels() == ("w1", "w3")

    def test_empty_braces(self, w3):
        assert parse_subset(w3, "{}").is_empty

    def test_malformed(self, w3):
        with pytest.raises(ValidationError, match="malformed subset literal"):
            parse_subset(w3, "w1 w3")


def test_inclusion_is_a_partial_order():
    # exhaustive over every subset pair/triple of a 5-atom frame
    frame = Frame(["a", "b", "c", "d", "e"])
    subsets = list(frame.all_subsets())
    for a in subsets:
        assert a <= a
        for b in subsets:
            if a <= b and b <= a:
                assert a == b
    # transitivity via the bitmask characterization on sampled triples
    for a in subsets:
        for b in subsets:
            if not a <= b:
                continue
            for c in subsets:
                if b <= c:
                    assert a <= c
