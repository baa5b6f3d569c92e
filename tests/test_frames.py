import pytest

from credal import Frame, parse_frame, parse_subset
from laws import frame_of


class TestFrameConstruction:
    def test_preserves_declaration_order(self):
        frame = Frame(["h1", "h2", "h3", "h4"])
        assert frame.atoms == tuple(frame) == ("h1", "h2", "h3", "h4")
        assert len(frame) == 4
        assert frame.size == 4

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


class TestParseSubset:
    def test_literal(self, w3):
        assert parse_subset(w3, "{w1 w3}").labels() == ("w1", "w3")

    def test_empty_braces(self, w3):
        assert parse_subset(w3, "{}").is_empty


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
