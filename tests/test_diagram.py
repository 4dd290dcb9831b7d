"""Tangle construction, closures, arcs, and resolutions."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from pseudolink import notation
from pseudolink.diagram import (
    PseudoDiagram,
    Tangle,
    build_diagram,
    build_tangle,
    denominator_close,
    numerator_close,
)
from pseudolink.errors import DiagramError, TooManyPrecrossings, UnknownNode
from pseudolink.invariants import determinant

from oracles import rational_determinant


rational_words = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)


def word_symbol(word):
    return " ".join(str(a) for a in word)


class TestElementary:
    def test_zero_tangle_shape(self):
        t = Tangle.zero()
        assert not t.nodes
        assert t.pair[t.corners["nw"]] == t.corners["ne"]
        assert t.pair[t.corners["sw"]] == t.corners["se"]

    def test_crossing_has_four_slots(self):
        t = Tangle.crossing(0)
        assert len(t.nodes) == 1
        assert len(t.pair) == 8

    def test_twist_chain_matches_folded_sum(self):
        chain = Tangle.twist(0, 3)
        folded = Tangle.crossing(0) + Tangle.crossing(0) + Tangle.crossing(0)
        a = numerator_close(chain)
        b = numerator_close(folded)
        assert determinant(a) == determinant(b) == 3


class TestClosures:
    def test_numerator_of_zero_is_two_loops(self):
        d = numerator_close(Tangle.zero())
        assert d.crossing_count == 0
        assert d.loops == 2
        assert d.arcs().components == 2

    def test_denominator_of_zero_is_one_loop(self):
        d = denominator_close(Tangle.zero())
        assert d.loops == 1
        assert d.arcs().components == 1

    def test_figure_eight(self):
        assert determinant(build_diagram("2 2")) == 5

    def test_hopf_from_ramification(self):
        t = build_tangle(notation.parse("1,1"))
        assert len(t.nodes) == 2
        assert determinant(numerator_close(t)) == 2

    def test_pseudo_closure_counts(self):
        d = build_diagram("i,1")
        assert d.crossing_count == 2
        assert len(d.precrossing_indices()) == 1

    @given(rational_words)
    @settings(max_examples=60)
    def test_denominator_is_numerator_of_rotation(self, word):
        t = build_tangle(notation.parse(word_symbol(word)))
        left = denominator_close(t)
        right = numerator_close(t.rotate90())
        assert left.to_dict() == right.to_dict()


@given(rational_words)
@settings(max_examples=100)
def test_rational_determinant_oracle(word):
    d = build_diagram(word_symbol(word))
    assert determinant(d) == rational_determinant(word)


@given(rational_words)
@settings(max_examples=60)
def test_planarity(self_word):
    d = build_diagram(word_symbol(self_word))
    assert d.euler_ok()


@pytest.mark.parametrize("symbol", ["6*", "8*", "9*", "9*.i", "6*2:2:2 0", "8*i::i", "(i,i,i),3,-3"])
def test_planarity_polyhedral(symbol):
    assert build_diagram(symbol).euler_ok()


class TestStructuralIdentities:
    def test_product_is_sum_of_transpose(self):
        a = notation.parse("2")
        b = notation.parse("3")
        left = build_tangle(notation.Product(a, b))
        right = build_tangle(a).transpose() + build_tangle(b)
        assert numerator_close(left).to_dict() == numerator_close(right).to_dict()

    def test_ramification_is_folded_sum(self):
        a, b = notation.parse("2"), notation.parse("3")
        left = build_tangle(notation.Ramification((a, b)))
        right = build_tangle(a).transpose() + build_tangle(b).transpose()
        assert numerator_close(left).to_dict() == numerator_close(right).to_dict()

    def test_transpose_involution(self):
        t = build_tangle(notation.parse("2 1 i"))
        double = t.transpose().transpose()
        assert numerator_close(t).to_dict() == numerator_close(double).to_dict()

    def test_mirror_preserves_determinant(self):
        for symbol in ["3", "2 2", "2 1 1 2"]:
            t = build_tangle(notation.parse(symbol))
            assert determinant(numerator_close(t)) == determinant(numerator_close(t.mirror()))


class TestArcs:
    def test_trefoil_arcs(self):
        arcs = build_diagram("3").arcs()
        assert arcs.n_arcs == 3
        for over, uin, uout in arcs.classical.values():
            assert len({over, uin, uout}) == 3

    def test_unknot_one_crossing(self):
        d = numerator_close(Tangle.crossing(0))
        arcs = d.arcs()
        assert arcs.n_arcs == 1
        assert list(arcs.classical.values())[0] == (0, 0, 0)

    def test_pseudo_arcs_pass_through(self):
        arcs = build_diagram("i,1").arcs()
        assert arcs.n_arcs == 2  # single classical crossing cuts twice
        assert len(arcs.precrossing) == 1

    def test_crossingless_loop(self):
        d = denominator_close(Tangle.zero())
        arcs = d.arcs()
        assert arcs.n_arcs == 1
        assert not arcs.classical

    def test_shadow_has_no_classical_rows(self):
        arcs = build_diagram("i^3").arcs()
        assert not arcs.classical
        assert len(arcs.precrossing) == 3


class TestResolutions:
    def test_zero_precrossings_single_resolution(self):
        d = build_diagram("3")
        assert list(d.resolutions()) == [{}]

    def test_counts(self):
        assert len(list(build_diagram("(i,i,i),3,-3").resolutions())) == 8
        assert len(list(build_diagram("8*i.1.1.1.i.1.1.1").resolutions())) == 4

    def test_cap(self):
        d = build_diagram("i^3")
        with pytest.raises(TooManyPrecrossings):
            list(d.resolutions(cap=2))

    def test_resolve_preserves_input(self):
        d = build_diagram("3 i 3")
        pre = d.precrossing_indices()[0]
        resolved = d.resolve({pre: 0})
        assert d.nodes[pre].is_precrossing
        assert not resolved.nodes[pre].is_precrossing

    def test_resolve_unknown_node(self):
        d = build_diagram("3 i 3")
        with pytest.raises(UnknownNode):
            d.resolve({99: 0})
        with pytest.raises(UnknownNode):
            d.resolve({0: 0})  # node 0 is classical

    def test_resolution_of_word_matches_classical_word(self):
        d = build_diagram("3 i 3")
        pre = d.precrossing_indices()[0]
        dets = sorted(determinant(d.resolve({pre: c})) for c in (0, 1))
        assert dets == [3, 15]  # the classical words 3 -1 3 and 3 1 3

    def test_disjoint_resolves_commute(self):
        d = build_diagram("(i,i,i),3,-3")
        p1, p2, p3 = d.precrossing_indices()
        a = d.resolve({p1: 0}).resolve({p2: 1})
        b = d.resolve({p1: 0, p2: 1})
        assert a.to_dict() == b.to_dict()
        assert len(a.precrossing_indices()) == 1
        assert a.resolve({p3: 1}).to_dict() == d.resolve({p1: 0, p2: 1, p3: 1}).to_dict()

    def test_full_resolutions_classical_same_size(self):
        d = build_diagram("8*i.1.1.1.i.1.1.1")
        for assignment in d.resolutions():
            r = d.resolve(assignment)
            assert not r.precrossing_indices()
            assert r.crossing_count == d.crossing_count


class TestAlternation:
    def test_shadow_is_pseudoalternating(self):
        assert build_diagram("i^4").is_pseudoalternating()

    def test_alternating_classical(self):
        assert build_diagram("2 2").is_pseudoalternating()
        assert build_diagram("6*").is_pseudoalternating()

    def test_flipped_crossing_breaks_alternation(self):
        d = build_diagram("3")
        flipped = PseudoDiagram(
            [type(n)(n.slots, 1 - n.over if i == 0 else n.over) for i, n in enumerate(d.nodes)],
            dict(d.pair),
            d.loops,
        )
        assert d.is_pseudoalternating()
        assert not flipped.is_pseudoalternating()


class TestJson:
    @pytest.mark.parametrize("symbol", ["3 i 3", "9*.i", "2 2", "(i,i,i),3,-3"])
    def test_round_trip_bit_exact(self, symbol):
        d = build_diagram(symbol)
        blob = json.dumps(d.to_dict(), sort_keys=True)
        rebuilt = PseudoDiagram.from_dict(json.loads(blob))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == blob

    def test_free_loops_survive(self):
        d = numerator_close(Tangle.zero())
        assert PseudoDiagram.from_dict(d.to_dict()).loops == 2

    def test_invalid_kind_rejected(self):
        d = build_diagram("3").to_dict()
        d["nodes"][0]["kind"] = "neg"  # over says pos
        with pytest.raises(DiagramError):
            PseudoDiagram.from_dict(d)

    def test_bad_matching_rejected(self):
        d = build_diagram("3").to_dict()
        d["joins"][0] = [d["joins"][0][0], d["joins"][0][0]]
        with pytest.raises(DiagramError):
            PseudoDiagram.from_dict(d)

    def test_non_planar_map_rejected(self):
        # one precrossing whose opposite slots are joined: a single face, so
        # V - E + F = 1 - 2 + 1 = 0 (a torus map); adjacent slots would be planar
        node = {"id": 0, "kind": "pre", "slots": [0, 1, 2, 3], "over": None}
        planar = PseudoDiagram.from_dict({"nodes": [node], "joins": [[0, 1], [2, 3]]})
        assert planar.euler_ok()
        with pytest.raises(DiagramError, match="planar"):
            PseudoDiagram.from_dict({"nodes": [node], "joins": [[0, 2], [1, 3]]})
