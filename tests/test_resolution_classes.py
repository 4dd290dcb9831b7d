"""Twist classes of precrossings: one determinant per Reidemeister II class.

The class-based pseudodeterminant and colorability are checked against the
naive per-assignment oracles on symbols hypothesis builds from pseudotwists,
products, sums, ramifications, reflections and polyhedral slots, and on
the same diagrams after a JSON round trip with relabelled nodes and
endpoints.  Colorability is read off the class determinants; the oracle
for it counts colorings with a Smith form per assignment.  A plain JSON
round trip must keep every invariant, strong colorability included.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pseudolink import invariants, linalg
from pseudolink.diagram import Node, PseudoDiagram, build_diagram

from oracles import colorable_from_determinants, resolution_determinants, smith_colorable

MAX_PRECROSSINGS = 5
MAX_CROSSINGS = 20

leaves = st.sampled_from(["0", "1", "2", "-1", "-2", "i", "i", "i^2", "i^2", "i^3", "-i"])


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda t: f"({t[0]}) ({t[1]})"),
        pairs.map(lambda t: f"({t[0]})+({t[1]})"),
        pairs.map(lambda t: f"(({t[0]}),({t[1]}))"),
        children.map(lambda t: f"-({t})"),
    )


tangles = st.recursive(leaves, _extend, max_leaves=4)
polyhedral = st.builds(
    lambda head, slots: head + ".".join(f"({s})" for s in slots),
    st.sampled_from(["6*", "8*", "9*"]),
    st.lists(st.sampled_from(["1", "2", "-1", "i", "i^2", "i^3", "2 i", "i,1"]), min_size=1, max_size=4),
)
symbols = st.one_of(tangles, polyhedral)


def _bounded(symbol):
    d = build_diagram(symbol)
    return len(d.precrossing_indices()) <= MAX_PRECROSSINGS and d.crossing_count <= MAX_CROSSINGS


def _relabelled(d, rng):
    """from_dict(to_dict(d)) with the nodes reordered and the endpoints renamed."""
    data = d.to_dict()
    order = list(range(len(data["nodes"])))
    rng.shuffle(order)
    ends = sorted({e for node in data["nodes"] for e in node["slots"]})
    names = dict(zip(ends, rng.sample(range(10 * len(ends) + 1), len(ends))))
    nodes = []
    for new_id, old_id in enumerate(order):
        entry = dict(data["nodes"][old_id], id=new_id)
        entry["slots"] = [names[e] for e in entry["slots"]]
        nodes.append(entry)
    joins = [[names[a], names[b]] for a, b in data["joins"]]
    return PseudoDiagram.from_dict({"nodes": nodes, "joins": joins, "free_loops": data["free_loops"]})


def _check_against_oracle(d):
    want = resolution_determinants(d)
    report = invariants.pseudodeterminant(d)
    assert report.pseudodeterminant == math.gcd(*want)  # from the 2^g corner classes
    assert [r.det for r in report.resolutions] == want
    assert len(report.resolutions) == 2 ** len(d.precrossing_indices())
    for p in range(2, 14):
        assert invariants.is_colorable(d, p) == colorable_from_determinants(want, p), p
    assert invariants.coloring_numbers(d, 13) == {
        p for p in range(2, 14) if colorable_from_determinants(want, p)
    }


@given(symbols.filter(_bounded), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_classes_match_per_assignment_oracle(symbol, rng):
    d = build_diagram(symbol)
    _check_against_oracle(d)
    _check_against_oracle(_relabelled(d, rng))


@given(symbols.filter(_bounded), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_determinant_rule_matches_smith_counts(symbol, rng):
    d = build_diagram(symbol)
    for diagram in (d, _relabelled(d, rng)):
        for p in range(2, 14):
            assert invariants.is_colorable(diagram, p) == smith_colorable(diagram, p), p


@given(symbols.filter(_bounded))
@settings(max_examples=40, deadline=None)
def test_json_round_trip_keeps_invariants(symbol):
    d = build_diagram(symbol)
    copy = PseudoDiagram.from_dict(d.to_dict())
    assert copy.crossing_count == d.crossing_count
    assert (copy.arcs().n_arcs, copy.arcs().components) == (d.arcs().n_arcs, d.arcs().components)
    assert invariants.pseudodeterminant(copy).to_dict() == invariants.pseudodeterminant(d).to_dict()
    for p in range(2, 8):
        assert invariants.is_strong_colorable(copy, p) == invariants.is_strong_colorable(d, p), p


def test_is_colorable_makes_no_smith_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("is_colorable reached the Smith form")

    monkeypatch.setattr(linalg, "solution_space_mod", refuse)
    monkeypatch.setattr(invariants, "solution_space_mod", refuse)
    assert invariants.is_colorable(build_diagram("(13) (i^5) (13)"), 13)
    assert not invariants.is_colorable(build_diagram("3 i 3"), 5)
    with pytest.raises(AssertionError):
        invariants.is_strong_colorable(build_diagram("3 i 3"), 3)


def _keys(d):
    return set(invariants._ClassTable(d, 20).keys())


def test_pseudotwist_has_n_plus_one_classes():
    for n in range(1, 8):
        d = build_diagram(f"(3) (i^{n}) (5)")
        assert len({group for group, _ in d.twist_classes().values()}) == 1
        assert len(_keys(d)) == n + 1


def test_polyhedral_slots_multiply_classes():
    # three separate pseudotwists: (3 + 1)(5 + 1)(5 + 1) classes
    assert len(_keys(build_diagram("9*.(i^3):.(i^5):.(i^5)"))) == 144


def test_one_determinant_per_class(monkeypatch):
    calls = []
    real = invariants.determinant
    monkeypatch.setattr(invariants, "determinant", lambda d: calls.append(1) or real(d))
    report = invariants.pseudodeterminant(build_diagram("(21) (i^11) (31)"))
    assert len(report.resolutions) == 2048
    assert len(calls) == 12
    assert len({r.det for r in report.resolutions}) == 12


def test_pseudodeterminant_needs_only_the_corner_classes(monkeypatch):
    det_calls = []
    walks = []
    real_det = invariants.determinant
    real_walk = PseudoDiagram.resolutions
    monkeypatch.setattr(invariants, "determinant", lambda d: det_calls.append(1) or real_det(d))
    monkeypatch.setattr(PseudoDiagram, "resolutions", lambda d, cap: walks.append(1) or real_walk(d, cap))
    report = invariants.pseudodeterminant(build_diagram("9*.(i^3):.(i^5):.(i^5)"))
    assert report.pseudodeterminant == 3
    assert (len(det_calls), len(walks)) == (8, 0)  # 2^3 corners of 4 x 6 x 6 classes
    assert len(report.resolutions) == 8192
    assert (len(det_calls), len(walks)) == (144, 1)


def test_composite_modulus_reads_every_class():
    # one twist group with class determinants 3, 5, 7: the corners 3 and 5
    # both have 15-colorings, the middle class does not
    d = build_diagram("(1) (i^2),(4)")
    assert invariants.coloring_numbers(d, 15) == set()
    assert not invariants.is_colorable(d, 15)


def _random_map(rng, n):
    ends = list(range(4 * n))
    rng.shuffle(ends)
    pair = {}
    for a, b in zip(ends[::2], ends[1::2]):
        pair[a] = b
        pair[b] = a
    nodes = [Node((4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3), rng.choice((None, None, 0, 1))) for k in range(n)]
    return PseudoDiagram(nodes, pair, 0)


@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_random_maps_never_raise_and_only_planar_ones_group(n, rng):
    d = _random_map(rng, n)
    classes = d.twist_classes()
    assert sorted(classes) == d.precrossing_indices()
    if not d.euler_ok():
        # bigons of a non-planar map bound no disc: no Reidemeister II there
        assert len({group for group, _ in classes.values()}) == len(classes)
    elif len(classes) <= MAX_PRECROSSINGS:
        _check_against_oracle(d)
