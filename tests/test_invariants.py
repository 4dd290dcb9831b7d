"""Coloring systems and invariants against spec values and oracles."""

import itertools

import pytest

from pseudolink import invariants
from pseudolink.diagram import Tangle, build_diagram, numerator_close
from pseudolink.errors import HasPrecrossings
from pseudolink.invariants import (
    Coloring,
    coloring_numbers,
    coloring_system,
    count_colors,
    determinant,
    det_progression,
    find_colorings,
    is_colorable,
    is_strong_colorable,
    kh_property,
    pseudodeterminant,
)

from oracles import brute_coloring_count

PINS = {
    "3": 3,
    "3 i 3": 3,
    "(3)(i)(-3)": 9,
    "(5)(i)(-5)": 25,
    "2 1 i,3,-3": 27,
    "4 1 i,5,-5": 125,
    "9*.i": 15,
    "45 i 9": 27,
    "2 1 i 1 2": 3,
    "(i,i,i),3,-3": 9,
}


class TestColoringSystem:
    def test_trefoil_rows(self):
        system = coloring_system(build_diagram("3"))
        assert len(system.rows) == 3 and system.n_arcs == 3
        for row in system.dense_rows():
            assert sorted(row) == [-2, 1, 1]
            assert sum(row) == 0

    def test_rows_sum_to_zero_everywhere(self):
        for symbol in PINS:
            system = coloring_system(build_diagram(symbol))
            assert all(sum(row.values()) == 0 for row in system.rows)

    def test_kink_row_is_empty(self):
        # the over-arc of a kink is also both of its under-arcs: 1 + 1 - 2 = 0
        system = coloring_system(build_diagram("1"))
        assert system.rows == ({},) and system.n_arcs == 1
        assert determinant(build_diagram("1")) == 1

    def test_shadow_strong_rows_only(self):
        # a one-strand shadow has a single circular arc, so no equality rows
        system = coloring_system(build_diagram("i^3"), strong=True)
        assert system.rows == ()
        # the Hopf shadow has two arcs meeting at both precrossings
        system = coloring_system(build_diagram("i,i"), strong=True)
        assert len(system.rows) == 2
        assert all(sorted(row.values()) == [-1, 1] for row in system.rows)

    def test_column_count_is_arc_count(self):
        d = build_diagram("9*.i")
        system = coloring_system(d)
        assert all(len(row) == d.arcs().n_arcs for row in system.dense_rows())
        assert all(0 <= arc < system.n_arcs for row in system.rows for arc in row)


class TestDeterminant:
    @pytest.mark.parametrize("symbol, want", [("3", 3), ("2 2", 5), ("2", 2), ("3 1 3", 15)])
    def test_values(self, symbol, want):
        assert determinant(build_diagram(symbol)) == want

    def test_unknot_conventions(self):
        assert determinant(numerator_close(Tangle.zero().transpose())) == 1  # one loop
        assert determinant(numerator_close(Tangle.zero())) == 0  # two loops

    def test_requires_classical(self):
        with pytest.raises(HasPrecrossings):
            determinant(build_diagram("3 i 3"))

    def test_split_diagram_is_zero(self):
        # a twist closed the degenerate way: one knotted and one free component
        t = Tangle.twist(0, 3)
        d = numerator_close(t)
        split = type(d)(d.nodes, d.pair, d.loops + 1)
        assert determinant(split) == 0


class TestPseudodeterminant:
    @pytest.mark.parametrize("symbol, want", sorted(PINS.items()))
    def test_pins(self, symbol, want):
        assert pseudodeterminant(build_diagram(symbol)).pseudodeterminant == want

    def test_report_shape(self):
        report = pseudodeterminant(build_diagram("3 i 3"), symbol="3 i 3")
        assert report.symbol == "3 i 3"
        assert sorted(r.det for r in report.resolutions) == [3, 15]
        assert {r.assignment for r in report.resolutions} == {"+", "-"}
        payload = report.to_dict()
        assert payload["pseudodet"] == 3 and len(payload["resolutions"]) == 2

    def test_classical_consistency(self):
        for symbol in ["3", "2 2", "2 1 1 2", "6*2:2:2 0"]:
            d = build_diagram(symbol)
            assert pseudodeterminant(d).pseudodeterminant == determinant(d)

    def test_gcd_with_zero_resolution(self):
        # (i,1): the two resolutions close to determinants 0 and 2
        report = pseudodeterminant(build_diagram("i,1"))
        assert sorted(r.det for r in report.resolutions) == [0, 2]
        assert report.pseudodeterminant == 2


class TestColorability:
    @pytest.mark.parametrize("symbol, p", [
        ("3 i 3", 3), ("2 1 i 1 2", 3),
        ("6*2.2 0.i.1.1.1", 7), ("6*2.2 0.1.1.1.i", 5),
        ("8*i.1.1.1.i.1.1.1", 3), ("(i,i,i),3,-3", 3),
        ("9*.i", 3), ("9*.i", 5), ("9*.i", 15),
    ])
    def test_colorable_pins(self, symbol, p):
        assert is_colorable(build_diagram(symbol), p)

    def test_not_colorable(self):
        assert not is_colorable(build_diagram("3"), 2)
        assert not is_colorable(build_diagram("3 i 3"), 5)

    def test_solution_count_matches_brute_force(self):
        for symbol, p in [("3", 3), ("2", 2), ("2 2", 5), ("2 1 1 2", 3)]:
            d = build_diagram(symbol)
            system = coloring_system(d)
            from pseudolink.linalg import solution_space_mod

            count = solution_space_mod(system.dense_rows(), p).count
            assert count == brute_coloring_count(d, p)

    def test_trefoil_mod3_count(self):
        assert brute_coloring_count(build_diagram("3"), 3) == 9

    def test_hopf_mod2_count(self):
        assert brute_coloring_count(build_diagram("2"), 2) == 4

    def test_coloring_numbers_classical(self):
        assert coloring_numbers(build_diagram("3"), 10) == {3, 6, 9}

    def test_coloring_numbers_shortcut_matches_direct(self):
        for symbol in ["3 i 3", "(3)(i)(-3)", "9*.i", "(i,i,i),3,-3", "2 1 i 1 2"]:
            d = build_diagram(symbol)
            fast = coloring_numbers(d, 13)
            direct = {p for p in range(2, 14) if is_colorable(d, p)}
            assert fast == direct

    def test_divisors_of_pseudodet_are_coloring_numbers(self):
        for symbol, d_value in PINS.items():
            if d_value < 2:
                continue
            diagram = build_diagram(symbol)
            numbers = coloring_numbers(diagram, d_value)
            for divisor in range(2, d_value + 1):
                if d_value % divisor == 0:
                    assert divisor in numbers, (symbol, divisor)


class TestStrong:
    def test_classical_strong_equals_plain(self):
        for symbol in ["3", "2 2", "2 1 1 2"]:
            d = build_diagram(symbol)
            for p in (2, 3, 5, 7):
                assert is_strong_colorable(d, p) == is_colorable(d, p)

    def test_strong_implies_weak(self):
        for symbol in PINS:
            d = build_diagram(symbol)
            for p in range(2, 14):
                if is_strong_colorable(d, p):
                    assert is_colorable(d, p), (symbol, p)

    def test_hopf_shadow_forced_monochrome(self):
        # both arcs of the Hopf shadow share each precrossing, so strong
        # colorings collapse to constants
        assert not is_strong_colorable(build_diagram("i,i"), 3)

    def test_strong_enumeration_matches_decision(self):
        for symbol in ["3 i 3", "2 1,2 1,-(i,1,1)", "8*i.1.1.1.i.1.1.1"]:
            d = build_diagram(symbol)
            for p in (2, 3, 5):
                witnesses = list(find_colorings(d, p, strong=True))
                assert bool(witnesses) == is_strong_colorable(d, p), (symbol, p)

    def test_split_shadow_strong_colorable(self):
        from pseudolink.diagram import Tangle, numerator_close

        unlink = numerator_close(Tangle.zero())
        assert is_strong_colorable(unlink, 3)


class TestColoringEnumeration:
    def test_trefoil_colorings(self):
        colorings = list(find_colorings(build_diagram("3"), 3))
        assert len(colorings) == 6
        assert all(count_colors(c) == 3 for c in colorings)

    def test_count_colors(self):
        assert count_colors(Coloring(5, (1, 1, 1))) == 1
        assert count_colors(Coloring(5, (0, 1, 2))) == 3

    def test_requires_resolved_diagram(self):
        with pytest.raises(HasPrecrossings):
            list(find_colorings(build_diagram("3 i 3"), 3))

    def test_kh_coloring_color_counts(self):
        d = build_diagram("(3)(i)(-3)")
        pre = d.precrossing_indices()[0]
        resolved = d.resolve({pre: 0})
        counts = {count_colors(c) for c in find_colorings(resolved, 9)}
        assert 7 in counts  # all seven arcs distinctly colored

    def test_nine_star_color_counts_include_published(self):
        d = build_diagram("9*.i")
        seen = set()
        for assignment in d.resolutions():
            resolved = d.resolve(assignment)
            seen |= {count_colors(c) for c in find_colorings(resolved, 15)}
        assert {3, 4, 7} <= seen


class TestKH:
    def test_smallest_example(self):
        report = kh_property(build_diagram("(3)(i)(-3)"))
        assert report.holds and report.modulus == 9
        assert set(report.witness_color_counts()) == {7}

    def test_second_family_member(self):
        report = kh_property(build_diagram("(5)(i)(-5)"))
        assert report.holds and report.modulus == 25
        assert set(report.witness_color_counts()) == {11}

    def test_witnesses_have_distinct_colors(self):
        report = kh_property(build_diagram("(3)(i)(-3)"))
        for witness in report.witnesses:
            assert witness is not None
            assert count_colors(witness) == len(witness.values)

    def test_figure_eight_alternating_not_kh_relevant(self):
        # classical diagrams go through the same machinery
        report = kh_property(build_diagram("2 2"))
        assert report.modulus == 5
        assert isinstance(report.holds, bool)

    def test_undefined_below_two(self):
        with pytest.raises(ValueError):
            kh_property(numerator_close(Tangle.zero().transpose()))  # unknot, d = 1


class TestDetProgression:
    def test_twist_family(self):
        assert det_progression([build_diagram(s) for s in ("3", "5", "7")])

    def test_even_twist_family(self):
        assert det_progression([build_diagram(s) for s in ("2 2", "2 4", "2 6")])

    def test_constant_family(self):
        d = [build_diagram("3")] * 3
        assert det_progression(d)

    def test_requires_three(self):
        with pytest.raises(ValueError):
            det_progression([build_diagram("3")])


class TestMinorIndependence:
    def test_all_minors_agree_on_small_diagrams(self):
        symbols = ["3", "2 2", "2 1 1 2", "2 1 2", "1,1,1", "2,2,2", "3 1 3", "6*2.2"]
        for symbol in symbols:
            d = build_diagram(symbol)
            if d.crossing_count > 8 or d.precrossing_indices():
                continue
            system = coloring_system(d)
            rows = system.rows
            n = len(rows)
            if n != system.n_arcs:
                continue
            from pseudolink.linalg import minor_determinant

            values = {
                minor_determinant(rows, i, j)
                for i, j in itertools.product(range(n), repeat=2)
            }
            assert len(values) == 1, symbol
