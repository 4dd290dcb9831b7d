"""Family table integrity, instantiation, verification, and twist surgery."""

import ast
from pathlib import Path

import pytest

from pseudolink import families, notation
from pseudolink.diagram import build_diagram
from pseudolink.errors import NoPseudotwistAtLocation
from pseudolink.families import (
    FAMILY_TABLE,
    PSEUDOTWIST_REPLACEMENTS,
    default_grid,
    find_pseudotwists,
    get_family,
    instantiate,
    instantiate_template,
    predicted_d,
    replace_pseudotwist,
    twist_replacement_check,
    verify_row,
)
from pseudolink.invariants import pseudodeterminant


class TestTable:
    def test_sixty_tabulated_plus_two_supplementary(self):
        assert len(FAMILY_TABLE) == 62
        assert [spec.row_id for spec in FAMILY_TABLE] == list(range(1, 63))

    def test_every_template_instantiates_and_parses(self):
        for spec in FAMILY_TABLE:
            base = {name: 1 for name in spec.parameters}
            symbol = instantiate_template(spec.template, base)
            notation.parse(symbol)

    def test_formulas_nonnegative_on_grid(self):
        for spec in FAMILY_TABLE:
            for point in default_grid(spec):
                assert predicted_d(spec, **point) >= 0


class TestTemplateExpressions:
    @pytest.mark.parametrize("expr, want", [
        ("2k-1", 5), ("2q", 8), ("2p+1", 3), ("k", 3), ("2m", 2), ("2 n - 1", 7),
    ])
    def test_linear_forms(self, expr, want):
        values = {"p": 1, "q": 4, "k": 3, "m": 1, "n": 4}
        assert families._eval_param_expr(expr, values) == want

    @pytest.mark.parametrize("expr", ["2*k", "k*k", "2k+", "-2k", "2k-1-1", "x", "__import__('os')", ""])
    def test_other_expressions_rejected(self, expr):
        with pytest.raises(ValueError):
            families._eval_param_expr(expr, {"k": 1})

    def test_library_calls_no_eval_or_exec(self):
        src = Path(families.__file__).resolve().parent
        calls = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("eval", "exec")
        ]
        assert calls == []


class TestInstantiate:
    def test_row_1_first_member(self):
        symbol, diagram = instantiate(get_family(1), p=1, q=1, k=1)
        assert notation.parse(symbol) == notation.parse("3 i 3")
        assert pseudodeterminant(diagram).pseudodeterminant == 3

    def test_row_2_first_member(self):
        symbol, diagram = instantiate(get_family(2), p=1, q=1, k=1)
        assert pseudodeterminant(diagram).pseudodeterminant == 9

    def test_row_1_large_member(self):
        symbol, diagram = instantiate(get_family(1), p=22, q=4, k=1)
        assert notation.parse(symbol) == notation.parse("45 i 9")
        assert pseudodeterminant(diagram).pseudodeterminant == 27

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            instantiate(get_family(1), p=0, q=1, k=1)


class TestPredicted:
    def test_row_1_values(self):
        spec = get_family(1)
        assert predicted_d(spec, p=1, q=1, k=1) == 3
        assert predicted_d(spec, p=22, q=4, k=1) == 27
        assert predicted_d(spec, p=247, q=49, k=1) == 297

    def test_row_2_value(self):
        assert predicted_d(get_family(2), p=1, q=1, k=1) == 9

    def test_row_37_value(self):
        assert predicted_d(get_family(37), p=1, k=1, m=1) == 9


class TestVerify:
    def test_row_1_all_match(self):
        report = verify_row(get_family(1))
        assert report.summary == "match"
        assert all(pt.status == "match" for pt in report.points)

    def test_row_17_constant(self):
        report = verify_row(get_family(17))
        assert report.summary == "match"
        assert {pt.computed for pt in report.points} == {3}

    def test_row_47_constant(self):
        report = verify_row(get_family(47))
        assert report.summary == "match"
        assert {pt.computed for pt in report.points} == {5}

    def test_flagged_rows_report_not_raise(self):
        report = verify_row(get_family(24))
        assert report.summary == "FLAGGED"
        mismatches = [pt for pt in report.points if pt.status == "mismatch"]
        assert mismatches
        assert all(pt.computed is not None for pt in mismatches)

    def test_every_point_is_computed(self):
        # k = m = n = 2 carries 9 precrossings; its gcd needs only 2^3 corner classes
        report = verify_row(get_family(50))
        assert len(report.points) == 2 ** len(get_family(50).parameters)
        assert all(pt.status == "match" and pt.computed is not None for pt in report.points)
        assert report.summary == "match"

    def test_report_serializes(self):
        payload = verify_row(get_family(1)).to_dict()
        assert payload["row"] == 1 and payload["summary"] == "match"
        assert all("status" in pt for pt in payload["points"])


class TestParityStability:
    @pytest.mark.parametrize("row", range(1, 22))
    def test_same_parity_same_pseudodeterminant(self, row):
        spec = get_family(row)
        base = {name: 1 for name in spec.parameters}
        _, d_base = instantiate(spec, **base)
        bumped = dict(base)
        twist_param = next(name for name in ("k", "m", "n") if name in spec.parameters)
        bumped[twist_param] += 1
        _, d_next = instantiate(spec, **bumped)
        assert (
            pseudodeterminant(d_base).pseudodeterminant
            == pseudodeterminant(d_next).pseudodeterminant
        )


class TestTwistSurgery:
    def test_find_pseudotwists(self):
        expr = notation.parse("3 i 3")
        assert len(find_pseudotwists(expr)) == 1
        expr = notation.parse("(i,i,i),3,-3")
        assert len(find_pseudotwists(expr)) == 3
        expr = notation.parse("9*.i")
        assert len(find_pseudotwists(expr)) == 1

    def test_replace_produces_parseable_expression(self):
        expr = notation.parse("3 i 3")
        swapped = replace_pseudotwist(expr, 0, "(i,1,1)")
        assert notation.parse(notation.render(swapped)) == swapped

    def test_missing_location(self):
        with pytest.raises(NoPseudotwistAtLocation):
            replace_pseudotwist(notation.parse("3"), 0, "(i,1,1)")

    @pytest.mark.parametrize("replacement", sorted(PSEUDOTWIST_REPLACEMENTS))
    def test_replacements_preserve_simple_pin(self, replacement):
        assert twist_replacement_check("3 i 3", 0, replacement)

    def test_longer_twist_same_parity(self):
        assert twist_replacement_check("3 i 3", 0, notation.parse("i^3"))
        assert twist_replacement_check("(3)(i)(-3)", 0, notation.parse("i^3"))

    def test_twist_permutation_invariance(self):
        a = pseudodeterminant(build_diagram("2 1 (i,1,1),3,-3")).pseudodeterminant
        b = pseudodeterminant(build_diagram("2 1 (1,i,1),3,-3")).pseudodeterminant
        assert a == b
