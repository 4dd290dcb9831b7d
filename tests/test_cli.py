"""End-to-end CLI behavior through main()."""

import io
import json

import pytest

from pseudolink import invariants
from pseudolink.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_shorthand_expansion(self, capsys):
        code, out, _ = run(capsys, "parse", "6*2:2:2 0")
        assert code == 0
        assert "6*2.1.2.1.2 0.1" in out

    def test_emit_diagram_json(self, capsys):
        code, out, _ = run(capsys, "parse", "--format", "json", "--emit-diagram", "i,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["precrossings"] == 1
        assert len(payload["diagram"]["nodes"]) == 2

    def test_malformed_symbol_exit_1(self, capsys):
        code, _out, err = run(capsys, "parse", "6*2 )")
        assert code == 1
        assert "error" in err

    def test_unsupported_polyhedron_exit_1(self, capsys):
        code, _out, err = run(capsys, "parse", "12*2")
        assert code == 1
        assert "12*" in err


class TestInvariantCommands:
    def test_pseudodet(self, capsys):
        code, out, _ = run(capsys, "pseudodet", "9*.i")
        assert code == 0 and out.strip() == "15"

    def test_pseudodet_json(self, capsys):
        code, out, _ = run(capsys, "pseudodet", "--format", "json", "3 i 3")
        payload = json.loads(out)
        assert payload["pseudodet"] == 3
        assert {r["det"] for r in payload["resolutions"]} == {3, 15}

    def test_det(self, capsys):
        code, out, _ = run(capsys, "det", "2 2")
        assert code == 0 and out.strip() == "5"

    def test_det_rejects_pseudo(self, capsys):
        code, _out, err = run(capsys, "det", "3 i 3")
        assert code == 1 and "precrossing" in err

    def test_colorable(self, capsys):
        code, out, _ = run(capsys, "colorable", "--mod", "7", "6*2.2 0.i.1.1.1")
        assert code == 0 and out.strip() == "true"

    def test_strong(self, capsys):
        code, out, _ = run(capsys, "strong", "--mod", "3", "3 i 3")
        assert code == 0 and out.strip() in {"true", "false"}

    def test_coloring_numbers(self, capsys):
        code, out, _ = run(capsys, "coloring-numbers", "--bound", "10", "3")
        assert code == 0 and out.split() == ["3", "6", "9"]

    def test_kh_with_witness(self, capsys):
        code, out, _ = run(capsys, "kh", "--witness", "(3)(i)(-3)")
        assert code == 0
        assert out.startswith("true (mod 9)")
        assert "7 colors" in out

    def test_colorings_enumeration(self, capsys):
        code, out, _ = run(capsys, "colorings", "--mod", "3", "3")
        assert code == 0
        assert "6 nontrivial" in out

    def test_stdin_mode(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n2 2\n"))
        code, out, _ = run(capsys, "det", "--stdin")
        assert code == 0
        assert out.split() == ["3", "5"]

    def test_stdin_json_is_one_array(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n2 2\n"))
        code, out, _ = run(capsys, "det", "--stdin", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"symbol": "3", "determinant": 3}, {"symbol": "2 2", "determinant": 5}]

    def test_stdin_json_bad_line_prints_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3\n6*2 )\n"))
        code, out, err = run(capsys, "pseudodet", "--stdin", "--format", "json")
        assert code == 1
        assert out == "" and "error" in err

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "pseudodet", "2 1 i,3,-3")
        _, json_out, _ = run(capsys, "pseudodet", "--format", "json", "2 1 i,3,-3")
        assert int(text_out.strip()) == json.loads(json_out)["pseudodet"]

    def test_precrossing_cap_flag(self, capsys):
        code, _out, err = run(capsys, "pseudodet", "--max-precrossings", "2", "(i,i,i),3,-3")
        assert code == 1 and "cap" in err

    def test_missing_symbol_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["det"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: pk" in err and "det needs a symbol or --stdin" in err

    def test_symbol_and_stdin_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("5\n"))
        with pytest.raises(SystemExit) as exc:
            main(["det", "3", "--stdin"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "det takes a symbol or --stdin, not both" in captured.err


class TestCensus:
    def test_bundle(self, capsys, tmp_path):
        from importlib import resources

        text = resources.files("pseudolink").joinpath("data/acceptance_pseudoknots.txt").read_text()
        path = tmp_path / "bundle.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "census", str(path), "--bound", "13")
        assert code == 0
        assert "2 with d=3" in out and "1 with d=125" in out

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        code, out, _ = run(capsys, "census", str(path))
        assert code == 0
        assert "(empty)" in out

    def test_partial_failure_continues(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("3 i 3\nnot a symbol!\n2 2\n")
        code, out, err = run(capsys, "census", str(path))
        assert code == 0
        assert "d=3" in out and "d=5" in out
        assert "line 2" in err

    def test_all_failures_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("??\n!!\n")
        code, _out, _err = run(capsys, "census", str(path))
        assert code == 1

    def test_json_document(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("3 i 3\n(3)(i)(-3)\n")
        code, out, _ = run(capsys, "census", "--format", "json", str(path))
        payload = json.loads(out)
        assert payload["histogram"] == {"3": 1, "9": 1}

    def test_one_resolution_pass_per_symbol(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = invariants.pseudodeterminant
        monkeypatch.setattr(invariants, "pseudodeterminant", lambda *a, **k: calls.append(1) or real(*a, **k))
        path = tmp_path / "two.txt"
        path.write_text("3 i 3\n(3) (i^3) (5)\n")
        code, out, _ = run(capsys, "census", "--format", "json", str(path))
        assert code == 0 and len(calls) == 2
        entries = json.loads(out)["entries"]
        assert entries[0]["coloring_numbers"] == [3, 6, 9, 12]
        assert [e["pseudodet"] for e in entries] == [3, 1]


class TestFamilies:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "families", "list")
        assert code == 0
        assert out.count("\n") >= 62

    def test_show(self, capsys):
        code, out, _ = run(capsys, "families", "show", "1")
        assert code == 0
        assert "gcd((2p+1)(2q+1), 4pq-1)" in out

    def test_show_unknown_row_usage_error(self, capsys):
        code, _out, _err = run(capsys, "families", "show", "99")
        assert code == 2

    def test_verify_single_row(self, capsys):
        code, out, _ = run(capsys, "families", "verify", "--rows", "1")
        assert code == 0
        assert "row   1: match" in out

    def test_verify_range(self, capsys):
        code, out, _ = run(capsys, "families", "verify", "--rows", "17-19")
        assert code == 0
        assert out.count("match") >= 3

    def test_verify_flagged_row_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "families", "verify", "--rows", "24")
        assert code == 0
        assert "FLAGGED" in out

    def test_verify_equal_grid_spans(self, capsys):
        code, out, _ = run(capsys, "families", "verify", "--rows", "1", "--grid", "p=1:3,q=1:3,k=1:3",
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)["reports"][0]["points"]) == 27

    @pytest.mark.parametrize("grid", ["p=1:2,k=1:3", "p=2:3", "p=1:x"])
    def test_verify_grid_it_cannot_honour_is_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "families", "verify", "--rows", "1", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and grid in err

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "families", "verify", "--rows", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["reports"][0]["summary"] == "match"
