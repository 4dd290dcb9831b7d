"""Quick checks of the benchmark's own parts; the timed runs are not exercised here."""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import run
import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent


def test_continued_fractions_match_published_values():
    assert ref.rational_det([2, 2]) == 5
    assert ref.rational_det([3, 1, 3]) == 15
    # (a) i (b) resolves to (a) 1 (b) and (a) -1 (b): gcd(ab+a+b, ab-a-b)
    a, b = 45, 9
    dets = [ref.rational_det([a, c, b]) for c in (1, -1)]
    assert dets == [a * b + a + b, a * b - a - b]
    assert ref.gcd_all(dets) == 27
    # 2 1 i,3,-3 has pseudodeterminant 27 in both resolutions
    assert {ref.ramified_det([[2, 1, c], [3], [-3]]) for c in (1, -1)} == {27}


def test_family_members_agree_with_their_formulas():
    for row in (1, 2, 3):
        m = ref.rational_member(row, 1, 2, 5)
        assert ref.gcd_all(m.expected_dets()) == m.pseudodet
    for row in (40, 41):
        m = ref.ramified_member(row, 2, 1, 3)
        assert ref.gcd_all(m.expected_dets()) == m.pseudodet
    members = ref.polyhedral_members(50, 9)
    assert len(members) == 10 and all(m.crossings == 15 for m in members)


def test_schema_subset_validator():
    schema = {"type": "object", "required": ["n"], "additionalProperties": False,
              "properties": {"n": {"type": "integer", "minimum": 0}}}
    ref.validate({"n": 3}, schema)
    for bad in ({"n": -1}, {"n": True}, {}, {"n": 1, "x": 2}):
        with pytest.raises(ref.CheckFailed):
            ref.validate(bad, schema)


def test_cli_round_fails_exactly_the_two_known_faults(tmp_path):
    make_round = workloads.cli_mix(random.Random(7), tmp_path)
    runner = run.Runner(make_round)
    for op in make_round():
        runner.attempt(op)
    assert runner.correct, runner.errors
    assert set(runner.failures) == {"kh_pseudodet_1", "colorable_mod_1"}
    assert runner.failed == 2


def test_tracer_restores_the_library_and_reports_absent_functions(monkeypatch):
    from pseudolink import invariants
    from pseudolink.diagram import PseudoDiagram

    before = (invariants.pseudodeterminant, PseudoDiagram.arcs)
    monkeypatch.setitem(tracer_mod.TARGETS, "invariants.gone", ("pseudolink.invariants:gone",))
    t = tracer_mod.Tracer()
    t.install()
    try:
        report = invariants.pseudodeterminant(workloads.build("3 i 3"))
    finally:
        t.uninstall()
    assert (invariants.pseudodeterminant, PseudoDiagram.arcs) == before
    assert report.pseudodeterminant == 3
    assert t.absent == ["invariants.gone"]
    values = t.layer_metrics(1, 0.0)
    assert values["diagram.resolutions"] == 2
    assert values["linalg.det_calls"] == 2
    assert values["invariants.distinct_dets"] == 2


def test_tail_is_the_eleventh_highest_sample():
    assert run.tail_index(40) == 29
    assert run.tail_index(5) == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
