"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with -s to see the per-criterion lines.  Values are exact integer
pins from the published worked examples; timing limits are asserted
directly.  Criterion 3's strong-coloring exclusion is a documented
expected failure: the published claim contradicts a brute-force
enumeration (the witness is in that test's docstring), and the faithful
assertion is kept under strict xfail rather than weakened.
"""

import itertools
import time

import pytest

from pseudolink import families, invariants, notation
from pseudolink.diagram import build_diagram
from pseudolink.invariants import (
    coloring_numbers,
    count_colors,
    determinant,
    det_progression,
    find_colorings,
    is_colorable,
    is_strong_colorable,
    kh_property,
    pseudodeterminant,
)

from oracles import rational_determinant


def report(criterion: str, passed: bool, extra: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status}{' - ' + extra if extra else ''}")
    assert passed, f"criterion {criterion} failed: {extra}"


PSEUDODET_PINS = {
    "3 i 3": 3,
    "(3)(i)(-3)": 9,
    "(5)(i)(-5)": 25,
    "2 1 i,3,-3": 27,
    "4 1 i,5,-5": 125,
    "9*.i": 15,
    "45 i 9": 27,
    "495 i 99": 297,
}


def test_criterion_1_pseudodeterminant_pins():
    worst = 0.0
    for symbol, want in PSEUDODET_PINS.items():
        start = time.perf_counter()
        got = pseudodeterminant(build_diagram(symbol)).pseudodeterminant
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert got == want, f"{symbol}: {got} != {want}"
        assert elapsed < 1.0, f"{symbol} took {elapsed:.2f}s"
    report("1 (pseudodeterminant pins)", True, f"8 pins, slowest {worst:.2f}s")


COLORABILITY_PINS = [
    ("3 i 3", [3]),
    ("2 1 i 1 2", [3]),
    ("6*2.2 0.i.1.1.1", [7]),
    ("6*2.2 0.1.1.1.i", [5]),
    ("8*i.1.1.1.i.1.1.1", [3]),
    ("8*i.1.1.1.1.1.1.1", [3]),
    ("8*i.1.1.1.-1.1.1.1", [3]),
    ("(i,i,i),3,-3", [3]),
    ("9*.i", [3, 5, 15]),
]


def test_criterion_2_colorability_pins():
    for symbol, moduli in COLORABILITY_PINS:
        d = build_diagram(symbol)
        for p in moduli:
            assert is_colorable(d, p), f"{symbol} should be colorable mod {p}"
    report("2 (colorability pins)", True, f"{sum(len(m) for _s, m in COLORABILITY_PINS)} checks")


def test_criterion_3_weak_colorability_side():
    d = build_diagram("2 1,2 1,-(i,1,1)")
    assert is_colorable(d, 3)
    for resolution in ["2 1,2 1,-(1,1,1)", "2 1,2 1,-(-1,1,1)"]:
        assert is_colorable(build_diagram(resolution), 3)
    report("3a (weak colorability of the separation example)", True)


@pytest.mark.xfail(
    strict=True,
    reason="published strong-coloring exclusion contradicts brute-force "
    "enumeration: the 3/2-fraction tangles carry a nontrivial coloring "
    "while the pseudotwist stays monochromatic (witness in the docstring)",
)
def test_criterion_3_strong_exclusion_as_published():
    """The paper says 2 1,2 1,-(i,1,1) has no strong 3-coloring; it has six.

    The diagram has 8 arcs, numbered as PseudoDiagram.arcs numbers them.
    Each classical crossing gives under_in + under_out = 2 * over (mod 3),
    as (over, under_in, under_out): (7, 2, 3), (3, 6, 7), (2, 3, 4),
    (6, 0, 1), (1, 5, 6), (0, 1, 2), (5, 7, 0), (0, 4, 5).  The one
    precrossing (node 6) joins arcs 5 and 7, which a strong coloring must
    color alike.  Trying all 3^8 colorings leaves the 3 constant ones and 6
    nontrivial ones, among them

        arc:    0  1  2  3  4  5  6  7
        color:  0  1  2  1  0  0  2  0

    Arcs 5 and 7 share color 0, so the pseudotwist is monochromatic while
    the other arcs use all three colors.
    """
    d = build_diagram("2 1,2 1,-(i,1,1)")
    strong = is_strong_colorable(d, 3)
    report("3b (strong 3-coloring excluded)", not strong,
           "KNOWN FAILURE: explicit strong coloring exists; witness in the docstring")


def test_criterion_4_continued_fraction_oracle():
    start = time.perf_counter()
    words = []
    for length in range(1, 5):
        words.extend(itertools.product(range(1, 5), repeat=length))
    assert len(words) == 340
    for word in words:
        symbol = " ".join(map(str, word))
        assert determinant(build_diagram(symbol)) == rational_determinant(list(word)), symbol
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report("4 (340-word continued-fraction oracle)", True, f"{elapsed:.1f}s")


REQUIRED_MATCH_ROWS = sorted(
    set(range(1, 11)) | {17, 18, 19, 33, 34, 35, 36, 40, 41} | set(range(47, 58))
)


def test_criterion_5_family_grid_verification():
    start = time.perf_counter()
    reports = families.verify_rows()
    elapsed = time.perf_counter() - start
    by_row = {rep.row_id: rep for rep in reports}
    for row in REQUIRED_MATCH_ROWS:
        assert by_row[row].summary == "match", f"row {row}: {by_row[row].summary}"
    for rep in reports:
        assert rep.summary in ("match", "FLAGGED"), f"row {rep.row_id} errored"
        if rep.summary == "FLAGGED":
            for pt in rep.points:
                if pt.status == "mismatch":
                    assert pt.computed is not None and pt.predicted is not None
    flagged = [rep.row_id for rep in reports if rep.summary == "FLAGGED"]
    assert elapsed < 300.0, f"full verification took {elapsed:.0f}s"
    report(
        "5 (family grid verification)",
        True,
        f"{len(REQUIRED_MATCH_ROWS)} required rows match; flagged: {flagged}; {elapsed:.0f}s",
    )


def test_criterion_6_pseudotwist_replacement():
    for symbol in PSEUDODET_PINS:
        for replacement in sorted(families.PSEUDOTWIST_REPLACEMENTS):
            assert families.twist_replacement_check(symbol, 0, replacement), (
                symbol, replacement,
            )
    # growing a pseudotwist by two keeps the parity and the value
    for row, bump_from in ((1, 1), (4, 2), (17, 1)):
        spec = families.get_family(row)
        base = {name: 1 for name in spec.parameters}
        symbol, _ = families.instantiate(spec, **base)
        expr = notation.parse(symbol)
        grown = families.replace_pseudotwist(
            expr, 0, notation.make_twist(notation.Kind.PRE, bump_from + 2)
        )
        before = pseudodeterminant(build_diagram(expr)).pseudodeterminant
        after = pseudodeterminant(build_diagram(grown)).pseudodeterminant
        assert before == after, (row, before, after)
    report("6 (pseudotwist replacements)", True, "6 tangles x 8 pins + parity growth")


def test_criterion_7_kh_pins():
    first = kh_property(build_diagram("(3)(i)(-3)"))
    assert first.holds and first.modulus == 9
    assert set(first.witness_color_counts()) == {7}
    second = kh_property(build_diagram("(5)(i)(-5)"))
    assert second.holds and second.modulus == 25
    assert set(second.witness_color_counts()) == {11}
    seen = set()
    d = build_diagram("9*.i")
    for assignment in d.resolutions():
        resolved = d.resolve(assignment)
        seen |= {count_colors(c) for c in find_colorings(resolved, 15)}
    assert {3, 4, 7} <= seen, seen
    report("7 (Kauffman-Harary pins)", True, f"witnesses 7/11 colors; mod-15 counts {sorted(seen)}")


def test_criterion_8_kh_but_not_pseudoalternating():
    results = {}
    for symbol in ["(3)(i)(-3)", "(5)(i)(-5)"]:
        d = build_diagram(symbol)
        assert kh_property(d).holds
        results[symbol] = d.is_pseudoalternating()
    assert results == {"(3)(i)(-3)": False, "(5)(i)(-5)": False}
    report("8 (KH pins are not pseudoalternating)", True, str(results))


def test_criterion_9_property_suites():
    # minor-choice independence on every small classical diagram in the pin set
    checked = 0
    small = ["3", "2 2", "2 1 1 2", "2 1 2", "1,1,1", "2,2,2", "6*2.2", "2 1 1", "4"]
    small += ["3 1 3", "3 -1 3"]
    for symbol in small:
        d = build_diagram(symbol)
        if d.crossing_count > 8:
            continue
        system = invariants.coloring_system(d)
        rows = system.rows
        if len(rows) != system.n_arcs or not rows:
            continue
        from pseudolink.linalg import minor_determinant

        values = {
            minor_determinant(rows, i, j)
            for i in range(len(rows))
            for j in range(len(rows))
        }
        assert len(values) == 1, symbol
        checked += 1
    assert checked >= 8

    # pseudoresolution colorability inheritance on every pin, p <= 13
    for symbol in PSEUDODET_PINS:
        if symbol == "495 i 99":
            continue  # identical twist structure to "45 i 9" at 50x the size
        d = build_diagram(symbol)
        pres = d.precrossing_indices()
        colorable_for = [p for p in range(2, 14) if is_colorable(d, p)]
        for size in range(1, len(pres)):
            for subset in itertools.combinations(pres, size):
                for bits in itertools.product((0, 1), repeat=size):
                    partial = d.resolve(dict(zip(subset, bits)))
                    for p in colorable_for:
                        assert is_colorable(partial, p), (symbol, subset, bits, p)

    # divisors of the pseudodeterminant are coloring numbers
    for symbol, value in PSEUDODET_PINS.items():
        if symbol == "495 i 99":
            continue
        numbers = coloring_numbers(build_diagram(symbol), value)
        divisors = {k for k in range(2, value + 1) if value % k == 0}
        assert divisors <= numbers, symbol

    # strong implies weak on every pin
    for symbol in PSEUDODET_PINS:
        if symbol == "495 i 99":
            continue
        d = build_diagram(symbol)
        for p in range(2, 14):
            if is_strong_colorable(d, p):
                assert is_colorable(d, p), (symbol, p)

    # determinant arithmetic progression on twist families
    assert det_progression([build_diagram(s) for s in ("3", "5", "7")])
    assert det_progression([build_diagram(s) for s in ("2 2", "2 4", "2 6")])

    report("9 (property suites)", True, f"{checked} minor-independence diagrams; pins swept to p=13")


def test_presentation_invariance_surrogate():
    # alternate presentations related by twist permutation or by trading
    # (i) for (i,1,-1) keep every invariant up to p = 13
    pairs = [
        ("3 i 3", "3 (i,1,-1) 3"),
        ("(3)(i)(-3)", "(3)((i,1,-1))(-3)"),
        ("2 1 i,3,-3", "2 1 (i,1,-1),3,-3"),
        ("2 1 (i,1,1),3,-3", "2 1 (1,i,1),3,-3"),
        ("9*.i", "9*.(i,1,-1)"),
    ]
    for left, right in pairs:
        a, b = build_diagram(left), build_diagram(right)
        assert (
            pseudodeterminant(a).pseudodeterminant
            == pseudodeterminant(b).pseudodeterminant
        ), (left, right)
        for p in range(2, 14):
            assert is_colorable(a, p) == is_colorable(b, p), (left, right, p)
            assert is_strong_colorable(a, p) == is_strong_colorable(b, p), (left, right, p)
