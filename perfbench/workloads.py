"""The four workloads: seeded rounds of operations with their checks.

A workload is a function (rng, scratch directory) -> make_round, where
make_round() returns the next round: a list of Op.  Every round of a
workload holds the same operation kinds in the same order, so whole rounds
keep the share of each kind (and of the failing cli_mix operations) fixed.
Inputs come only from the rng, so a seed gives the same rounds on every run.

An op's `call` is what is timed; it reaches the library through module
attributes (`invariants.pseudodeterminant`, `cli.main`), which is where the
traced run puts its spans.  `check` runs after the timer stops and raises
CheckFailed when an answer disagrees with reference.py.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from pseudolink import cli, diagram, invariants

import reference as ref
from reference import Member, expect


class OpFailed(Exception):
    """The operation broke the program's contract (an escaping exception, a bad exit code)."""


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def build(symbol: str):
    return diagram.build_diagram(symbol)


def _cycle(rng: random.Random, pool: list):
    """Endless draws from pool: a seeded permutation, then another, ..."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# Shared checks


_class_det_cache: dict[str, int] = {}


def _class_det_by_library(member: Member, tangles) -> int:
    """Determinant of a resolution class from the classical symbol it is isotopic to.

    Used for polyhedral members, whose resolutions have no fraction formula
    here: by Reidemeister II each resolution of i^k with j positive crossings
    is the integer tangle 2j - k, so its determinant equals that of the
    classical symbol with the tangle in place of the pseudotwist, a diagram
    with fewer crossings and no precrossings.
    """
    symbol = member.class_symbol(tangles)
    if symbol not in _class_det_cache:
        _class_det_cache[symbol] = invariants.determinant(build(symbol))
    return _class_det_cache[symbol]


def expected_dets(member: Member) -> Counter:
    dets = member.expected_dets()
    if dets is None:
        dets = Counter()
        for tangles, mult in ref.pseudotwist_classes(member.twists):
            dets[_class_det_by_library(member, tangles)] += mult
    return dets


def check_pseudodet_report(member: Member, report) -> None:
    """Per-resolution determinants, their gcd, and the family formula."""
    got = [r.det for r in report.resolutions]
    expect(len(got) == 2 ** member.precrossings,
           f"{member.symbol}: {len(got)} resolutions, expected {2 ** member.precrossings}")
    want = expected_dets(member)
    if len(member.twists) == 1 and member.class_det is not None:
        k = member.twists[0]
        for r in report.resolutions:
            c = 2 * r.assignment.count("+") - k
            expect(r.det == member.class_det((c,)),
                   f"{member.symbol} resolution {r.assignment}: det {r.det}, expected {member.class_det((c,))}")
    expect(Counter(got) == want, f"{member.symbol}: resolution determinants {sorted(Counter(got).items())[:6]} "
                                 f"differ from {sorted(want.items())[:6]}")
    g = ref.gcd_all(want)
    expect(report.pseudodeterminant == g, f"{member.symbol}: pseudodet {report.pseudodeterminant}, expected {g}")
    if member.pseudodet is not None:
        expect(g == member.pseudodet, f"{member.symbol}: row {member.row} formula gives {member.pseudodet}, dets give {g}")


def check_coloring_numbers(member: Member, numbers, bound: int) -> None:
    want = ref.coloring_numbers_from_dets(expected_dets(member), bound)
    expect(sorted(numbers) == want, f"{member.symbol}: coloring numbers {sorted(numbers)}, expected {want}")


# ---------------------------------------------------------------------------
# kernel_chain


def kernel_chain(rng: random.Random, scratch: Path):
    """Single large diagrams, 240-404 crossings, at most one precrossing.

    Each kind's crossing count is drawn from a range over which its cost
    spans about 1.6x, the same for every kind (see SIZES in README.md).  The
    split between the two twist regions stays within a few crossings of
    even: elimination cost moves by a third between an even split and 3:5.
    """

    def rational_det_op() -> Op:
        total = rng.randint(320, 400)
        a = total // 2 + rng.randint(-4, 4)
        b = total - a
        symbol = f"({a}) ({b})"

        def check(value):
            want = ref.rational_det([a, b])
            expect(value == want, f"{symbol}: det {value}, expected {want}")
        return Op("rational_det", lambda: invariants.determinant(build(symbol)), check)

    def member_pseudodet_op(kind: str, member: Member) -> Op:
        return Op(kind, lambda: invariants.pseudodeterminant(build(member.symbol)),
                  lambda report: check_pseudodet_report(member, report))

    def polyhedral_ops() -> list[Op]:
        total = rng.randint(320, 398)
        n = total // 2 + rng.randint(-4, 4)
        m = total - n
        symbols = [f"6*({n + i}).({m}) 0.1" for i in range(3)]
        seen: list[int] = []

        def check(value):
            expect(isinstance(value, int) and value > 0, f"6*({n}+i).({m}) 0.1: det {value}")
            seen.append(value)
            if len(seen) % 3 == 0:
                d0, d1, d2 = seen[-3:]
                expect(d1 - d0 == d2 - d1,
                       f"6*(n).({m}) 0.1 at n={n}..{n + 2}: dets {seen[-3:]} are not an arithmetic progression")
        return [Op("polyhedral_det", lambda s=s: invariants.determinant(build(s)), check) for s in symbols]

    def make_round() -> list[Op]:
        total = rng.randint(240, 300)
        a = total // 2 + rng.randint(-4, 4)
        pq = rng.randint(119, 149)
        p = pq // 2 + rng.randint(-2, 2)
        return [
            rational_det_op(),
            member_pseudodet_op("rational_pseudodet", ref.word_member(a, 1, total - a)),
            member_pseudodet_op("ramified_pseudodet", ref.ramified_member(40, p, pq - p, 1)),
            *polyhedral_ops(),
        ]
    return make_round


# ---------------------------------------------------------------------------
# pseudotwist_fan

FAN_PRECROSSINGS = 9


def fan_pools() -> dict[str, list[Member]]:
    """Family members with exactly nine precrossings and 15-17 crossings."""
    small = [(1, 1), (1, 2), (2, 1)]
    return {
        "rational": [ref.rational_member(row, p, q, FAN_PRECROSSINGS) for row in (1, 2, 3) for p, q in small],
        "ramified": [ref.ramified_member(row, p, q, FAN_PRECROSSINGS) for row in (40, 41) for p, q in small],
        "8*": [m for row in (33, 34, 35, 36) for m in ref.polyhedral_members(row, FAN_PRECROSSINGS)],
        "9*": [m for row in range(50, 58) for m in ref.polyhedral_members(row, FAN_PRECROSSINGS)],
    }


def pseudotwist_fan(rng: random.Random, scratch: Path):
    """pseudodeterminant and coloring_numbers on small diagrams with 2^9 resolutions."""
    bound = 13
    draws = {name: _cycle(rng, pool) for name, pool in fan_pools().items()}

    def make_round() -> list[Op]:
        ops = []
        for name, draw in draws.items():
            member = next(draw)
            ops.append(Op(f"{name}_pseudodet",
                          lambda m=member: invariants.pseudodeterminant(build(m.symbol)),
                          lambda report, m=member: check_pseudodet_report(m, report)))
            ops.append(Op(f"{name}_coloring_numbers",
                          lambda m=member: invariants.coloring_numbers(build(m.symbol), bound),
                          lambda numbers, m=member: check_coloring_numbers(m, numbers, bound)))
        return ops
    return make_round


# ---------------------------------------------------------------------------
# coloring_queries


def _resolutions_in_order(d):
    return list(d.resolutions(64))


def coloring_queries(rng: random.Random, scratch: Path):
    """Colorability, strong colorability, KH witnesses and colorings at 29-50 crossings.

    Each op takes about 70-130 ms: at a few ms, host stalls of 20-40 ms would
    decide the latency tail.
    """

    def colorable_op() -> Op:
        # (a) (i^5) (a) and (i^5),(a),(a): a divides every resolution determinant
        a = rng.randint(11, 15)
        member = ref.word_member(a, 5, a) if rng.randrange(2) else ref.pretzel_member(5, a, a)
        dets = member.expected_dets()
        p = rng.choice(ref.prime_factors(ref.gcd_all(dets)))

        def check(value):
            want = ref.colorable_from_dets(dets, p)
            expect(want, f"{member.symbol}: mod {p} was chosen colorable")
            expect(value is want, f"{member.symbol}: colorable mod {p} {value}, expected {want}")
        return Op("is_colorable", lambda: invariants.is_colorable(build(member.symbol), p), check)

    def strong_op() -> Op:
        # strong colorability mod every p up to 13, the strong analogue of coloring_numbers
        k = rng.randint(1, 5)
        a = rng.randint(15, 20)
        b = rng.randint(40, 50) - k - a
        member = ref.word_member(a, k, b) if rng.randrange(2) else ref.pretzel_member(k, a, b)
        dets = member.expected_dets()

        def call():
            d = build(member.symbol)
            return [p for p in range(2, 14) if invariants.is_strong_colorable(d, p)]

        def check(moduli):
            weak = ref.coloring_numbers_from_dets(dets, 13)
            expect(set(moduli) <= set(weak), f"{member.symbol}: strongly colorable mod {moduli}, weakly only {weak}")
        return Op("is_strong_colorable", call, check)

    def kh_op() -> Op:
        a = rng.randint(15, 17)
        member = ref.word_member(a, 1, -a)
        dets = member.expected_dets()
        modulus = ref.gcd_all(dets)

        def check(report):
            expect(report.modulus == modulus, f"{member.symbol}: KH modulus {report.modulus}, expected {modulus}")
            d = build(member.symbol)
            assignments = _resolutions_in_order(d)
            expect(len(report.witnesses) == len(assignments),
                   f"{member.symbol}: {len(report.witnesses)} witnesses for {len(assignments)} resolutions")
            expect(report.holds == all(w is not None for w in report.witnesses),
                   f"{member.symbol}: KH holds={report.holds} disagrees with its witnesses")
            for assignment, w in zip(assignments, report.witnesses):
                if w is None:
                    continue
                expect(len(set(w.values)) == len(w.values), f"{member.symbol}: KH witness repeats a color")
                ref.check_coloring(d.resolve(assignment).arcs(), w.values, modulus)
        return Op("kh_property", lambda: invariants.kh_property(build(member.symbol)), check)

    def colorings_op() -> Op:
        # colorings mod a of every resolution of (a) (i^k) (a), as `pk colorings` lists them
        a, k = rng.choice(((11, 3), (13, 2)))
        member = ref.word_member(a, k, a)

        def call():
            d = build(member.symbol)
            return [(assignment, list(invariants.find_colorings(d.resolve(assignment), a)))
                    for assignment in d.resolutions()]

        def check(per_resolution):
            d = build(member.symbol)
            expect(len(per_resolution) == 2 ** k, f"{member.symbol}: {len(per_resolution)} resolutions")
            for assignment, colorings in per_resolution:
                arcs = d.resolve(assignment).arcs()
                for col in colorings:
                    expect(len(set(col.values)) > 1, f"{member.symbol}: trivial coloring listed")
                    ref.check_coloring(arcs, col.values, a)
                total = len(colorings) + a
                expect(ref.is_power_of(total, a), f"{member.symbol}: {total} colorings mod {a} is not a power of {a}")
                # a rational knot's coloring group is cyclic of order det
                det = member.class_det((2 * list(assignment.values()).count(0) - k,))
                want = a * math.gcd(det, a)
                expect(total == want, f"{member.symbol} {assignment}: {total} colorings mod {a}, expected {want}")
        return Op("find_colorings", call, check)

    def make_round() -> list[Op]:
        return [colorable_op(), strong_op(), kh_op(), colorings_op()]
    return make_round


# ---------------------------------------------------------------------------
# cli_mix


@dataclass
class CliResult:
    code: int
    stdout: str
    doc: Any


def _json_documents(text: str) -> list:
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def run_pk(argv: list[str]) -> CliResult:
    """One in-process `pk` call; contract breaches raise OpFailed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # anything escaping main breaks the CLI contract
        raise OpFailed(f"pk {' '.join(argv)}: {type(exc).__name__}: {exc}") from None
    text = out.getvalue()
    if code not in (0, 1, 2):
        raise OpFailed(f"pk {' '.join(argv)}: exit code {code}")
    try:
        docs = _json_documents(text)
    except json.JSONDecodeError as exc:
        raise OpFailed(f"pk {' '.join(argv)}: stdout is not JSON: {exc}") from None
    if len(docs) > 1:
        raise OpFailed(f"pk {' '.join(argv)}: {len(docs)} JSON documents")
    return CliResult(code, text, docs[0] if docs else None)


def _load_schemas(root: Path) -> dict:
    schemas = {}
    for name in ("diagram", "pseudodet-report", "census-report"):
        schemas[name] = json.loads((root / "docs" / "schemas" / f"{name}.schema.json").read_text())
    return schemas


def cli_mix(rng: random.Random, scratch: Path):
    """In-process `pk --format json` calls on small symbols from across the notation."""
    schemas = _load_schemas(Path(__file__).resolve().parent.parent)
    # every symbol has three precrossings, so every symbol command costs about the same
    small = [(1, 1), (1, 2), (2, 1)]
    pool: list[Member] = (
        [ref.rational_member(row, p, q, 3) for row in (1, 2, 3) for p, q in small]
        + [ref.ramified_member(row, p, q, 3) for row in (40, 41) for p, q in small]
        + [m for row in ref.POLYHEDRAL_ROWS for m in ref.polyhedral_members(row, 3)]
    )
    members = _cycle(rng, pool)
    sessions = itertools.count()

    def ok(result: CliResult, what: str) -> Any:
        expect(result.code == 0, f"{what}: exit code {result.code}")
        expect(result.doc is not None, f"{what}: no JSON document")
        return result.doc

    def op(kind: str, argv: list[str], check: Callable[[Any], None]) -> Op:
        return Op(kind, lambda: run_pk(argv + ["--format", "json"]), check)

    def parse_op(m: Member) -> Op:
        def check(result):
            doc = ok(result, "parse")
            expect(doc["crossings"] == m.crossings, f"parse {m.symbol}: {doc['crossings']} crossings, expected {m.crossings}")
            expect(doc["precrossings"] == m.precrossings, f"parse {m.symbol}: {doc['precrossings']} precrossings")
            ref.validate(doc["diagram"], schemas["diagram"])
            expect(len(doc["diagram"]["nodes"]) == m.crossings, f"parse {m.symbol}: diagram node count")
        return op("parse", ["parse", "--emit-diagram", m.symbol], check)

    def det_op() -> Op:
        word = [rng.randint(2, 9) for _ in range(rng.randint(2, 4))]
        symbol = " ".join(map(str, word))

        def check(result):
            doc = ok(result, "det")
            expect(doc["determinant"] == ref.rational_det(word), f"det {symbol}: {doc['determinant']}")
        return op("det", ["det", symbol], check)

    def pseudodet_op(m: Member) -> Op:
        def check(result):
            doc = ok(result, "pseudodet")
            ref.validate(doc, schemas["pseudodet-report"])
            got = Counter(r["det"] for r in doc["resolutions"])
            want = expected_dets(m)
            expect(got == want, f"pseudodet {m.symbol}: resolution determinants differ")
            expect(doc["pseudodet"] == ref.gcd_all(want), f"pseudodet {m.symbol}: {doc['pseudodet']}")
            if m.pseudodet is not None:
                expect(doc["pseudodet"] == m.pseudodet, f"pseudodet {m.symbol}: row {m.row} formula {m.pseudodet}")
        return op("pseudodet", ["pseudodet", m.symbol], check)

    def colorable_op(m: Member) -> Op:
        p = rng.choice((2, 3, 5, 7))

        def check(result):
            doc = ok(result, "colorable")
            want = ref.colorable_from_dets(expected_dets(m), p)
            expect(doc["colorable"] is want, f"colorable --mod {p} {m.symbol}: {doc['colorable']}, expected {want}")
        return op("colorable", ["colorable", "--mod", str(p), m.symbol], check)

    def strong_op(m: Member) -> Op:
        p = rng.choice((2, 3, 5, 7))

        def check(result):
            doc = ok(result, "strong")
            if doc["strong_colorable"]:
                expect(ref.colorable_from_dets(expected_dets(m), p),
                       f"strong --mod {p} {m.symbol}: strongly colorable but not colorable")
        return op("strong", ["strong", "--mod", str(p), m.symbol], check)

    def numbers_op(m: Member) -> Op:
        def check(result):
            doc = ok(result, "coloring-numbers")
            want = ref.coloring_numbers_from_dets(expected_dets(m), 13)
            expect(doc["coloring_numbers"] == want, f"coloring-numbers {m.symbol}: {doc['coloring_numbers']}, expected {want}")
        return op("coloring-numbers", ["coloring-numbers", "--bound", "13", m.symbol], check)

    def kh_op() -> Op:
        a = rng.choice((3, 5))
        m = ref.word_member(a, 1, -a)
        modulus = ref.gcd_all(m.expected_dets())

        def check(result):
            doc = ok(result, "kh")
            expect(doc["mod"] == modulus, f"kh {m.symbol}: mod {doc['mod']}, expected {modulus}")
            d = build(m.symbol)
            expect(doc["kh"] == all(w is not None for w in doc["witnesses"]), f"kh {m.symbol}: holds disagrees")
            for assignment, w in zip(_resolutions_in_order(d), doc["witnesses"]):
                if w is not None:
                    expect(len(set(w)) == len(w), f"kh {m.symbol}: witness repeats a color")
                    ref.check_coloring(d.resolve(assignment).arcs(), w, modulus)
        return op("kh", ["kh", "--witness", m.symbol], check)

    def colorings_op() -> Op:
        while True:
            word = [rng.randint(2, 7) for _ in range(3)]
            det = ref.rational_det(word)
            primes = [p for p in ref.prime_factors(det) if p <= 7]
            if primes:
                break
        p = rng.choice(primes)
        symbol = " ".join(map(str, word))

        def check(result):
            doc = ok(result, "colorings")
            arcs = build(symbol).arcs()
            for col in doc["colorings"]:
                ref.check_coloring(arcs, col, p)
            total = len(doc["colorings"]) + p
            expect(total == p * math.gcd(det, p), f"colorings --mod {p} {symbol}: {total} colorings in all")
        return op("colorings", ["colorings", "--mod", str(p), symbol], check)

    def census_op() -> Op:
        # written when the round is made, one file per session of the round
        census_members = [next(members), next(members)]
        census_file = scratch / f"census-{next(sessions) % 3}.txt"
        census_file.write_text("# pk census input\n" + "".join(m.symbol + "\n" for m in census_members))

        def check(result):
            doc = ok(result, "census")
            ref.validate(doc, schemas["census-report"])
            expect(len(doc["entries"]) == len(census_members), "census: entry count")
            for entry, m in zip(doc["entries"], census_members):
                dets = expected_dets(m)
                expect(entry.get("pseudodet") == ref.gcd_all(dets), f"census {m.symbol}: pseudodet {entry.get('pseudodet')}")
                expect(entry.get("coloring_numbers") == ref.coloring_numbers_from_dets(dets, 13),
                       f"census {m.symbol}: coloring numbers")
        return op("census", ["census", "--bound", "13", str(census_file)], check)

    def refused(result):
        # mended, these calls must end in an error exit, not an answer
        expect(result.code != 0, "pk answered with exit code 0 where it should refuse")

    def session() -> Op:
        """Fourteen pk calls, one op: a single call takes a few ms, short enough
        for host stalls of 20-40 ms to decide the latency tail."""
        calls = []
        for m in (next(members), next(members)):
            calls += [parse_op(m), pseudodet_op(m), colorable_op(m), strong_op(m), numbers_op(m)]
        calls += [det_op(), kh_op(), colorings_op(), census_op()]

        def check(results):
            for call, result in zip(calls, results):
                call.check(result)
        return Op("session", lambda: [call.call() for call in calls], check)

    def make_round() -> list[Op]:
        return [
            session(),
            session(),
            session(),
            # two faults kept as failing operations: a ValueError escapes cli.main
            op("kh_pseudodet_1", ["kh", "(21) (i^3) (31)"], refused),
            op("colorable_mod_1", ["colorable", "--mod", "1", "3 i 3"], refused),
        ]
    return make_round


WORKLOADS = {
    "kernel_chain": kernel_chain,
    "pseudotwist_fan": pseudotwist_fan,
    "coloring_queries": coloring_queries,
    "cli_mix": cli_mix,
}
