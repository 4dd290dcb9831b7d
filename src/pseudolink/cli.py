"""Command line front end: the `pk` tool.

Symbols contain spaces, so pass them quoted ("pk pseudodet '2 1 i,3,-3'"),
or use --stdin to stream one symbol per line.  --format json switches every
command to a single JSON document on stdout (with --stdin, an array of the
per-symbol documents).  Exit codes: 0 success, 1 domain error (bad symbol,
cap exceeded), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, NoReturn

from . import families, invariants, notation
from .diagram import DEFAULT_PRECROSSING_CAP, PseudoDiagram, build_diagram
from .errors import DiagramError, EnumerationTooLarge, NotationError, TooManyPrecrossings


def _out(args, payload: dict, text_lines: Iterable[str]) -> None:
    if args.documents is not None:
        args.documents.append(payload)
    elif args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for line in text_lines:
            print(line)


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _symbols(args) -> list[str]:
    if args.stdin:
        return [line.strip() for line in sys.stdin if line.strip() and not line.lstrip().startswith("#")]
    return [args.symbol]


def _diagram(symbol: str, args) -> PseudoDiagram:
    d = build_diagram(symbol)
    cap = getattr(args, "max_precrossings", DEFAULT_PRECROSSING_CAP)
    pres = len(d.precrossing_indices())
    if pres > cap:
        raise TooManyPrecrossings(pres, cap)
    return d


def cmd_parse(args) -> None:
    for symbol in _symbols(args):
        expr = notation.parse(symbol)
        unreduced = notation.render(expr)
        reduced = notation.render(expr, reduced=True)
        d = build_diagram(expr)
        payload = {
            "symbol": symbol,
            "unreduced": unreduced,
            "reduced": reduced,
            "crossings": d.crossing_count,
            "precrossings": len(d.precrossing_indices()),
            "components": d.arcs().components,
            "arcs": d.arcs().n_arcs,
        }
        lines = [
            f"symbol:       {symbol}",
            f"unreduced:    {unreduced}",
            f"reduced:      {reduced}",
            f"crossings:    {d.crossing_count} ({len(d.precrossing_indices())} precrossings)",
            f"components:   {d.arcs().components}",
            f"arcs:         {d.arcs().n_arcs}",
        ]
        if args.emit_diagram:
            payload["diagram"] = d.to_dict()
            lines.append("diagram:      " + json.dumps(d.to_dict()))
        _out(args, payload, lines)


def cmd_det(args) -> None:
    for symbol in _symbols(args):
        value = invariants.determinant(_diagram(symbol, args))
        _out(args, {"symbol": symbol, "determinant": value}, [str(value)])


def cmd_pseudodet(args) -> None:
    for symbol in _symbols(args):
        report = invariants.pseudodeterminant(
            _diagram(symbol, args), symbol=symbol, cap=args.max_precrossings
        )
        payload = report.to_dict()
        lines = [str(report.pseudodeterminant)]
        if args.verbose:
            lines = [f"{symbol}: pseudodeterminant {report.pseudodeterminant}"] + [
                f"  resolution {r.assignment or '(none)'}: det {r.det}" for r in report.resolutions
            ]
        _out(args, payload, lines)


def cmd_colorable(args) -> None:
    for symbol in _symbols(args):
        value = invariants.is_colorable(_diagram(symbol, args), args.mod, cap=args.max_precrossings)
        _out(args, {"symbol": symbol, "mod": args.mod, "colorable": value}, [str(value).lower()])


def cmd_strong(args) -> None:
    for symbol in _symbols(args):
        value = invariants.is_strong_colorable(_diagram(symbol, args), args.mod)
        _out(args, {"symbol": symbol, "mod": args.mod, "strong_colorable": value}, [str(value).lower()])


def cmd_coloring_numbers(args) -> None:
    for symbol in _symbols(args):
        values = sorted(
            invariants.coloring_numbers(_diagram(symbol, args), args.bound, cap=args.max_precrossings)
        )
        _out(
            args,
            {"symbol": symbol, "bound": args.bound, "coloring_numbers": values},
            [" ".join(map(str, values)) if values else "(none)"],
        )


def cmd_colorings(args) -> None:
    for symbol in _symbols(args):
        d = _diagram(symbol, args)
        payload: dict = {"symbol": symbol, "mod": args.mod, "strong": args.strong}
        lines: list[str] = []
        if args.strong or not d.precrossing_indices():
            colorings = []
            for c in invariants.find_colorings(d, args.mod, strong=args.strong):
                colorings.append(list(c.values))
                if args.limit and len(colorings) >= args.limit:
                    break
            payload["colorings"] = colorings
            lines.append(f"{len(colorings)} nontrivial coloring(s) mod {args.mod}")
            lines += ["  " + " ".join(map(str, c)) for c in colorings]
        else:
            per_resolution = []
            for assignment in d.resolutions(args.max_precrossings):
                resolved = d.resolve(assignment)
                name = invariants._assignment_string(assignment)
                colorings = []
                for c in invariants.find_colorings(resolved, args.mod):
                    colorings.append(list(c.values))
                    if args.limit and len(colorings) >= args.limit:
                        break
                per_resolution.append({"assignment": name, "colorings": colorings})
                lines.append(f"resolution {name}: {len(colorings)} nontrivial coloring(s)")
                lines += ["  " + " ".join(map(str, c)) for c in colorings]
            payload["resolutions"] = per_resolution
        _out(args, payload, lines)


def cmd_kh(args) -> None:
    for symbol in _symbols(args):
        report = invariants.kh_property(_diagram(symbol, args), cap=args.max_precrossings)
        payload = {
            "symbol": symbol,
            "kh": report.holds,
            "mod": report.modulus,
        }
        lines = [f"{str(report.holds).lower()} (mod {report.modulus})"]
        if args.witness:
            payload["witnesses"] = [list(w.values) if w else None for w in report.witnesses]
            for idx, w in enumerate(report.witnesses):
                if w is None:
                    lines.append(f"  resolution {idx}: no all-distinct coloring")
                else:
                    lines.append(
                        f"  resolution {idx}: {invariants.count_colors(w)} colors: "
                        + " ".join(map(str, w.values))
                    )
        _out(args, payload, lines)


def cmd_census(args) -> None:
    try:
        with open(args.input) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    entries = []
    failures = 0
    histogram: dict[int, int] = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        symbol = raw.split("#", 1)[0].strip()
        if not symbol:
            continue
        try:
            d = _diagram(symbol, args)
            report = invariants.pseudodeterminant(d, symbol=symbol, cap=args.max_precrossings)
            numbers = sorted(report.coloring_numbers(args.bound))
            value = report.pseudodeterminant
            histogram[value] = histogram.get(value, 0) + 1
            entries.append(
                {"symbol": symbol, "pseudodet": value, "coloring_numbers": numbers}
            )
        except (NotationError, DiagramError, EnumerationTooLarge, ValueError) as exc:
            failures += 1
            entries.append({"symbol": symbol, "error": str(exc)})
            print(f"line {lineno}: {symbol!r}: {exc}", file=sys.stderr)
    attempted = len(entries)
    payload = {
        "bound": args.bound,
        "entries": entries,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
        "failures": failures,
    }
    lines = []
    for entry in entries:
        if "error" in entry:
            lines.append(f"{entry['symbol']}: error: {entry['error']}")
        else:
            nums = " ".join(map(str, entry["coloring_numbers"]))
            lines.append(f"{entry['symbol']}: d={entry['pseudodet']} colorable mod {{{nums}}}")
    lines.append("")
    summary = ", ".join(f"{count} with d={value}" for value, count in sorted(histogram.items()))
    lines.append(f"summary: {summary if summary else '(empty)'}")
    _out(args, payload, lines)
    if attempted and failures == attempted:
        raise SystemExit(1)


def cmd_families(args) -> None:
    if args.action == "list":
        payload = {
            "rows": [
                {"row": s.row_id, "template": s.template, "formula": s.formula_text}
                for s in families.family_table()
            ]
        }
        lines = [f"{s.row_id:3d}  {s.template:55s} d = {s.formula_text}" for s in families.family_table()]
        _out(args, payload, lines)
        return
    if args.action == "show":
        try:
            spec = families.get_family(args.row)
        except KeyError as exc:
            _usage_error(str(exc))
        base = {name: 1 for name in spec.parameters}
        symbol, _ = families.instantiate(spec, **base)
        payload = {
            "row": spec.row_id,
            "template": spec.template,
            "formula": spec.formula_text,
            "parameters": list(spec.parameters),
            "first_member": symbol,
        }
        lines = [
            f"row {spec.row_id}",
            f"  template:     {spec.template}",
            f"  parameters:   {', '.join(spec.parameters)}",
            f"  pseudodet:    {spec.formula_text}",
            f"  first member: {symbol}",
        ]
        _out(args, payload, lines)
        return
    # verify
    row_ids = _parse_rows(args.rows) if args.rows else None
    grid_span = 2
    if args.grid:
        grid_span = _parse_grid_span(args.grid)
    reports = families.verify_rows(row_ids, grid_span=grid_span)
    payload = {"reports": [r.to_dict() for r in reports]}
    lines = []
    for rep in reports:
        counts = {"match": 0, "mismatch": 0, "error": 0}
        for pt in rep.points:
            counts[pt.status] += 1
        lines.append(
            f"row {rep.row_id:3d}: {rep.summary:7s} "
            f"({counts['match']} match, {counts['mismatch']} mismatch, {counts['error']} error)"
        )
        if rep.summary != "match":
            for pt in rep.points:
                if pt.status in ("mismatch", "error"):
                    lines.append(
                        f"      {pt.symbol}  computed={pt.computed} predicted={pt.predicted} [{pt.status}]"
                    )
    flagged = [r.row_id for r in reports if r.summary == "FLAGGED"]
    errors = [r.row_id for r in reports if r.summary == "error"]
    lines.append("")
    lines.append(
        f"{sum(1 for r in reports if r.summary == 'match')} rows match, "
        f"{len(flagged)} flagged {flagged if flagged else ''}, {len(errors)} errored"
    )
    _out(args, payload, lines)
    if errors:
        raise SystemExit(1)


def _parse_rows(spec: str) -> list[int]:
    out: set[int] = set()
    for piece in spec.split(","):
        piece = piece.strip()
        if "-" in piece:
            lo, hi = piece.split("-", 1)
            out.update(range(int(lo), int(hi) + 1))
        elif piece:
            out.add(int(piece))
    return sorted(out)


def _parse_grid_span(spec: str) -> int:
    """The span of a grid spec such as "p=1:3,k=1:3" or "3".

    The verifier walks every parameter over 1..span, so each range must
    start at 1 and all must end at the same value.
    """
    spans = set()
    for piece in filter(None, map(str.strip, spec.split(","))):
        lo, _, hi = piece.split("=", 1)[-1].rpartition(":")
        try:
            if int(lo or 1) != 1:
                _usage_error(f"grid range {piece!r} must start at 1")
            spans.add(int(hi))
        except ValueError:
            _usage_error(f"bad grid range {piece!r}; use e.g. p=1:3")
    if len(spans) > 1 or min(spans, default=1) < 1:
        _usage_error(f"grid {spec!r} needs one common span >= 1 for every parameter")
    return spans.pop() if spans else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pk",
        description="Extended Conway notation and coloring invariants of pseudoknots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, symbol: bool = True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-precrossings", type=int, default=DEFAULT_PRECROSSING_CAP)
        if symbol:
            p.add_argument("symbol", nargs="?", help="Conway symbol (quote it: spaces matter)")
            p.add_argument("--stdin", action="store_true", help="read one symbol per line from stdin")

    p = sub.add_parser("parse", help="expand shorthand and summarize the diagram")
    common(p)
    p.add_argument("--emit-diagram", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("det", help="determinant of a classical diagram")
    common(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("pseudodet", help="gcd of determinants over all resolutions")
    common(p)
    p.add_argument("--verbose", action="store_true", help="list each resolution determinant")
    p.set_defaults(func=cmd_pseudodet)

    p = sub.add_parser("colorable", help="colorable mod p (every resolution)")
    common(p)
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=cmd_colorable)

    p = sub.add_parser("strong", help="strong colorability mod p")
    common(p)
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=cmd_strong)

    p = sub.add_parser("coloring-numbers", help="all p up to a bound with a coloring")
    common(p)
    p.add_argument("--bound", type=int, default=13)
    p.set_defaults(func=cmd_coloring_numbers)

    p = sub.add_parser("colorings", help="enumerate nontrivial colorings")
    common(p)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--strong", action="store_true")
    p.add_argument("--limit", type=int, default=0, help="stop after this many per system")
    p.set_defaults(func=cmd_colorings)

    p = sub.add_parser("kh", help="Kauffman-Harary property at the pseudodeterminant")
    common(p)
    p.add_argument("--witness", action="store_true", help="print witness colorings")
    p.set_defaults(func=cmd_kh)

    p = sub.add_parser("census", help="pseudodeterminant histogram over a symbol file")
    p.add_argument("input", help="newline-separated Conway symbols; # comments allowed")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--bound", type=int, default=13)
    p.add_argument("--max-precrossings", type=int, default=DEFAULT_PRECROSSING_CAP)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("families", help="tabulated pseudoknot families")
    p.add_argument("action", choices=("list", "show", "verify"))
    p.add_argument("row", nargs="?", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--rows", help="e.g. 1,17-19")
    p.add_argument("--grid", help="per-parameter ranges, e.g. p=1:2,k=1:3")
    p.set_defaults(func=cmd_families)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "families" and args.action == "show" and args.row is None:
        parser.error("families show needs a row number")
    if getattr(args, "symbol", "") is None and not args.stdin:
        parser.error(f"{args.command} needs a symbol or --stdin")
    if getattr(args, "symbol", None) is not None and args.stdin:
        parser.error(f"{args.command} takes a symbol or --stdin, not both")
    args.documents = [] if getattr(args, "stdin", False) and args.format == "json" else None
    try:
        args.func(args)
        if args.documents is not None:
            print(json.dumps(args.documents, indent=1))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (NotationError, DiagramError, EnumerationTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
