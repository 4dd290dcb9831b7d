"""Parametric pseudoknot families and their pseudodeterminant formulas.

Sixty tabulated families over parameters p, q, r, s (twist halves) and
k, m, n (pseudotwist halves), each with a closed-form pseudodeterminant,
plus two supplementary families with the Kauffman-Harary property.  The
verifier instantiates members over a parameter grid, computes the actual
pseudodeterminant at every point, and compares exactly; a family whose
formula disagrees is flagged as a suspected transcription error rather
than failing the run.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterable, Mapping

from . import notation
from .diagram import DEFAULT_PRECROSSING_CAP, build_diagram
from .errors import NoPseudotwistAtLocation
from .invariants import pseudodeterminant
from .notation import ConwayExpr, Elementary, Kind, Polyhedral, Product, Ramification, Reflect, Sum, Twist


@dataclass(frozen=True)
class FamilySpec:
    row_id: int
    template: str                      # Conway symbol with parameter expressions
    formula: Callable[..., int] = field(compare=False)
    formula_text: str = ""
    parameters: tuple[str, ...] = ()

    def __post_init__(self):
        found = _template_parameters(self.template)
        object.__setattr__(self, "parameters", found)


_PARAM_RE = re.compile(r"\{([^{}]+)\}")


def _template_parameters(template: str) -> tuple[str, ...]:
    letters = []
    for name in "pqrskmn":
        if re.search(rf"\d*{name}(?![a-z])", template):
            letters.append(name)
    return tuple(letters)


_LINEAR_RE = re.compile(r"\s*(\d*)\s*([pqrskmn])\s*(?:([+-])\s*(\d+))?\s*")


def _eval_param_expr(expr: str, values: Mapping[str, int]) -> int:
    """Value of a template expression c*x + d or c*x - d, written like 2k-1 or 2q."""
    match = _LINEAR_RE.fullmatch(expr)
    if match is None:
        raise ValueError(f"template expression {expr!r} is not of the form 2k-1")
    coeff, name, sign, offset = match.groups()
    shift = -int(offset) if sign == "-" else int(offset or 0)
    return int(coeff or 1) * values[name] + shift


def instantiate_template(template: str, values: Mapping[str, int]) -> str:
    """Substitute parameter values into a family template."""

    def repl(match: re.Match) -> str:
        return str(_eval_param_expr(match.group(1), values))

    return _PARAM_RE.sub(repl, template)


def _row(row_id: int, template: str, formula_text: str, formula: Callable[..., int]) -> FamilySpec:
    return FamilySpec(row_id, template, formula, formula_text)


def _g(a: int, b: int) -> int:
    return gcd(a, b)


FAMILY_TABLE: tuple[FamilySpec, ...] = (
    _row(1, "({2p+1}) (i^{2k-1}) ({2q+1})",
         "gcd((2p+1)(2q+1), 4pq-1)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), 4*p*q-1)),
    _row(2, "({2p+1}) (i^{2k-1}) -({2q+1})",
         "gcd((2p+1)(2q+1), 4pq+4p+1)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), 4*p*q+4*p+1)),
    _row(3, "({2p}) 1 (i^{2k-1}) 1 ({2q})",
         "gcd((2p+1)(2q+1), 4pq-1)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), 4*p*q-1)),
    _row(4, "({2p+1}),({2q+1}),(i^{2k})",
         "gcd((2p+1)(2q+1), p+q+1)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), p+q+1)),
    _row(5, "({2p+1}),-({2q+1}),(i^{2k})",
         "gcd((2p+1)(2q+1), p-q)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), p-q)),
    _row(6, "({2p+1}),({2q}) 1,(i^{2k})",
         "gcd((2p+1)(2q+1), 4pq+4q+1)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), 4*p*q+4*q+1)),
    _row(7, "({2p+1}),-({2q}) (-1),(i^{2k})",
         "gcd((2p+1)(2q+1), 4pq-1)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), 4*p*q-1)),
    _row(8, "({2p+1}) (i^{2k}) 1 ({2q})",
         "gcd((2p+1)(2q+1), 4pq+4q+1)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), 4*p*q+4*q+1)),
    _row(9, "({2p+1}) (i^{2k}) (-1) (-{2q})",
         "gcd((2p+1)(2q+1), 4pq-1)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), 4*p*q-1)),
    _row(10, "({2p}) 1,({2q}) 1,(i^{2k})",
         "gcd((2p+1)(2q+1), 4pq+p+q)",
         lambda p, q, k: _g((2*p+1)*(2*q+1), 4*p*q+p+q)),
    _row(11, "6*({2p}).({2q}) 0.(i^{2k-1})",
         "gcd(12pq-2p-2q-1, 3p+3q+1)",
         lambda p, q, k: _g(12*p*q-2*p-2*q-1, 3*p+3*q+1)),
    _row(12, "6*({2p}).({2q}) 0.(i^{2k-1}) 0",
         "gcd(12pq-2p-2q-1, 12pq+4p+4q+1)",
         lambda p, q, k: _g(12*p*q-2*p-2*q-1, 12*p*q+4*p+4*q+1)),
    _row(13, "6*({2p}).({2q}) 0.(i^{2k-1}).(-1).(-1).(-1)",
         "gcd(12pq-10p-10q+3, 3p+3q-1)",
         lambda p, q, k: _g(12*p*q-10*p-10*q+3, 3*p+3*q-1)),
    _row(14, "6*({2p}).({2q}) 0.(i^{2k-1}) 0.(-1).(-1).(-1)",
         "gcd(12pq-10p-10q+3, 12pq-4p-4q+1)",
         lambda p, q, k: _g(12*p*q-10*p-10*q+3, 12*p*q-4*p-4*q+1)),
    _row(15, "6*({2p}).({2q}) 0::(i^{2k-1})",
         "gcd(4pq+2p+2q-3, 4pq+3p+3q)",
         lambda p, q, k: _g(4*p*q+2*p+2*q-3, 4*p*q+3*p+3*q)),
    _row(16, "6*({2p}).({2q}) 0::(i^{2k-1}) 0",
         "gcd(4pq+2p+2q-3, 4pq+4p+4q+3)",
         lambda p, q, k: _g(4*p*q+2*p+2*q-3, 4*p*q+4*p+4*q+3)),
    _row(17, "8*(i^{2k-1})::(i^{2m-1})", "3", lambda k, m: 3),
    _row(18, "8*(i^{2k-1}) 0::(i^{2m-1})", "3", lambda k, m: 3),
    _row(19, "8*(i^{2k-1}) 0::(i^{2m-1}) 0", "3", lambda k, m: 3),
    _row(20, "({2p+1}),({2q+1}),(i^{2k})+(i^{2m-1})",
         "gcd((2p+1)(2q+1), 4pq+4p+4q+3)",
         lambda p, q, k, m: _g((2*p+1)*(2*q+1), 4*p*q+4*p+4*q+3)),
    _row(21, "({2p+1}),-({2q+1}),(i^{2k})+(i^{2m-1})",
         "gcd((2p+1)(2q+1), 4pq+4q+1)",
         lambda p, q, k, m: _g((2*p+1)*(2*q+1), 4*p*q+4*q+1)),
    _row(22, "({2p}) ({2q}) (i^{2k-1}) ({2r}) ({2s})",
         "gcd(16pqrs-8pqs-8prs+4pq+4rs-2p-2s+1, 16pqrs+4pq+4rs+1)",
         lambda p, q, r, s, k: _g(16*p*q*r*s-8*p*q*s-8*p*r*s+4*p*q+4*r*s-2*p-2*s+1,
                                  16*p*q*r*s+4*p*q+4*r*s+1)),
    _row(23, "({2p}) ({2q}) (i^{2k-1}) -({2r}) -({2s})",
         "gcd(16pqrs+8pqs-8prs+4pq+4rs-2p+2s+1, 16pqrs+4pq+4rs+1)",
         lambda p, q, r, s, k: _g(16*p*q*r*s+8*p*q*s-8*p*r*s+4*p*q+4*r*s-2*p+2*s+1,
                                  16*p*q*r*s+4*p*q+4*r*s+1)),
    _row(24, "({2p+1}),({2q}) 1,(i^{2k})+(i^{2m-1})",
         "gcd((2p+1)(2q+1), 4pq+p+3q+1)",
         lambda p, q, k, m: _g((2*p+1)*(2*q+1), 4*p*q+p+3*q+1)),
    _row(25, "({2p+1}),-({2q}) (-1),(i^{2k})+(i^{2m-1})",
         "gcd((2p+1)(2q+1), 4pq+p+q)",
         lambda p, q, k, m: _g((2*p+1)*(2*q+1), 4*p*q+p+q)),
    _row(26, "({2p}) 1,({2q}) 1,(i^{2k})+(i^{2m-1})",
         "gcd((2p+1)(2q+1), 12pq+4p+4q+1)",
         lambda p, q, k, m: _g((2*p+1)*(2*q+1), 12*p*q+4*p+4*q+1)),
    _row(27, "6*(i^{2k-1}).({2p}):(i^{2m}).({2q}) 0",
         "gcd(12pq+4p+4q+1, 4pq+4p+4q+3)",
         lambda p, q, k, m: _g(12*p*q+4*p+4*q+1, 4*p*q+4*p+4*q+3)),
    _row(28, "6*(i^{2k-1}) 0.({2p}):(i^{2m}).({2q}) 0",
         "gcd(12pq+4p+4q+1, 4pq+4p+4q+3)",
         lambda p, q, k, m: _g(12*p*q+4*p+4*q+1, 4*p*q+4*p+4*q+3)),
    _row(29, "6*.(i^{2k}):-({2p}).({2q}) 0",
         "gcd(8pq+6p-4q-1, 2pq+2p-3q-1)",
         lambda p, q, k: _g(8*p*q+6*p-4*q-1, 2*p*q+2*p-3*q-1)),
    _row(30, "6*.({2p}).(i^{2k-1}).-({2q}).({2r}) 0.(i^{2m-1})",
         "gcd(8pqr+8pq-4pr+4p-2q+1, 4pqr+4pq-4pr+2qr+q-r)",
         lambda p, q, r, k, m: _g(8*p*q*r+8*p*q-4*p*r+4*p-2*q+1,
                                  4*p*q*r+4*p*q-4*p*r+2*q*r+q-r)),
    _row(31, "6*.({2p}):(i^{2k}).({2q}) 0",
         "gcd(12pq+4p+4q+1, 4pq+4p+4q+3)",
         lambda p, q, k: _g(12*p*q+4*p+4*q+1, 4*p*q+4*p+4*q+3)),
    _row(32, "({2p}) 1 1 (i^{2k-1}) 1 1 ({2q})",
         "gcd(2p+2q+1, (4p+1)(4q+1))",
         lambda p, q, k: _g(2*p+2*q+1, (4*p+1)*(4*q+1))),
    _row(33, "8*(i^{2k}) 0::(i^{2m-1})", "3", lambda k, m: 3),
    _row(34, "8*(i^{2k}) 0::(i^{2m-1}) 0", "3", lambda k, m: 3),
    _row(35, "8*(i^{2k}) 0::(i^{2m-1}).(-1).(-1).(-1)", "9", lambda k, m: 9),
    _row(36, "8*(i^{2k}) 0::(i^{2m-1}) 0.(-1).(-1).(-1)", "9", lambda k, m: 9),
    _row(37, "8*({2p}) 0.(-1).(i^{2k-1}).(-1).(-1).(-1).(i^{2m-1}).(-1)",
         "gcd(8p+1, 9)", lambda p, k, m: _g(8*p+1, 9)),
    _row(38, "8*({2p}) 0.(-1).(i^{2k-1}) 0.(-1).(-1).(-1).(i^{2m-1}).(-1)",
         "gcd(8p+1, 9)", lambda p, k, m: _g(8*p+1, 9)),
    _row(39, "8*({2p}) 0.(-1).(i^{2k-1}) 0.(-1).(-1).(-1).(i^{2m-1}) 0.(-1)",
         "gcd(8p+1, 9)", lambda p, k, m: _g(8*p+1, 9)),
    _row(40, "(i^{2k-1}),({2p+1}),({2q+1})",
         "gcd(4pq-1, p+q+1)",
         lambda p, q, k: _g(4*p*q-1, p+q+1)),
    _row(41, "(i^{2k-1}),({2p}) 1,({2q}) 1",
         "gcd(4pq-1, 4pq+p+q)",
         lambda p, q, k: _g(4*p*q-1, 4*p*q+p+q)),
    _row(42, "6*({2p}) 0.(i^{2k}) 0:({2q}).(i^{2m-1})",
         "gcd(4pq-1, 8pq+3p+3q+1)",
         lambda p, q, k, m: _g(4*p*q-1, 8*p*q+3*p+3*q+1)),
    _row(43, "6*({2p}) 0.(i^{2k}) 0:({2q}).(i^{2m-1}) 0",
         "gcd(4pq-1, (2p+1)(2q+1))",
         lambda p, q, k, m: _g(4*p*q-1, (2*p+1)*(2*q+1))),
    _row(44, "6*({2p}).(i^{2k-1}).({2q}):({2r}) 0",
         "gcd(16pqr+4pq-4pr-4qr-1, 16pqr+4pq+4pr+4qr+2p+2q+1)",
         lambda p, q, r, k: _g(16*p*q*r+4*p*q-4*p*r-4*q*r-1,
                               16*p*q*r+4*p*q+4*p*r+4*q*r+2*p+2*q+1)),
    _row(45, "6*({2p}).(i^{2k-1}) 0.({2q}):({2r}) 0",
         "gcd(16pqr+4pq-4pr-4qr-1, 4pr+4qr+p+q+1)",
         lambda p, q, r, k: _g(16*p*q*r+4*p*q-4*p*r-4*q*r-1, 4*p*r+4*q*r+p+q+1)),
    _row(46, "6*({2p}):({2q}):(i^{2k}) 0",
         "gcd(4pq+4p+4q+3, 4pq+3p+3q)",
         lambda p, q, k: _g(4*p*q+4*p+4*q+3, 4*p*q+3*p+3*q)),
    _row(47, "9*(i^{2k-1})::::(i^{2m-1})", "5", lambda k, m: 5),
    _row(48, "9*(i^{2k-1}) 0::::(i^{2m-1})", "5", lambda k, m: 5),
    _row(49, "9*(i^{2k-1}) 0::::(i^{2m-1}) 0", "5", lambda k, m: 5),
    _row(50, "9*.(i^{2k-1}):.(i^{2m-1}):.(i^{2n-1})", "3", lambda k, m, n: 3),
    _row(51, "9*.(i^{2k-1}) 0:.(i^{2m-1}):.(i^{2n-1})", "3", lambda k, m, n: 3),
    _row(52, "9*.(i^{2k-1}) 0:.(i^{2m-1}) 0:.(i^{2n-1})", "3", lambda k, m, n: 3),
    _row(53, "9*.(i^{2k-1}) 0:.(i^{2m-1}) 0:.(i^{2n-1}) 0", "3", lambda k, m, n: 3),
    _row(54, "9*.(i^{2k-1}).(-1):(i^{2m-1}).(-1):(i^{2n-1}).(-1)", "9",
         lambda k, m, n: 9),
    _row(55, "9*.(i^{2k-1}) 0.(-1):(i^{2m-1}).(-1):(i^{2n-1}).(-1)", "9",
         lambda k, m, n: 9),
    _row(56, "9*.(i^{2k-1}) 0.(-1):(i^{2m-1}) 0.(-1):(i^{2n-1}).(-1)", "9",
         lambda k, m, n: 9),
    _row(57, "9*.(i^{2k-1}) 0.(-1):(i^{2m-1}) 0.(-1):(i^{2n-1}) 0.(-1)", "9",
         lambda k, m, n: 9),
    _row(58, "6*(i^{2k}) 0:({2p}) 0:({2q}) 0",
         "gcd(12pq+4p+4q+1, 3p+3q+1)",
         lambda p, q, k: _g(12*p*q+4*p+4*q+1, 3*p+3*q+1)),
    _row(59, "6*({2p}) 0.(i^{2k-1}).({2q}) 0:({2r}) 0",
         "gcd(4pq+4pr+4qr-4r-1, 4pq+4pr+4qr+2p+2q+4r+1)",
         lambda p, q, r, k: _g(4*p*q+4*p*r+4*q*r-4*r-1,
                               4*p*q+4*p*r+4*q*r+2*p+2*q+4*r+1)),
    _row(60, "6*({2p}) 0.(i^{2k-1}) 0.({2q}) 0:({2r}) 0",
         "gcd(4pq+4pr+4qr-4r-1, 4pq+4pr+4qr+p+q)",
         lambda p, q, r, k: _g(4*p*q+4*p*r+4*q*r-4*r-1, 4*p*q+4*p*r+4*q*r+p+q)),
    # supplementary Kauffman-Harary families
    _row(61, "({2p}) 1 i,({2p+1}),-({2p+1})", "(2p+1)^3", lambda p: (2*p+1)**3),
    _row(62, "({2p}) 1 i,3,-3", "18p+9", lambda p: 18*p+9),
)


def family_table() -> tuple[FamilySpec, ...]:
    return FAMILY_TABLE


def get_family(row_id: int) -> FamilySpec:
    for spec in FAMILY_TABLE:
        if spec.row_id == row_id:
            return spec
    raise KeyError(f"no family row {row_id}")


def instantiate(spec: FamilySpec, **params: int):
    """Symbol and closed diagram of one family member."""
    for name in spec.parameters:
        if params.get(name, 0) < 1:
            raise ValueError(f"parameter {name} must be >= 1")
    symbol = instantiate_template(spec.template, params)
    return symbol, build_diagram(symbol)


def predicted_d(spec: FamilySpec, **params: int) -> int:
    return abs(spec.formula(**{name: params[name] for name in spec.parameters}))


def default_grid(spec: FamilySpec, span: int = 2) -> list[dict[str, int]]:
    values = range(1, span + 1)
    return [dict(zip(spec.parameters, point))
            for point in itertools.product(values, repeat=len(spec.parameters))]


@dataclass(frozen=True)
class GridPoint:
    params: dict[str, int]
    symbol: str
    computed: int | None
    predicted: int
    status: str  # "match" | "mismatch" | "error"
    detail: str = ""


@dataclass(frozen=True)
class RowReport:
    row_id: int
    template: str
    formula_text: str
    points: tuple[GridPoint, ...]
    summary: str  # "match" | "FLAGGED" | "error"

    def to_dict(self) -> dict:
        return {
            "row": self.row_id,
            "template": self.template,
            "formula": self.formula_text,
            "summary": self.summary,
            "points": [
                {
                    "params": pt.params,
                    "symbol": pt.symbol,
                    "computed": pt.computed,
                    "predicted": pt.predicted,
                    "status": pt.status,
                    **({"detail": pt.detail} if pt.detail else {}),
                }
                for pt in self.points
            ],
        }


def verify_row(
    spec: FamilySpec,
    grid: Iterable[Mapping[str, int]] | None = None,
    cap: int = DEFAULT_PRECROSSING_CAP,
) -> RowReport:
    """Compare computed and predicted pseudodeterminants over a grid.

    Every grid point is computed: the pseudodeterminant costs one
    determinant per corner class, 2^g for g twist groups, however long the
    pseudotwists are.  Mismatches flag the row; they do not raise.  A point
    that cannot be computed, such as a member with more than `cap`
    precrossings, is reported as an error.
    """
    points = []
    for params in grid if grid is not None else default_grid(spec):
        params = dict(params)
        symbol = instantiate_template(spec.template, params)
        predicted = predicted_d(spec, **params)
        try:
            computed = pseudodeterminant(build_diagram(symbol), cap=cap).pseudodeterminant
        except Exception as exc:  # computation errors are reported per-point
            points.append(GridPoint(params, symbol, None, predicted, "error", str(exc)))
            continue
        status = "match" if computed == predicted else "mismatch"
        points.append(GridPoint(params, symbol, computed, predicted, status))
    statuses = {pt.status for pt in points}
    summary = "error" if "error" in statuses else "FLAGGED" if "mismatch" in statuses else "match"
    return RowReport(spec.row_id, spec.template, spec.formula_text, tuple(points), summary)


def verify_rows(
    row_ids: Iterable[int] | None = None,
    grid_span: int = 2,
) -> list[RowReport]:
    ids = sorted(row_ids) if row_ids is not None else [s.row_id for s in FAMILY_TABLE]
    reports = []
    for row_id in ids:
        spec = get_family(row_id)
        reports.append(verify_row(spec, default_grid(spec, grid_span)))
    return reports


# ---------------------------------------------------------------------------
# Pseudotwist surgery

PSEUDOTWIST_REPLACEMENTS: dict[str, ConwayExpr] = {
    "(i,1,1)": Ramification((Elementary(Kind.PRE), Elementary(Kind.POS), Elementary(Kind.POS))),
    "(i,-1,-1)": Ramification((Elementary(Kind.PRE), Elementary(Kind.NEG), Elementary(Kind.NEG))),
    "(i,i,1)": Ramification((Elementary(Kind.PRE), Elementary(Kind.PRE), Elementary(Kind.POS))),
    "(i,i,-1)": Ramification((Elementary(Kind.PRE), Elementary(Kind.PRE), Elementary(Kind.NEG))),
    "(i,i,i)": Ramification((Elementary(Kind.PRE), Elementary(Kind.PRE), Elementary(Kind.PRE))),
    "(i,1,-1)": Ramification((Elementary(Kind.PRE), Elementary(Kind.POS), Elementary(Kind.NEG))),
}


def find_pseudotwists(expr: ConwayExpr) -> list[tuple[int, ...]]:
    """Paths (child-index sequences) of pseudotwist subterms: i or i^n."""
    found: list[tuple[int, ...]] = []

    def walk(node: ConwayExpr, path: tuple[int, ...]) -> None:
        if isinstance(node, Elementary):
            if node.kind is Kind.PRE:
                found.append(path)
            return
        if isinstance(node, Twist):
            if node.kind is Kind.PRE:
                found.append(path)
            return
        if isinstance(node, (Product, Sum)):
            walk(node.left, path + (0,))
            walk(node.right, path + (1,))
        elif isinstance(node, Ramification):
            for idx, part in enumerate(node.parts):
                walk(part, path + (idx,))
        elif isinstance(node, Reflect):
            walk(node.inner, path + (0,))
        elif isinstance(node, Polyhedral):
            for idx, slot in enumerate(node.slots):
                walk(slot, path + (idx,))

    walk(expr, ())
    return found


def replace_at(expr: ConwayExpr, path: tuple[int, ...], replacement: ConwayExpr) -> ConwayExpr:
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    if isinstance(expr, (Product, Sum)):
        cls = type(expr)
        if head == 0:
            return cls(replace_at(expr.left, rest, replacement), expr.right)
        return cls(expr.left, replace_at(expr.right, rest, replacement))
    if isinstance(expr, Ramification):
        parts = list(expr.parts)
        parts[head] = replace_at(parts[head], rest, replacement)
        return Ramification(tuple(parts))
    if isinstance(expr, Reflect):
        return Reflect(replace_at(expr.inner, rest, replacement))
    if isinstance(expr, Polyhedral):
        slots = list(expr.slots)
        slots[head] = replace_at(slots[head], rest, replacement)
        return Polyhedral(expr.vertex_count, expr.poly_index, tuple(slots))
    raise NoPseudotwistAtLocation(f"path {path} does not exist in {expr!r}")


def replace_pseudotwist(
    expr: ConwayExpr, location: int, replacement: ConwayExpr | str
) -> ConwayExpr:
    """Substitute the location-th pseudotwist (in discovery order)."""
    twists = find_pseudotwists(expr)
    if not (0 <= location < len(twists)):
        raise NoPseudotwistAtLocation(
            f"no pseudotwist #{location}; found {len(twists)}"
        )
    if isinstance(replacement, str):
        replacement = PSEUDOTWIST_REPLACEMENTS.get(replacement) or notation.parse(replacement)
    return replace_at(expr, twists[location], replacement)


def twist_replacement_check(
    symbol_or_expr: str | ConwayExpr,
    location: int,
    replacement: ConwayExpr | str,
    cap: int = DEFAULT_PRECROSSING_CAP,
) -> bool:
    """True when the substitution leaves the pseudodeterminant unchanged."""
    expr = notation.parse(symbol_or_expr) if isinstance(symbol_or_expr, str) else symbol_or_expr
    before = pseudodeterminant(build_diagram(expr), cap=cap).pseudodeterminant
    after_expr = replace_pseudotwist(expr, location, replacement)
    after = pseudodeterminant(build_diagram(after_expr), cap=cap).pseudodeterminant
    return before == after
