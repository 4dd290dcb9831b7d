"""Coloring invariants of pseudodiagrams.

The classical coloring system has one row x + y - 2z = 0 per classical
crossing (x, y the under-arcs, z the over-arc) and one column per arc.
The strong system appends an equality row for the two arcs that run
through each precrossing.  Everything downstream (determinant,
pseudodeterminant, colorability, coloring numbers, the Kauffman-Harary
property) is driven by those matrices and exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .diagram import DEFAULT_PRECROSSING_CAP, PseudoDiagram
from .errors import HasPrecrossings
from .linalg import minor_determinant, solution_space_mod

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class ColoringSystem:
    """The coloring equations as sparse rows {arc: coefficient}.

    The classical rows come first, in node-index order; a strong system
    appends one equality row per precrossing whose two arcs differ.
    """

    rows: tuple[dict[int, int], ...]
    n_arcs: int

    def dense_rows(self) -> list[list[int]]:
        """The rows n_arcs wide, as the Smith form takes them."""
        dense = []
        for row in self.rows:
            full = [0] * self.n_arcs
            for arc, coeff in row.items():
                full[arc] = coeff
            dense.append(full)
        return dense


def coloring_system(d: PseudoDiagram, strong: bool = False) -> ColoringSystem:
    arcs = d.arcs()
    rows = []
    for idx in sorted(arcs.classical):
        over, uin, uout = arcs.classical[idx]
        row = {uin: 1}
        row[uout] = row.get(uout, 0) + 1
        row[over] = row.get(over, 0) - 2
        rows.append({arc: coeff for arc, coeff in row.items() if coeff})  # a kink's row is 0
    if strong:
        for idx in sorted(arcs.precrossing):
            a, b = arcs.precrossing[idx]
            if a != b:
                rows.append({a: 1, b: -1})
    return ColoringSystem(tuple(rows), arcs.n_arcs)


@dataclass(frozen=True)
class Coloring:
    modulus: int
    values: tuple[int, ...]  # indexed by arc id

    @property
    def is_trivial(self) -> bool:
        return len(set(self.values)) <= 1


def count_colors(c: Coloring) -> int:
    return len(set(c.values))


# ---------------------------------------------------------------------------
# Determinants


def determinant(d: PseudoDiagram) -> int:
    """Determinant of a fully classical diagram.

    Single crossingless component: 1.  Crossingless multi-component, or any
    diagram with a never-undercrossing component: 0 falls out of the minor.
    """
    pres = d.precrossing_indices()
    if pres:
        raise HasPrecrossings(len(pres))
    arcs = d.arcs()
    n = len(arcs.classical)
    if n == 0:
        return 1 if arcs.components == 1 else 0
    if arcs.n_arcs > n:
        return 0  # a component never passes under: split-style diagram
    return minor_determinant(coloring_system(d).rows, 0, 0)


@dataclass(frozen=True)
class ResolutionDet:
    assignment: str  # one '+'/'-' per precrossing, in node-index order
    det: int


@dataclass(frozen=True)
class PseudoDetReport:
    symbol: str | None
    resolutions: tuple[ResolutionDet, ...]
    pseudodeterminant: int

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol,
            "resolutions": [{"assignment": r.assignment, "det": r.det} for r in self.resolutions],
            "pseudodet": self.pseudodeterminant,
        }

    def coloring_numbers(self, bound: int) -> set[int]:
        """All p in 2..bound that share a factor with every resolution determinant.

        0 counts as sharing every factor.  These are the p for which every
        resolution has a nontrivial p-coloring (see _colorable_det).
        """
        dets = {r.det for r in self.resolutions}
        return {p for p in range(2, bound + 1) if all(_colorable_det(det, p) for det in dets)}


def _assignment_string(assignment: dict[int, int]) -> str:
    return "".join("+" if assignment[i] == 0 else "-" for i in sorted(assignment))


def _keyed_resolutions(d: PseudoDiagram, cap: int) -> Iterator[tuple[dict[int, int], tuple[int, ...]]]:
    """Every full resolution with its class key: positive-sense choices per twist group.

    Resolutions with equal keys are isotopic (PseudoDiagram.twist_classes).
    """
    classes = d.twist_classes()
    n_groups = 1 + max((group for group, _ in classes.values()), default=-1)
    for assignment in d.resolutions(cap):
        counts = [0] * n_groups
        for idx, choice in assignment.items():
            group, flip = classes[idx]
            counts[group] += choice == flip
        yield assignment, tuple(counts)


def _resolution_dets(d: PseudoDiagram, cap: int) -> Iterator[tuple[dict[int, int], int]]:
    """Every full resolution with its determinant, computed once per class key."""
    dets: dict[tuple[int, ...], int] = {}
    for assignment, key in _keyed_resolutions(d, cap):
        if key not in dets:
            dets[key] = determinant(d.resolve(assignment))
        yield assignment, dets[key]


def pseudodeterminant(
    d: PseudoDiagram,
    symbol: str | None = None,
    cap: int = DEFAULT_PRECROSSING_CAP,
) -> PseudoDetReport:
    """gcd of the determinants over all full resolutions, with the table.

    The table keeps one entry per assignment, in enumeration order, but a
    determinant is computed only once per resolution class: precrossings
    joined by bigon faces form twist groups, and by Reidemeister II a
    resolution with a positive-sense and b negative-sense choices in a group
    is the integer tangle a - b there, so assignments with the same
    positive-sense count in every group resolve to isotopic links.  An i^n
    thus costs n + 1 determinants instead of 2^n.  The Kauffman-Harary
    property and explicit colorings depend on the diagram, not only on its
    link type (Reidemeister II changes the arc count), so kh_property and
    find_colorings stay per assignment.
    """
    entries = []
    g = 0
    for assignment, det in _resolution_dets(d, cap):
        g = math.gcd(g, det)
        entries.append(ResolutionDet(_assignment_string(assignment), det))
    return PseudoDetReport(symbol, tuple(entries), g)


# ---------------------------------------------------------------------------
# Colorability


def _has_nontrivial_solution(system: ColoringSystem, p: int) -> bool:
    if system.n_arcs == 0:
        return False
    if not system.rows:
        return system.n_arcs > 1  # several unconstrained arcs: color them apart
    return solution_space_mod(system.dense_rows(), p).count > p


def _colorable_det(det: int, p: int) -> bool:
    """A classical diagram of determinant det has a nontrivial p-coloring.

    The coloring count is p times the product of gcd(d_i, p) over the
    invariant factors d_i of the reduced matrix, and a prime divides
    det = prod d_i exactly when it divides some d_i.  det = 0 counts as
    sharing every factor (gcd(0, p) = p).
    """
    return math.gcd(det, p) > 1


def is_colorable(d: PseudoDiagram, p: int, cap: int = DEFAULT_PRECROSSING_CAP) -> bool:
    """Colorable mod p: every full resolution has a nontrivial p-coloring.

    A resolution has one exactly when its determinant is 0 or shares a
    factor with p, and the determinants come one per resolution class (see
    pseudodeterminant).  The walk stops at the first resolution that has
    none.
    """
    if p < 2:
        raise ValueError("modulus must be >= 2")
    return all(_colorable_det(det, p) for _, det in _resolution_dets(d, cap))


def is_strong_colorable(d: PseudoDiagram, p: int) -> bool:
    """Strong colorable mod p: the combined system has a nontrivial solution."""
    if p < 2:
        raise ValueError("modulus must be >= 2")
    return _has_nontrivial_solution(coloring_system(d, strong=True), p)


def coloring_numbers(d: PseudoDiagram, bound: int, cap: int = DEFAULT_PRECROSSING_CAP) -> set[int]:
    """All p in 2..bound for which the diagram is colorable mod p.

    Decided from the per-resolution determinants (PseudoDetReport.coloring_numbers).
    """
    return pseudodeterminant(d, cap=cap).coloring_numbers(bound)


# ---------------------------------------------------------------------------
# Explicit colorings


def find_colorings(
    d: PseudoDiagram,
    p: int,
    strong: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[Coloring]:
    """All nontrivial colorings mod p of the requested system.

    With strong=False the diagram must already be resolved (classical); use
    strong=True to enumerate strong colorings of a pseudodiagram.
    """
    if not strong and d.precrossing_indices():
        raise HasPrecrossings(len(d.precrossing_indices()))
    system = coloring_system(d, strong=strong)
    if system.n_arcs == 0:
        return
    rows = system.dense_rows() or [[0] * system.n_arcs]
    for vec in solution_space_mod(rows, p, cap=cap):
        coloring = Coloring(p, vec)
        if not coloring.is_trivial:
            yield coloring


# ---------------------------------------------------------------------------
# Kauffman-Harary property


@dataclass(frozen=True)
class KHReport:
    holds: bool
    modulus: int
    witnesses: tuple[Coloring | None, ...] = field(default=())

    def witness_color_counts(self) -> tuple[int, ...]:
        return tuple(count_colors(w) for w in self.witnesses if w is not None)


def kh_property(
    d: PseudoDiagram,
    cap: int = DEFAULT_PRECROSSING_CAP,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> KHReport:
    """Whether every resolution has a coloring giving each arc its own color.

    The modulus is the pseudodeterminant; it must be at least 2.
    """
    modulus = pseudodeterminant(d, cap=cap).pseudodeterminant
    if modulus < 2:
        raise ValueError(f"Kauffman-Harary check undefined for pseudodeterminant {modulus}")
    witnesses: list[Coloring | None] = []
    holds = True
    for assignment in d.resolutions(cap):
        resolved = d.resolve(assignment)
        witness = None
        for coloring in find_colorings(resolved, modulus, cap=enumeration_cap):
            if count_colors(coloring) == len(coloring.values):
                witness = coloring
                break
        witnesses.append(witness)
        if witness is None:
            holds = False
    return KHReport(holds, modulus, tuple(witnesses))


# ---------------------------------------------------------------------------
# Twist-family determinant behavior


def det_progression(diagrams: list[PseudoDiagram]) -> bool:
    """Check the constant-step law for three members of a twist family."""
    if len(diagrams) != 3:
        raise ValueError("need exactly three consecutive family members")
    d0, d1, d2 = (determinant(d) for d in diagrams)
    return d1 - d0 == d2 - d1
