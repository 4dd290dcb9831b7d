"""Coloring invariants of pseudodiagrams.

The classical coloring system has one row x + y - 2z = 0 per classical
crossing (x, y the under-arcs, z the over-arc) and one column per arc.
The strong system appends an equality row for the two arcs that run
through each precrossing.  Everything downstream (determinant,
pseudodeterminant, colorability, coloring numbers, the Kauffman-Harary
property) is driven by those matrices and exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .diagram import DEFAULT_PRECROSSING_CAP, PseudoDiagram
from .errors import HasPrecrossings, TooManyPrecrossings
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


class _ClassTable:
    """Determinants of a diagram's resolution classes, each computed at most once.

    Precrossings joined by bigon faces form twist groups, and by
    Reidemeister II a resolution with a positive-sense and b negative-sense
    choices in a group is the integer tangle a - b there
    (PseudoDiagram.twist_classes).  So a resolution's link type depends only
    on its key, the positive-sense count in every group: an i^n has n + 1
    classes instead of 2^n.  A class's determinant comes from one
    representative, the resolution whose first members in each group take
    the positive sense.
    """

    def __init__(self, d: PseudoDiagram, cap: int):
        pres = d.precrossing_indices()
        if len(pres) > cap:
            raise TooManyPrecrossings(len(pres), cap)
        self.d = d
        self.cap = cap
        classes = d.twist_classes()
        self.groups: list[list[tuple[int, int]]] = [[] for _ in {group for group, _ in classes.values()}]
        for idx in pres:
            group, flip = classes[idx]
            self.groups[group].append((idx, flip))
        self._dets: dict[tuple[int, ...], int] = {}

    def keys(self) -> Iterator[tuple[int, ...]]:
        """Every class key: 0..n positive-sense choices in each group of n."""
        return itertools.product(*(range(len(members) + 1) for members in self.groups))

    def corners(self) -> Iterator[tuple[int, ...]]:
        """The 2^g keys with 0 or 1 positive-sense choice in each group."""
        return itertools.product((0, 1), repeat=len(self.groups))

    def det(self, key: tuple[int, ...]) -> int:
        if key not in self._dets:
            assignment = {
                idx: flip if pos < count else 1 - flip
                for members, count in zip(self.groups, key)
                for pos, (idx, flip) in enumerate(members)
            }
            self._dets[key] = determinant(self.d.resolve(assignment))
        return self._dets[key]

    def resolutions(self) -> tuple[ResolutionDet, ...]:
        """One entry per assignment, in PseudoDiagram.resolutions order."""
        entries = []
        for assignment in self.d.resolutions(self.cap):
            key = tuple(sum(assignment[idx] == flip for idx, flip in members) for members in self.groups)
            entries.append(ResolutionDet(_assignment_string(assignment), self.det(key)))
        return tuple(entries)


@dataclass(frozen=True)
class PseudoDetReport:
    symbol: str | None
    pseudodeterminant: int
    _table: _ClassTable = field(repr=False, compare=False)

    @cached_property
    def resolutions(self) -> tuple[ResolutionDet, ...]:
        """Every full resolution with its determinant, built on first access."""
        return self._table.resolutions()

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol,
            "resolutions": [{"assignment": r.assignment, "det": r.det} for r in self.resolutions],
            "pseudodet": self.pseudodeterminant,
        }

    def coloring_numbers(self, bound: int) -> set[int]:
        """All p in 2..bound that share a factor with every resolution determinant.

        0 counts as sharing every factor.  These are the p for which every
        resolution has a nontrivial p-coloring (see _colorable_det).  A
        composite p needs every class determinant, not only their gcd.
        """
        dets = {self._table.det(key) for key in self._table.keys()}
        return {p for p in range(2, bound + 1) if all(_colorable_det(det, p) for det in dets)}


def _assignment_string(assignment: dict[int, int]) -> str:
    return "".join("+" if assignment[i] == 0 else "-" for i in sorted(assignment))


def pseudodeterminant(
    d: PseudoDiagram,
    symbol: str | None = None,
    cap: int = DEFAULT_PRECROSSING_CAP,
) -> PseudoDetReport:
    """gcd of the determinants over all full resolutions, with the table.

    The gcd is taken over the 2^g corner classes only, those with 0 or 1
    positive-sense choice in each twist group: the signed determinant is
    multiaffine in the groups' net twists t (Conway 1970), and
    f(t + 2j) = (1 - j) f(t) + j f(t + 2) makes every class determinant an
    integer combination of the corners.  The per-assignment table is built
    on first access.  kh_property and find_colorings stay per assignment:
    they depend on the diagram, not only on its link type.
    """
    table = _ClassTable(d, cap)
    return PseudoDetReport(symbol, math.gcd(*(table.det(key) for key in table.corners())), table)


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
    _ClassTable).  The walk stops at the first class that has none.
    """
    if p < 2:
        raise ValueError("modulus must be >= 2")
    table = _ClassTable(d, cap)
    return all(_colorable_det(table.det(key), p) for key in table.keys())


def is_strong_colorable(d: PseudoDiagram, p: int) -> bool:
    """Strong colorable mod p: the combined system has a nontrivial solution."""
    if p < 2:
        raise ValueError("modulus must be >= 2")
    return _has_nontrivial_solution(coloring_system(d, strong=True), p)


def coloring_numbers(d: PseudoDiagram, bound: int, cap: int = DEFAULT_PRECROSSING_CAP) -> set[int]:
    """All p in 2..bound for which the diagram is colorable mod p.

    Decided from the class determinants (PseudoDetReport.coloring_numbers).
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
