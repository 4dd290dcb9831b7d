"""Exact integer matrix algebra: minors, Smith normal form, solution spaces.

Everything here is arbitrary-precision integer arithmetic; no floats.
Determinants use fraction-free elimination on sparse rows, the Markowitz
pivot popped from a lazy min-heap, so the near-banded coloring matrices of
long twist chains cost close to linear time.  The Smith form uses plain gcd
reduction with smallest-pivot selection, ample at coloring-system sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import EnumerationTooLarge

Rows = Sequence[Sequence[int]]


def _as_rows(m: Rows) -> list[list[int]]:
    return [list(r) for r in m]


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors d1 | d2 | ... | dr followed by zeros."""

    invariant_factors: tuple[int, ...]

    @property
    def nonzero(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d != 0)


# ---------------------------------------------------------------------------
# Determinants


def abs_det_sparse(rows: Iterable[dict[int, int]], size: int) -> int:
    """|det| of a square integer matrix given as sparse rows.

    Fraction-free one-step elimination.  The pivot, least Markowitz cost
    (row length - 1) * (column count - 1) then least |value|, pops from a
    min-heap of (cost, |value|, row, column) keys.  A step changes only the
    lengths of the rows it updates and of the pivot row's columns, so only
    their entries get fresh keys; a popped key whose entry is gone or whose
    cost is out of date is a stale copy and is dropped.
    Rows that miss the pivot column are left stale and carry the pivot value
    current at their last update; they are rescaled lazily when next touched.
    Row/column permutations only flip the sign, which abs() discards.
    """
    if size == 0:
        return 1
    work = [{c: v for c, v in r.items() if v} for r in rows]
    if len(work) != size:
        raise ValueError("row count does not match size")
    denom = [1] * size  # pivot value current when the row was last updated
    col_rows: dict[int, set[int]] = {}  # column -> active rows with an entry there
    for r, row in enumerate(work):
        if not row:
            return 0
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    heap = [((len(row) - 1) * (len(col_rows[c]) - 1), abs(v), r, c)
            for r, row in enumerate(work) for c, v in row.items()]
    heapify(heap)
    prev = 1
    for _ in range(size):
        while True:
            cost, _, pr, pc = heappop(heap)
            if pr in col_rows[pc] and cost == (len(work[pr]) - 1) * (len(col_rows[pc]) - 1):
                break
        # bring the pivot row up to the current elimination order
        if denom[pr] != prev:
            d = denom[pr]
            work[pr] = {c: v * prev // d for c, v in work[pr].items()}
            denom[pr] = prev
        pivot_row = work[pr]
        pv = pivot_row[pc]
        updated = col_rows[pc] - {pr}
        for r in updated:
            row = work[r]
            if denom[r] != prev:
                d = denom[r]
                for c in row:
                    row[c] = row[c] * prev // d
            factor = row.pop(pc)
            col_rows[pc].discard(r)
            for c, pvc in pivot_row.items():
                if c == pc:
                    continue
                new = (row.get(c, 0) * pv - factor * pvc) // prev
                if new == 0:
                    if c in row:
                        del row[c]
                        col_rows[c].discard(r)
                else:
                    if c not in row:
                        col_rows[c].add(r)
                    row[c] = new
            if not row:
                return 0
            for c in [c for c in row if c not in pivot_row]:
                row[c] = row[c] * pv // prev
            denom[r] = pv
        for c in pivot_row:
            rows_c = col_rows[c]
            rows_c.discard(pr)
            k = len(rows_c) - 1
            for r in rows_c - updated:
                heappush(heap, ((len(work[r]) - 1) * k, abs(work[r][c]), r, c))
        for r in updated:
            k = len(work[r]) - 1
            for c, v in work[r].items():
                heappush(heap, (k * (len(col_rows[c]) - 1), abs(v), r, c))
        prev = pv
    return abs(prev)


def abs_det(m: Rows) -> int:
    rows = _as_rows(m)
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("determinant needs a square matrix")
    sparse = [{j: v for j, v in enumerate(r) if v != 0} for r in rows]
    return abs_det_sparse(sparse, size)


def minor_determinant(rows: Sequence[Mapping[int, int]], drop_row: int, drop_col: int) -> int:
    """|det| of a square matrix of sparse rows less one row and one column.

    Row i maps column j to entry (i, j); absent columns are 0, and n rows
    make an n x n matrix.  For a 1x1 matrix the minor is empty and its
    determinant is 1.
    """
    n = len(rows)
    if n == 0 or any(not 0 <= j < n for row in rows for j in row):
        raise ValueError("minor_determinant needs n >= 1 rows with columns in 0..n-1")
    if not (0 <= drop_row < n and 0 <= drop_col < n):
        raise IndexError(f"cannot drop ({drop_row}, {drop_col}) from a {n}x{n} matrix")
    minor = [
        {j - (j > drop_col): v for j, v in row.items() if j != drop_col}
        for i, row in enumerate(rows)
        if i != drop_row
    ]
    return abs_det_sparse(minor, n - 1)


# ---------------------------------------------------------------------------
# Smith normal form


def _smith_engine(rows: list[list[int]], want_transform: bool) -> tuple[list[int], list[list[int]] | None]:
    a = [row[:] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    v = [[int(i == j) for j in range(m)] for i in range(m)] if want_transform else None

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_col(dst: int, src: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]
        if v is not None:
            for row in v:
                row[dst] += q * row[src]

    t = 0
    bound = min(n, m)
    while t < bound:
        # smallest nonzero entry of the trailing submatrix becomes the pivot
        pr = pc = -1
        best = 0
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best == 0 or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pr, pc = i, j
        if pr < 0:
            break
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, m):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                if q:
                    add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing submatrix for the chain
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        t += 1
    d = [abs(a[i][i]) for i in range(bound)]
    return d, v


def smith_normal_form(m: Rows) -> SmithForm:
    rows = _as_rows(m)
    if not rows or not rows[0]:
        return SmithForm(())
    d, _ = _smith_engine(rows, want_transform=False)
    return SmithForm(tuple(d))


# ---------------------------------------------------------------------------
# Solution spaces modulo an integer


class SolutionSpace:
    """Solutions of M x = 0 over Z/modulus, with exact count and enumerator.

    The count is always available; iterating enumerates every solution
    vector exactly once and raises EnumerationTooLarge up front when the
    count exceeds the cap.
    """

    def __init__(self, m: Rows, modulus: int, cap: int = 10**6):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        rows = _as_rows(m)
        self.modulus = modulus
        self.cap = cap
        self.cols = len(rows[0]) if rows else 0
        if not rows or self.cols == 0:
            self._diag: list[int] = []
            self._v: list[list[int]] | None = None
        else:
            d, v = _smith_engine(rows, want_transform=True)
            self._diag = d + [0] * (min(len(rows), self.cols) - len(d))
            self._v = v
        free = self.cols - len(self._diag)
        count = modulus**free
        for d in self._diag:
            count *= math.gcd(d, modulus) if d else modulus
        self.count = count

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if self.count > self.cap:
            raise EnumerationTooLarge(self.count, self.cap)
        p = self.modulus
        if self.cols == 0:
            yield ()
            return
        choices: list[list[int]] = []
        for d in self._diag:
            g = math.gcd(d, p) if d else p
            step = p // g
            choices.append([k * step for k in range(g)])
        for _ in range(self.cols - len(self._diag)):
            choices.append(list(range(p)))
        v = self._v
        assert v is not None

        def rec(idx: int, y: list[int]) -> Iterator[tuple[int, ...]]:
            if idx == len(choices):
                yield tuple(sum(v[r][c] * y[c] for c in range(self.cols)) % p for r in range(self.cols))
                return
            for val in choices[idx]:
                y[idx] = val
                yield from rec(idx + 1, y)

        yield from rec(0, [0] * self.cols)


def solution_space_mod(m: Rows, modulus: int, cap: int = 10**6) -> SolutionSpace:
    return SolutionSpace(m, modulus, cap)
