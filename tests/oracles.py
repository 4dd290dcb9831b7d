"""Independent oracles the test suite checks the library against.

These stay deliberately naive: continued fractions for rational tangle
words, cofactor expansion and rational elimination for determinants,
exhaustive assignment search for coloring counts, one determinant per
resolution assignment for pseudodeterminant tables, and one Smith-form
coloring count per resolution assignment for colorability.  None of them
share code with the library paths they validate: the colorability oracle
borrows the library's Smith form (checked against brute force in
test_linalg), which is_colorable does not use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from pseudolink.linalg import solution_space_mod


def continued_fraction(word: list[int]) -> Fraction:
    """Fraction of the rational tangle word a1 a2 ... an."""
    value = Fraction(word[0])
    for entry in word[1:]:
        value = entry + (Fraction(1) / value)
    return value


def rational_determinant(word: list[int]) -> int:
    """Determinant of the numerator closure of a rational word."""
    return abs(continued_fraction(word).numerator)


def cofactor_determinant(matrix: list[list[int]]) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j, head in enumerate(matrix[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * head * cofactor_determinant(minor)
    return total


def brute_solution_count(rows: list[list[int]], cols: int, modulus: int) -> int:
    count = 0
    for assign in product(range(modulus), repeat=cols):
        if all(sum(c * a for c, a in zip(row, assign)) % modulus == 0 for row in rows):
            count += 1
    return count


def brute_coloring_count(diagram, modulus: int) -> int:
    """Exhaustive count of colorings of a diagram's classical system."""
    arcs = diagram.arcs()
    eqs = list(arcs.classical.values())
    count = 0
    for assign in product(range(modulus), repeat=arcs.n_arcs):
        if all((assign[uin] + assign[uout] - 2 * assign[over]) % modulus == 0
               for over, uin, uout in eqs):
            count += 1
    return count


def fraction_determinant(matrix: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


def classical_determinant(diagram) -> int:
    """|first minor| of the coloring matrix of a fully classical diagram.

    No crossings: 1 for one component, 0 for several.  A component that
    never passes under leaves more arcs than crossings: the link splits, 0.
    """
    arcs = diagram.arcs()
    n = len(arcs.classical)
    if n == 0:
        return 1 if arcs.components == 1 else 0
    if arcs.n_arcs > n:
        return 0
    rows = _dense_coloring_rows(arcs)
    return abs(fraction_determinant([row[1:] for row in rows[1:]]))


def _dense_coloring_rows(arcs) -> list[list[int]]:
    rows = []
    for over, uin, uout in arcs.classical.values():
        row = [0] * arcs.n_arcs
        row[uin] += 1
        row[uout] += 1
        row[over] -= 2
        rows.append(row)
    return rows


def _resolved(diagram):
    """Every full resolution, precrossings in node-index order, choice 0 first."""
    pres = [i for i, node in enumerate(diagram.nodes) if node.over is None]
    for bits in product((0, 1), repeat=len(pres)):
        yield diagram.resolve(dict(zip(pres, bits)))


def resolution_determinants(diagram) -> list[int]:
    """Determinant of every full resolution, one per assignment.

    Assignments run over the precrossings in node-index order, choice 0
    ('+') before 1, which is the order of the pseudodeterminant table.
    """
    return [classical_determinant(resolved) for resolved in _resolved(diagram)]


def colorable_from_determinants(dets: list[int], modulus: int) -> bool:
    """Every resolution has a nontrivial coloring mod p: each det is 0 or shares a factor with p."""
    return all(det == 0 or gcd(det, modulus) > 1 for det in dets)


def smith_colorable(diagram, modulus: int) -> bool:
    """Every full resolution has a nontrivial coloring mod p, by counting.

    Per assignment, the solutions of the coloring system mod p are counted
    from its Smith form; a coloring is nontrivial when there are more than
    the p constant ones.  Without crossings, the arcs are unconstrained
    and can be colored apart when there are several.
    """
    for resolved in _resolved(diagram):
        arcs = resolved.arcs()
        rows = _dense_coloring_rows(arcs)
        if rows:
            nontrivial = solution_space_mod(rows, modulus).count > modulus
        else:
            nontrivial = arcs.n_arcs > 1
        if not nontrivial:
            return False
    return True
