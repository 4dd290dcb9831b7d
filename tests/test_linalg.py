"""Exact matrix algebra against naive oracles."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pseudolink.diagram import build_diagram
from pseudolink.errors import EnumerationTooLarge
from pseudolink.invariants import determinant
from pseudolink.linalg import (
    abs_det,
    abs_det_sparse,
    minor_determinant,
    smith_normal_form,
    solution_space_mod,
)

from oracles import brute_solution_count, cofactor_determinant, fraction_determinant, rational_determinant


def sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


class TestMinorDeterminant:
    def test_trefoil_matrix(self):
        trefoil = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
        assert minor_determinant(sparse(trefoil), 0, 0) == 3

    def test_empty_minor_of_1x1(self):
        assert minor_determinant([{}], 0, 0) == 1

    def test_hopf(self):
        assert minor_determinant(sparse([[2, -2], [-2, 2]]), 0, 0) == 2

    def test_inner_minor_reindexes_columns(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        assert minor_determinant(sparse(rows), 1, 1) == abs(1 * 10 - 3 * 7)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            minor_determinant(sparse([[1, 0], [0, 1]]), 2, 0)

    def test_non_square(self):
        with pytest.raises(ValueError):
            minor_determinant(sparse([[1, 0, 1], [0, 1, 0]]), 0, 0)  # column 2 of 2 rows
        with pytest.raises(ValueError):
            minor_determinant([], 0, 0)


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@given(small_matrices)
@settings(max_examples=150)
def test_abs_det_matches_cofactor(rows):
    assert abs_det(rows) == abs(cofactor_determinant(rows))


@st.composite
def sparse_square(draw):
    """Sparse rows of order 1..40: near-banded or scattered, some singular or with an empty line.

    Unlike the small dense matrices, these make heap keys go stale and
    leave rows to be rescaled lazily; explicit zero entries are kept in.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    width = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
    cells = [] if width is None else [
        (i, j) for i in range(n) for j in range(max(0, i - width), min(n, i + width + 1))
    ]
    index = st.integers(min_value=0, max_value=n - 1)
    cells += draw(st.lists(st.tuples(index, index), max_size=3 * n))
    values = draw(st.lists(st.integers(min_value=-5, max_value=5), min_size=len(cells), max_size=len(cells)))
    rows = [{} for _ in range(n)]
    for (i, j), v in zip(cells, values):
        rows[i][j] = v
    defect = draw(st.sampled_from(["none", "none", "multiple", "empty row", "empty column"]))
    a, b = draw(index), draw(index)
    if defect == "multiple" and a != b:
        rows[a] = {j: -2 * v for j, v in rows[b].items()}
    elif defect == "empty row":
        rows[a] = {}
    elif defect == "empty column":
        for row in rows:
            row.pop(b, None)
    return rows


@given(sparse_square())
@settings(max_examples=120, deadline=None)
def test_abs_det_sparse_matches_rational_elimination(rows):
    n = len(rows)
    dense = [[row.get(j, 0) for j in range(n)] for row in rows]
    assert abs_det_sparse(rows, n) == abs(fraction_determinant(dense))


def test_long_twist_chain_determinant():
    assert determinant(build_diagram("(1001) (1501)")) == rational_determinant([1001, 1501])


@given(small_matrices)
@settings(max_examples=100)
def test_minor_matches_cofactor(rows):
    minor = [row[1:] for row in rows[1:]]
    assert minor_determinant(sparse(rows), 0, 0) == abs(cofactor_determinant(minor))


@given(small_matrices)
@settings(max_examples=100)
def test_minor_smith_product_matches_minor_determinant(rows):
    minor = [row[1:] for row in rows[1:]]
    value = minor_determinant(sparse(rows), 0, 0)
    factors = smith_normal_form(minor).invariant_factors if minor else ()
    product = math.prod(d for d in factors if d)
    if value != 0:
        assert product == value


class TestSmithForm:
    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).invariant_factors == (1, 1, 1)

    def test_coprime_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]).invariant_factors == (0, 0)

    def test_divisibility_chain(self):
        factors = smith_normal_form([[12, 6, 4], [3, 9, 6], [2, 16, 14]]).invariant_factors
        assert factors == (1, 10, 30)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0 or b == 0


@given(small_matrices)
@settings(max_examples=100)
def test_invariant_factor_product_is_det(rows):
    factors = smith_normal_form(rows).invariant_factors
    product = math.prod(factors)
    assert product == abs_det(rows)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.integers(min_value=1, max_value=4),
        )
    ).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0],
        )
    ),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_solution_count_matches_brute_force(rows, modulus):
    cols = len(rows[0])
    space = solution_space_mod(rows, modulus)
    assert space.count == brute_solution_count(rows, cols, modulus)
    listed = list(space)
    assert len(listed) == space.count
    assert len(set(listed)) == space.count
    for vec in listed:
        assert all(sum(c * v for c, v in zip(row, vec)) % modulus == 0 for row in rows)


def test_solution_enumeration_cap():
    space = solution_space_mod([[0, 0, 0, 0, 0, 0, 0, 0]], 5, cap=100)
    assert space.count == 5**8
    with pytest.raises(EnumerationTooLarge):
        list(space)
