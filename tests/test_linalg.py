import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforms import linalg
from arcforms.field import make_field

from conftest import inverse, rank

F5 = make_field(5)
F7 = make_field(7)


def det_cofactor(gf, rows):
    """Independent determinant oracle: Laplace expansion along row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        term = gf.mul(rows[0][j], det_cofactor(gf, minor))
        total = gf.add(total, term) if j % 2 == 0 else gf.sub(total, term)
    return total


def test_det_examples():
    assert linalg.det(F5, linalg.identity(3)) == 1
    assert linalg.det(F5, [[1, 2], [1, 2]]) == 0
    assert linalg.det(F5, [[1, 2], [3, 4]]) == 3


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.det(F5, [[1, 2, 3], [4, 5, 6]])


def test_det_cross_check_cofactor_random_4x4():
    rng = random.Random(0)
    for _ in range(25):
        m = [[rng.randrange(7) for _ in range(4)] for _ in range(4)]
        assert linalg.det(F7, m) == det_cofactor(F7, m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_alternating(m):
    d = linalg.det(F7, m)
    swapped = [m[1], m[0], m[2]]
    assert linalg.det(F7, swapped) == F7.neg(d)
    assert linalg.det(F7, [m[0], m[0], m[2]]) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 6), min_size=k, max_size=k), min_size=k - 1, max_size=k - 1
)))
def test_minor_forms_are_cofactor_expansions(rows):
    # L_j·x is the determinant of [rows, x] with column j deleted
    *prefix, x = rows
    k = len(x)
    forms = linalg.minor_forms_batch(F7, [prefix])[0]
    assert len(forms) == k
    for j, L in enumerate(forms):
        minor = [[r[c] for c in range(k) if c != j] for r in rows]
        assert linalg.dot(F7, L, x) == det_cofactor(F7, minor)


F9 = make_field(3, 2)


@st.composite
def matrix_batches(draw, rows=None, ncols=None):
    """(field, batch, ncols): 1-6 matrices of r rows and ncols >= r
    columns, over GF(7) or GF(3^2), some with a row zeroed or repeated."""
    gf = draw(st.sampled_from([F7, F9]))
    r = draw(st.integers(1, 4)) if rows is None else rows
    ncols = draw(st.integers(r, 5)) if ncols is None else ncols
    row = st.lists(st.integers(0, gf.q - 1), min_size=ncols, max_size=ncols)
    batch = draw(st.lists(st.lists(row, min_size=r, max_size=r), min_size=1, max_size=6))
    for m in batch:
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        kind = draw(st.sampled_from(["as drawn", "zero row", "repeated row"]))
        if kind == "zero row":
            m[i] = [0] * ncols
        elif kind == "repeated row":
            m[i] = list(m[j])
    return gf, batch, ncols


@settings(max_examples=80, deadline=None)
@given(matrix_batches())
def test_batched_minors_are_cofactor_expansions(case):
    # entry b of the column of each column subset is that minor of matrix b
    gf, batch, ncols = case
    r = len(batch[0])
    minors = linalg._minors(gf, batch, ncols)
    assert sorted(minors) == list(itertools.combinations(range(ncols), r))
    for cols, column in minors.items():
        assert column == [det_cofactor(gf, [[row[c] for c in cols] for row in m]) for m in batch]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5).flatmap(lambda k: matrix_batches(rows=k - 2, ncols=k)))
def test_batched_minor_forms_match_each_prefix(case):
    gf, prefixes, _ = case
    assert linalg.minor_forms_batch(gf, prefixes) == [linalg.minor_forms_batch(gf, [rows])[0] for rows in prefixes]
    assert linalg.minor_forms_batch(gf, [[]] * 2) == linalg.minor_forms_batch(gf, [[]]) * 2  # k = 2


def test_minor_forms_dimension_check():
    assert linalg.minor_forms_batch(F5, [[]]) == [[[0, 1], [1, 0]]]
    with pytest.raises(ValueError):
        linalg.minor_forms_batch(F5, [[[1, 2]]])


def test_nullspace_examples():
    rank, basis = linalg.nullspace(F5, linalg.identity(3))
    assert rank == 3 and basis == []
    rank, basis = linalg.nullspace(F5, [[0, 0, 0], [0, 0, 0]])
    assert rank == 0 and len(basis) == 3
    rank, basis = linalg.nullspace(F7, [[1, 2, 3], [2, 4, 6]])
    assert rank == 1 and len(basis) == 2


def test_nullspace_members_annihilate():
    rng = random.Random(1)
    for _ in range(20):
        rows = [[rng.randrange(7) for _ in range(5)] for _ in range(3)]
        rank, basis = linalg.nullspace(F7, rows)
        assert rank + len(basis) == 5
        for v in basis:
            assert all(linalg.dot(F7, r, v) == 0 for r in rows)


def test_nullspace_basis_is_reduced_echelon():
    rank, basis = linalg.nullspace(F7, [[1, 1, 0], [0, 0, 1]])
    # leading entries 1, strictly increasing pivot positions, pivots cleared
    leads = []
    for row in basis:
        lead = next(i for i, c in enumerate(row) if c)
        assert row[lead] == 1
        leads.append(lead)
        for other in basis:
            if other is not row:
                assert other[lead] == 0
    assert leads == sorted(leads)


def test_nullspace_canonical_under_row_scrambling():
    rng = random.Random(2)
    rows = [[rng.randrange(5) for _ in range(6)] for _ in range(3)]
    _, b1 = linalg.nullspace(F5, rows)
    scrambled = [[F5.mul(3, c) for c in rows[2]], rows[0], rows[1]]
    _, b2 = linalg.nullspace(F5, scrambled)
    assert b1 == b2


def test_each_matrix_is_row_reduced_once(monkeypatch):
    # det and minor_forms_batch expand minors and run no elimination; nullspace
    # reads its reduced echelon basis off one rref
    calls, rref = [], linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *a: calls.append(1) or rref(*a))
    rng = random.Random(4)
    for n in range(2, 6):
        m = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        assert linalg.det(F7, m) == det_cofactor(F7, m)
        linalg.minor_forms_batch(F7, [m[: n - 2]])
    assert calls == []
    for shape in [(1, 4), (2, 5), (3, 3), (3, 6), (4, 6)]:
        rows = [[rng.randrange(7) for _ in range(shape[1])] for _ in range(shape[0])]
        for rows in (rows, rows + [rows[0]], [[0] * shape[1]] + rows[1:]):
            calls.clear()
            rk, basis = linalg.nullspace(F7, rows)
            assert len(calls) == 1
            assert rk + len(basis) == shape[1]
            assert rref(F7, basis)[0] == basis  # already reduced echelon


def test_rref_idempotent_and_rank():
    m = [[2, 4, 1], [1, 2, 3], [3, 6, 4]]
    red, pivots = linalg.rref(F5, m)
    assert linalg.rref(F5, red)[0] == red
    assert rank(F5, m) == len(pivots)


def test_inverse():
    m = [[1, 2, 0], [0, 1, 4], [3, 0, 1]]
    inv = inverse(F7, m)
    assert linalg.mat_mul(F7, m, inv) == linalg.identity(3)
    with pytest.raises(ValueError):
        inverse(F7, [[1, 1], [1, 1]])


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(10):
        a = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        b = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        lhs = linalg.det(F5, linalg.mat_mul(F5, a, b))
        rhs = F5.mul(linalg.det(F5, a), linalg.det(F5, b))
        assert lhs == rhs


def test_extension_field_linear_algebra():
    f4 = make_field(2, 2)
    # Vandermonde over F4 on distinct elements is invertible
    m = [[f4.pow(s, j) for j in range(3)] for s in (1, 2, 3)]
    assert linalg.det(f4, m) != 0
    rank, basis = linalg.nullspace(f4, m)
    assert rank == 3 and basis == []
