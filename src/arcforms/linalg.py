"""Exact linear algebra over a finite field.

Matrices are lists of row lists of reduced ints; every function takes the
field explicitly and never mutates its arguments.
"""

from __future__ import annotations

import itertools

from .field import GF


def dot(gf: GF, u, v) -> int:
    return gf.dot(u, v)


def mat_vec(gf: GF, rows, v):
    return [dot(gf, row, v) for row in rows]


def mat_mul(gf: GF, a, b):
    combine = gf.vec_mat(b)
    return [combine(row) for row in a]


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _minors(gf: GF, batch, ncols: int) -> dict:
    """Every r x r minor of each r-row matrix of the batch, keyed by its
    sorted column subset, as the column of its values over the batch.

    The minors of the first i+1 rows come from those of the first i by
    Laplace expansion along row i: on columns c_0 < ... < c_i the minor is
    the sum of (-1)^(i+j) row_i[c_j] times the i-minor without c_j, one
    GF.col_dot over the batch per column subset (the 1 x 1 minors are the
    entries of row 0; over GF(2^h), -1 = 1 and no sign is applied).
    All sizes are built, ~r·2^(r-1) products: exponential, for r <= ~10.
    """
    minors = {(): [1] * len(batch)}
    for i, row in enumerate(zip(*batch)):  # row i of every matrix
        entries = list(zip(*row))  # entries[c]: entry c of row i over the batch
        if i == 0:  # the 1 x 1 minors are the entries
            minors = {(c,): list(column) for c, column in enumerate(entries)}
            continue
        subsets = list(itertools.combinations(range(ncols), i + 1))
        odd = {c for cols in subsets for c in cols[1 - i % 2 :: 2]}  # columns with sign -1
        negated = entries if gf.p == 2 else {c: list(map(gf.neg, entries[c])) for c in odd}
        minors = {
            cols: gf.col_dot(
                [negated[c] if (i + j) % 2 else entries[c] for j, c in enumerate(cols)],
                [minors[cols[:j] + cols[j + 1 :]] for j in range(i + 1)],
            )
            for cols in subsets
        }
    return minors


def det(gf: GF, rows) -> int:
    """The one maximal minor of a square matrix, as a batch of one;
    exponential, see _minors."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    return _minors(gf, [rows], n)[tuple(range(n))][0]


def minor_forms_batch(gf: GF, prefixes):
    """The k linear forms L_j of each prefix of k-2 rows of length k, L_j·x
    the determinant of [rows, x] without column j, from one _minors table.

    Expanding along x, the coefficient of x_c (c != j) is a signed
    (k-2)-minor of the rows on the columns other than j and c; the C(k, 2)
    minors come from one _minors table (exponential in k, see _minors).
    """
    if not prefixes:
        return []
    k = len(prefixes[0]) + 2
    if set(map(len, prefixes)) != {k - 2} or set(map(len, itertools.chain(*prefixes))) - {k}:
        raise ValueError(f"need {k - 2} rows of length {k}")
    zero = [0] * len(prefixes)
    grid = [[zero] * k for _ in range(k)]  # grid[j][c]: L_j's x_c coefficient over the batch
    for cols, m in _minors(gf, prefixes, k).items():
        a, b = (i for i in range(k) if i not in cols)
        # x_b is column b - 1 of [rows, x] without a; x_a is column a without b
        grid[a][b] = list(map(gf.neg, m)) if (k + b - 1) % 2 and gf.p != 2 else m
        grid[b][a] = list(map(gf.neg, m)) if (k + a) % 2 and gf.p != 2 else m
    return [list(map(list, form)) for form in zip(*(zip(*row) for row in grid))]


def rref(gf: GF, rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    top = 0
    for col in range(ncols):
        piv = next((r for r in range(top, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        m[top] = gf.col_dot([m[top]], [[gf.inv(m[top][col])] * ncols])
        for r in range(len(m)):
            if r != top and m[r][col]:
                m[r] = gf.add_scaled(m[r], gf.neg(m[r][col]), m[top])
        pivots.append(col)
        top += 1
        if top == len(m):
            break
    return m[:top], pivots


def nullspace(gf: GF, rows, ncols=None):
    """Right kernel of the matrix: (rank, basis), the basis in reduced
    echelon form, so the output is canonical for a given kernel subspace.

    One rref of the matrix with its columns reversed gives a kernel vector
    per free column f: 1 at f, 0 at the other free columns, and nonzero
    elsewhere only at pivots left of f.  Reversed back, each leads with
    its 1 at f, so in descending f they already are the reduced echelon
    basis.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(gf, [r[::-1] for r in rows])
    basis = []
    for f in reversed([c for c in range(ncols) if c not in pivots]):
        v = [0] * ncols
        v[f] = 1
        for row, pc in zip(red, pivots):
            if row[f]:
                v[pc] = gf.neg(row[f])
        basis.append(v[::-1])
    return len(pivots), basis
