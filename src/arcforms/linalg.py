"""Exact linear algebra over a finite field.

Matrices are lists of row lists of reduced ints; every function takes the
field explicitly and never mutates its arguments.
"""

from __future__ import annotations

import itertools

from .field import GF


def dot(gf: GF, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = gf.add(acc, gf.mul(a, b))
    return acc


def mat_vec(gf: GF, rows, v):
    return [dot(gf, row, v) for row in rows]


def mat_mul(gf: GF, a, b):
    cols = list(zip(*b))
    return [[dot(gf, row, col) for col in cols] for row in a]


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det(gf: GF, rows) -> int:
    """Determinant by Gaussian elimination with row swaps."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m = [list(r) for r in rows]
    sign_flips = 0
    result = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign_flips ^= 1
        pivot = m[col][col]
        result = gf.mul(result, pivot)
        inv_p = gf.inv(pivot)
        for r in range(col + 1, n):
            f = m[r][col]
            if f:
                f = gf.mul(f, inv_p)
                for c in range(col, n):
                    m[r][c] = gf.sub(m[r][c], gf.mul(f, m[col][c]))
    return gf.neg(result) if sign_flips else result


def minor_forms(gf: GF, rows):
    """The k linear forms L_j of k-2 rows of length k: L_j·x is the
    determinant of [rows, x] with column j deleted.

    Expanding along x, the coefficient of x_c is a signed (k-2)-minor of
    the rows with columns j and c deleted; each of the C(k, 2) minors is
    taken once.
    """
    k = len(rows) + 2
    if any(len(r) != k for r in rows):
        raise ValueError(f"need {k - 2} rows of length {k}")
    minors = {
        pair: det(gf, [[x for c, x in enumerate(r) if c not in pair] for r in rows])
        for pair in itertools.combinations(range(k), 2)
    }
    out = []
    for j in range(k):
        coeffs = [0] * k
        for pos, c in enumerate(i for i in range(k) if i != j):
            cof = minors[min(j, c), max(j, c)]
            coeffs[c] = gf.neg(cof) if (k + pos) % 2 else cof
        out.append(coeffs)
    return out


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
        inv_p = gf.inv(m[top][col])
        m[top] = [gf.mul(inv_p, x) for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                f = m[r][col]
                m[r] = [gf.sub(x, gf.mul(f, y)) for x, y in zip(m[r], m[top])]
        pivots.append(col)
        top += 1
        if top == len(m):
            break
    return m[:top], pivots


def rank(gf: GF, rows) -> int:
    return len(rref(gf, rows)[0])


def nullspace(gf: GF, rows, ncols=None):
    """Right kernel of the matrix.

    Returns (rank, basis) with the basis rows themselves in reduced echelon
    form, so the output is canonical for a given kernel subspace.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(gf, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            if red[i][f]:
                v[pc] = gf.neg(red[i][f])
        basis.append(v)
    canonical, _ = rref(gf, basis)
    return len(pivots), canonical


def inverse(gf: GF, rows):
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(gf, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def solve(gf: GF, rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(gf, aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x
