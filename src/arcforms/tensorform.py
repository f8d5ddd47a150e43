"""The multihomogeneous tensor form attached to an arc.

One elimination of the arc's Veronese matrix (TangentSystem.socle) gives
the socle, the points whose degree-t Veronese images are a basis of the
arc's image, and reduced rows C holding every point in that basis.  The
core (TangentSystem.socle_core) is g on all socle tuples; its modes
contracted by one left inverse M of the socle's Veronese matrix give the
tensor F, and contracted by C they give F's values on all arc tuples.  M
is zero off the w pivot coordinates P of that matrix (coordinate_map
returns P and M's w x w block there), so F is stored as its w^(k-1)
block on P^(k-1), and evaluations read Veronese vectors at P only.  The
N^(k-1) dense tensor is expanded only for MultiForm.coeffs, == and
to_json; `tensor build -o` writes the block's runs.  F agrees with g at
every tuple of arc points, is degree t in each of its k-1 blocks of k
variables, and its partial evaluations at (k-2)-tuples of arc points
reproduce the scaled tangent forms up to forms vanishing on the arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress, islice, permutations, product, repeat, starmap
from math import comb, prod
from operator import ne

from . import forms, linalg
from .field import GF
from .geometry import Arc
from .report import Report
from .tangents import TangentSystem, perm_parity, tuple_at, tuple_position, tuple_positions


@dataclass(frozen=True, eq=False)
class MultiForm:
    """Form of multidegree (t, ..., t) in `blocks` blocks of k variables.

    Each mode runs over the canonical degree-t monomials in k variables.
    The form is zero off support^blocks, where support is a sorted list of
    monomial positions (default: all of them); block holds its entries on
    support^blocks, row-major over the blocks.  coeffs is the dense
    row-major tensor, and two forms are equal when their dense tensors are.
    """

    k: int
    blocks: int
    t: int
    block: tuple
    support: tuple | None = None

    @property
    def mode_dim(self) -> int:
        return forms.num_monomials(self.k, self.t)

    def __post_init__(self):
        N = self.mode_dim
        support = tuple(range(N) if self.support is None else self.support)
        if not support or list(support) != sorted(set(support)) or support[0] < 0 or support[-1] >= N:
            raise ValueError(f"support must be sorted distinct positions below {N}")
        object.__setattr__(self, "support", support)
        want = len(support) ** self.blocks
        if len(self.block) != want:
            raise ValueError(f"coefficient tensor needs {want} entries")

    def dense(self) -> list | tuple:
        """The dense row-major coefficients, zero off support^blocks."""
        if len(self.support) == self.mode_dim:
            return self.block
        return list(chain.from_iterable(starmap(repeat, self.runs())))

    def runs(self):
        """dense() as (entry, count) runs, row-major, unbuilt: a run of one
        per block entry, and a run of zeros per gap between them."""
        end, size = 0, self.mode_dim**self.blocks
        for off, v in zip(tuple_positions(self.mode_dim, self.support, range(self.blocks)), self.block):
            if off > end:
                yield 0, off - end
            yield v, 1
            end = off + 1
        if end < size:
            yield 0, size - end

    @cached_property
    def coeffs(self) -> tuple:
        return tuple(self.dense())

    def __eq__(self, other):
        if not isinstance(other, MultiForm):
            return NotImplemented
        return (self.k, self.blocks, self.t, self.coeffs) == (other.k, other.blocks, other.t, other.coeffs)

    def to_json(self, gf: GF, runs=None) -> dict:
        """The dense coefficients as element_to_json gives them (over GF(p)
        the ints, unchanged); given a wrapper `runs` such as cli.Runs,
        runs(gf, self.runs()) instead."""
        if runs is not None:
            coeffs = runs(gf, self.runs())
        else:
            coeffs = self.dense() if gf.h == 1 else list(map(gf.element_to_json, self.dense()))
        return {"k": self.k, "blocks": self.blocks, "t": self.t, "coeffs": coeffs}

    @classmethod
    def from_json(cls, gf: GF, obj) -> "MultiForm":
        return cls(
            obj["k"],
            obj["blocks"],
            obj["t"],
            tuple(gf.element_from_json(c) for c in obj["coeffs"]),
        )


def coordinate_map(gf: GF, columns, dim: int):
    """(P, V[P, :]^-1) for independent columns V (dim x w): the coordinates
    P, ascending, on which the left inverse M of V is nonzero, and M's
    columns at P.  M is the first w rows of B^-1, where B = [V | unit
    vectors] completes V greedily to a basis of F^dim.

    Candidates e_j are tried in ascending order of j, and e_j is added
    exactly when no vector of span(V) has its last nonzero coordinate at
    j.  Those coordinates P are the pivots of an echelon form of V^T with
    its columns reversed.  As M V = I and M e_j = 0 off P, M is zero off
    the columns P and equals V[P, :]^-1 on them.  One elimination of
    [V^T reversed | I_w] gives both: reduced row r has its pivot at
    dim - 1 - P_r and ends in column r of V[P, :]^-1.
    """
    w = len(columns)
    aug = [[*c[::-1], *unit] for c, unit in zip(columns, linalg.identity(w))]
    red, pivots = linalg.rref(gf, aug)
    if any(j >= dim for j in pivots):
        raise ValueError("columns are dependent")
    # pivots ascend, so P = dim - 1 - pivots descends: read the rows backwards
    P = [dim - 1 - j for j in reversed(pivots)]
    inv = [list(col) for col in zip(*(row[dim:] for row in reversed(red)))]
    return P, inv


def _contract_mode(gf: GF, shape, data, mode: int, matrix):
    """Contract one tensor mode with an old_dim x new_dim matrix.

    A gather: each fiber along the mode (the entries that differ only in
    that index) is read as one strided slice, an all-zero fiber is
    skipped, and otherwise its output fiber is one gf.dot with each
    matrix column.
    """
    dim, new_dim, inner = shape[mode], len(matrix[0]), prod(shape[mode + 1 :])
    cols, new_data = list(zip(*matrix)), [0] * (prod(shape[:mode]) * new_dim * inner)
    for o, r in product(range(prod(shape[:mode])), range(inner)):
        fiber = data[o * dim * inner + r : (o + 1) * dim * inner : inner]
        if any(fiber):
            out = slice(o * new_dim * inner + r, (o + 1) * new_dim * inner, inner)
            new_data[out] = [gf.dot(fiber, c) for c in cols]
    return shape[:mode] + [new_dim] + shape[mode + 1 :], new_data


def _contract_modes(gf: GF, data, matrix, blocks: int):
    """Contract every mode of a len(matrix)^blocks tensor with matrix."""
    shape = [len(matrix)] * blocks
    for mode in range(blocks):
        shape, data = _contract_mode(gf, shape, data, mode, matrix)
    return data


def build_tensor_form(arc: Arc, ts: TangentSystem) -> MultiForm:
    """Assemble the coefficient tensor of the arc's multihomogeneous form:
    the socle core with every mode contracted by coordinate_map's
    V[P, :]^-1, supported on P^(k-1)."""
    gf, t, blocks = arc.gf, arc.t, arc.k - 1
    if t < 1:
        raise ValueError("arc has t = 0; no tensor form")
    soc, _ = ts.socle
    P, inv = coordinate_map(gf, [ts.point_vectors[i] for i in soc], forms.num_monomials(arc.k, t))
    return MultiForm(arc.k, blocks, t, tuple(_contract_modes(gf, ts.socle_core, inv, blocks)), P)


def _support_vector(gf: GF, mf: MultiForm, x):
    """The degree-t monomials at x, read at mf's support."""
    return list(map(forms.monomial_vector(gf, x, mf.t).__getitem__, mf.support))


def _contract_leading(gf: GF, mf: MultiForm, points):
    """Contract the leading modes with the points' Veronese vectors in
    turn: each contraction is sum_i v_i · row_i over the contiguous rows
    of the leading mode, one gf.add_scaled per nonzero v_i."""
    data, dim = mf.block, len(mf.support)
    for x in points:
        inner = len(data) // dim
        out = [0] * inner
        for i, v in enumerate(_support_vector(gf, mf, x)):
            if v:
                out = gf.add_scaled(out, v, data[i * inner : (i + 1) * inner])
        data = out
    return data


def evaluate(gf: GF, mf: MultiForm, points) -> int:
    """Full evaluation at `blocks` point vectors."""
    if len(points) != mf.blocks:
        raise ValueError(f"need {mf.blocks} points, got {len(points)}")
    return _contract_leading(gf, mf, points)[0]


def partial_evaluate(gf: GF, mf: MultiForm, prefix) -> forms.Form:
    """Evaluate all blocks but the last at points; the leftover is a form."""
    if len(prefix) != mf.blocks - 1:
        raise ValueError(f"prefix must have {mf.blocks - 1} points")
    out = [0] * mf.mode_dim
    for j, v in zip(mf.support, _contract_leading(gf, mf, prefix)):
        out[j] = v
    return forms.Form(mf.k, mf.t, tuple(out))


def evaluation_table(gf: GF, mf: MultiForm, vectors):
    """Flat table of evaluations at every tuple from `vectors`, row-major."""
    ver = [_support_vector(gf, mf, x) for x in vectors]
    mat = [[v[J] for v in ver] for J in range(len(mf.support))]
    return _contract_modes(gf, mf.block, mat, mf.blocks)


def is_block_congruent(D: MultiForm, arc: Arc) -> bool:
    """Whether D is a sum of terms carrying, in some block, a form that
    vanishes on the arc.

    Equivalent test: D evaluates to zero on every tuple of arc points.
    (A multihomogeneous form is such a sum exactly when the multilinear
    functional it induces kills the tensor power of the span of the arc's
    Veronese images, and that span is generated by the arc tuples.)
    """
    table = evaluation_table(arc.gf, D, arc.points)
    return not any(table)


def check_signed_evaluations(arc: Arc, ts: TangentSystem, F: MultiForm, report: Report) -> list:
    """Tally the defining contract F(a) = g(a) over every tuple a of arc
    points and return the evaluation table it was read from."""
    table = evaluation_table(arc.gf, F, arc.points)
    report.check("matches-signed-tangent-evaluations").tally_many(len(table), [
        {"tuple": tuple_at(pos, arc.n, F.blocks), "got": table[pos]}
        for pos in compress(range(len(table)), map(ne, table, ts.g_table))
    ])
    return table


def verify_tensor_form(arc: Arc, ts: TangentSystem, F: MultiForm, report: Report | None = None) -> Report:
    """Check the four contract properties of the tensor form.

    Every check reads the one table T[a] = F(x_a) over tuples a of arc
    points, using that a form is block congruent to zero exactly when its
    table vanishes (is_block_congruent) and that the table is linear in
    the form:

    - F is multilinear in its blocks, so its partial evaluation at x_S,
      evaluated at x_j, is T[S + (j,)]; the residual against the scaled
      tangent form f_S vanishes on the arc exactly when
      T[S + (j,)] = f_S(x_j) for every j, the row of S in ts.g_table;
    - a repeated prefix has a zero table row;
    - F with its blocks permuted by sigma has table a -> T[a o sigma], so
      antisymmetry is T[a o sigma] = (-1)^(parity(sigma)(t+1)) T[a], one
      list of table positions per sigma;
    - F is unique modulo block-vanishing terms: any form built from the
      socle core with another left inverse M' of the socle's Veronese
      matrix has the same table, since M' nu(x_j) is column j of the
      socle's reduced rows C for every M'; so T must equal the core
      contracted by C in every mode.
    """
    report = report or Report("tensor-verify", {}, [])
    gf = arc.gf
    n, blocks = arc.n, F.blocks
    table = check_signed_evaluations(arc, ts, F, report)

    prop1, g = report.check("partial-eval-is-tangent-form-mod-vanishing"), ts.g_table
    for S in combinations(range(n), arc.k - 2):
        pos = tuple_position(S, n) * n
        prop1.tally(table[pos : pos + n] == g[pos : pos + n], {"S": list(S)})

    prop2 = report.check("repeated-points-vanish")
    for pos, prefix in enumerate(product(range(n), repeat=blocks - 1)):
        if len(set(prefix)) < blocks - 1:
            prop2.tally(not any(table[pos * n : (pos + 1) * n]), {"prefix": list(prefix)})
    repeats = [pos for pos, a in enumerate(product(range(n), repeat=blocks)) if len(set(a)) < blocks]
    prop2.tally_many(len(repeats), [{"tuple": tuple_at(pos, n, blocks)} for pos in repeats if table[pos]])

    prop3 = report.check("block-permutation-antisymmetry")
    signed = (table, table if arc.t % 2 else list(map(gf.neg, table)))
    for sigma in islice(permutations(range(blocks)), 1, None):  # all but the identity
        permuted = map(table.__getitem__, tuple_positions(n, range(n), sigma))
        prop3.tally(list(permuted) == signed[perm_parity(sigma)], {"sigma": list(sigma)})

    prop4 = report.check("unique-modulo-block-vanishing")
    _, C = ts.socle
    prop4.tally(_contract_modes(gf, ts.socle_core, C, blocks) == table, {})
    return report


def shift_extract(gf: GF, F: MultiForm, exponents) -> forms.Form:
    """Coefficient of a prefix-block monomial in the shifted difference.

    Substituting Y_m -> Y_m + X in every block but the last, evaluating the
    last block at X, and subtracting the unshifted form leaves a polynomial
    whose coefficient at Y_1^{i_1} ... Y_{k-2}^{i_{k-2}} is homogeneous in X
    of degree blocks*t - sum(i); this computes that coefficient directly
    from the tensor entries.
    """
    if not isinstance(exponents, list) or len(exponents) != F.blocks - 1:
        raise ValueError(f"need {F.blocks - 1} exponent tuples")
    for e in exponents:
        if not isinstance(e, (list, tuple)) or any(type(x) is not int for x in e):
            raise ValueError(f"exponent tuple {e} is not a list of ints")
        if len(e) != F.k or any(x < 0 for x in e) or sum(e) > F.t:
            raise ValueError(f"bad exponent tuple {tuple(e)} (total must be <= t)")
    exponents = [tuple(e) for e in exponents]
    basis = [forms.monomial_basis(F.k, F.t)[j] for j in F.support]
    degree = F.blocks * F.t - sum(sum(e) for e in exponents)
    out = [0] * forms.num_monomials(F.k, degree)
    idx = forms.monomial_index(F.k, degree)
    for pos in compress(range(len(F.block)), F.block):
        coef, jm, rest = F.block[pos], [], pos
        for _ in range(F.blocks):
            rest, j = divmod(rest, len(basis))
            jm.append(basis[j])
        jm.reverse()
        pairs = [(d, i) for m, im in enumerate(exponents) for d, i in zip(jm[m], im)]
        if jm[:-1] == exponents or any(d < i for d, i in pairs):
            continue  # cancelled by the unshifted form, or no such Y-term
        for d, i in pairs:
            if i:
                coef = gf.mul(coef, comb(d, i) % gf.p)
        if coef:
            xexp = tuple(
                x + sum(jm[m][j] - im[j] for m, im in enumerate(exponents))
                for j, x in enumerate(jm[-1])
            )
            out[idx[xexp]] = gf.add(out[idx[xexp]], coef)
    return forms.Form(F.k, degree, tuple(out))


def quadric_check(arc: Arc):
    """For a size-(q+1) arc of PG(3, q), q odd: a quadric through the arc.

    Returns the first canonical basis form of the degree-2 vanishing
    subspace, or None if that subspace is trivial (which would contradict
    the guarantee this checks).
    """
    if arc.k != 4:
        raise ValueError("quadric check needs k = 4")
    if arc.n != arc.gf.q + 1:
        raise ValueError(f"arc size {arc.n} != q + 1 = {arc.gf.q + 1}")
    if arc.gf.p == 2:
        raise ValueError("quadric check needs odd q")
    phi2 = forms.vanishing_subspace(arc.gf, 4, arc.points, 2)
    if phi2.dim == 0:
        return None
    return phi2.forms()[0]


def search_exact_tangent_match(arc: Arc, ts: TangentSystem, F: MultiForm):
    """Look for a block-vanishing correction making the partial
    evaluations equal the scaled tangent forms exactly (not just modulo
    forms vanishing on the arc).

    Corrections supported in a leading block die under partial evaluation
    at arc points, so only the last block matters: D = sum_b U_b (x) phi_b
    over the vanishing forms phi_b, with U_b(x_S) the coordinate at phi_b of
    S's residual for every (k-2)-subset S.  As nu(x_i) = V C[:, i] for
    (soc, C) = ts.socle and V^T is onto, each U_b is solved for in socle
    coordinates, then lifted by coordinate_map's V[P, :]^-1 as F is.
    Returns (found, [(U_b, phi_b), ...] or None), checked on the factors.
    """
    gf, t, blocks = arc.gf, arc.t, arc.k - 2
    subsets = list(combinations(range(arc.n), blocks))
    residuals = [
        list(forms.form_sub(gf, partial_evaluate(gf, F, [arc.points[i] for i in S]), ts.form(S)).coeffs)
        for S in subsets
    ]
    phi = forms.vanishing_subspace(gf, arc.k, arc.points, t)
    if phi.dim == 0:
        exact = not any(map(any, residuals))
        return exact, ([] if exact else None)

    # the basis is in reduced echelon form: a residual in its span is its
    # coordinates at the basis pivots times the basis
    pivots = [next(j for j, v in enumerate(row) if v) for row in phi.basis]
    rcoords = [[res[p] for p in pivots] for res in residuals]
    if linalg.mat_mul(gf, rcoords, phi.basis) != residuals:
        return False, None  # a residual is not in the vanishing subspace

    # one elimination of [socle rows | residual coordinates] solves
    # socle_rows · W_b = column b of rcoords for every basis form b
    soc, C = ts.socle
    columns, socle_rows = list(zip(*C)), []
    for S, coords in zip(subsets, rcoords):
        row = [1]  # the Kronecker product of the columns of C at S
        for i in S:
            row = [gf.mul(a, b) for a in row for b in columns[i]]
        socle_rows.append(row + coords)
    width = len(soc) ** blocks
    red, pivot_cols = linalg.rref(gf, socle_rows)
    if pivot_cols and pivot_cols[-1] >= width:
        return False, None  # some W_b has no solution
    WT = [[0] * phi.dim for _ in range(width)]  # row c: W_b[c] for every b
    for row, c in zip(red, pivot_cols):
        WT[c] = row[width:]
    P, inv = coordinate_map(gf, [ts.point_vectors[i] for i in soc], F.mode_dim)
    terms = [
        (MultiForm(arc.k, blocks, t, tuple(_contract_modes(gf, W, inv, blocks)), P), f)
        for W, f in zip(zip(*WT), phi.forms())
    ]
    tables = [evaluation_table(gf, U, arc.points) for U, _ in terms]
    values = [[table[tuple_position(S, arc.n)] for table in tables] for S in subsets]
    if linalg.mat_mul(gf, values, phi.basis) != residuals:
        return False, None  # the lift does not give the residuals back
    return True, terms
