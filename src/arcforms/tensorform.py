"""The multihomogeneous tensor form attached to an arc.

The construction: take a minimal subset of arc points whose degree-t
Veronese images span the arc's image (the socle), tabulate the signed
tangent evaluations on all socle tuples, extend the socle images to a full
basis by unit vectors, and push the table through the inverse basis to get
a dense coefficient tensor.  The resulting form agrees with the signed
tangent evaluation at every tuple of arc points, is degree t in each of
its k-1 blocks of k variables, and its partial evaluations at (k-2)-tuples
of arc points reproduce the scaled tangent forms up to forms vanishing on
the arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import comb, prod

from . import forms, linalg
from .field import GF
from .geometry import Arc
from .report import Report
from .tangents import TangentSystem, g_value, perm_parity, _sign_power


@dataclass(frozen=True)
class MultiForm:
    """Form of multidegree (t, ..., t) in `blocks` blocks of k variables.

    coeffs is the flat coefficient tensor, row-major over the blocks, each
    mode running over the canonical degree-t monomials in k variables.
    """

    k: int
    blocks: int
    t: int
    coeffs: tuple

    @property
    def mode_dim(self) -> int:
        return forms.num_monomials(self.k, self.t)

    def __post_init__(self):
        want = self.mode_dim**self.blocks
        if len(self.coeffs) != want:
            raise ValueError(f"coefficient tensor needs {want} entries")

    def to_json(self, gf: GF) -> dict:
        return {
            "k": self.k,
            "blocks": self.blocks,
            "t": self.t,
            "coeffs": [gf.element_to_json(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, gf: GF, obj) -> "MultiForm":
        return cls(
            obj["k"],
            obj["blocks"],
            obj["t"],
            tuple(gf.element_from_json(c) for c in obj["coeffs"]),
        )


@dataclass(frozen=True)
class Socle:
    """Arc indices whose Veronese images span the arc's Veronese span."""

    indices: tuple

    @property
    def w(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BasisExtension:
    """Invertible matrix whose first w columns are socle Veronese images,
    completed greedily by unit coordinate vectors."""

    B: tuple
    Binv: tuple


def socle(arc: Arc, t: int) -> Socle:
    """Greedy pass in arc order keeping points that raise the Veronese rank."""
    gf = arc.gf
    chosen, rows = [], []
    r = 0
    for i, p in enumerate(arc.points):
        v = forms.veronese(gf, p, t)
        nr = linalg.rank(gf, rows + [v])
        if nr > r:
            chosen.append(i)
            rows.append(v)
            r = nr
    return Socle(tuple(chosen))


def extend_basis(gf: GF, columns, dim: int, reverse: bool = False) -> BasisExtension:
    """Complete independent columns to a basis of F^dim with unit vectors.

    Candidates are tried in ascending coordinate order (descending when
    reverse is set, the alternate tie-breaking used by the uniqueness
    check).
    """
    cols = [list(c) for c in columns]
    order = range(dim - 1, -1, -1) if reverse else range(dim)
    for j in order:
        if len(cols) == dim:
            break
        unit = [1 if i == j else 0 for i in range(dim)]
        if linalg.rank(gf, cols + [unit]) > len(cols):
            cols.append(unit)
    if len(cols) != dim:
        raise ValueError("could not complete to a basis")
    B = [[cols[c][r] for c in range(dim)] for r in range(dim)]
    Binv = linalg.inverse(gf, B)
    return BasisExtension(
        tuple(tuple(r) for r in B), tuple(tuple(r) for r in Binv)
    )


def _contract_mode(gf: GF, shape, data, mode: int, matrix):
    """Contract one tensor mode with an old_dim x new_dim matrix."""
    old_dim = shape[mode]
    new_dim = len(matrix[0])
    outer = prod(shape[:mode])
    inner = prod(shape[mode + 1 :])
    new_data = [0] * (outer * new_dim * inner)
    for o in range(outer):
        base_in = o * old_dim * inner
        base_out = o * new_dim * inner
        for i in range(old_dim):
            row = matrix[i]
            off_in = base_in + i * inner
            for j in range(new_dim):
                m = row[j]
                if not m:
                    continue
                off_out = base_out + j * inner
                for r in range(inner):
                    v = data[off_in + r]
                    if v:
                        new_data[off_out + r] = gf.add(
                            new_data[off_out + r], gf.mul(v, m)
                        )
    return shape[:mode] + [new_dim] + shape[mode + 1 :], new_data


def build_tensor_form(arc: Arc, ts: TangentSystem, reverse_complement: bool = False) -> MultiForm:
    """Assemble the coefficient tensor of the arc's multihomogeneous form."""
    gf, t = arc.gf, arc.t
    if t < 1:
        raise ValueError("arc has t = 0; no tensor form")
    blocks = arc.k - 1
    N = forms.num_monomials(arc.k, t)
    soc = socle(arc, t)
    w = soc.w
    vcols = [forms.veronese(gf, arc.points[i], t) for i in soc.indices]
    ext = extend_basis(gf, vcols, N, reverse=reverse_complement)
    M = [list(ext.Binv[i]) for i in range(w)]  # w x N: coordinates map

    shape = [w] * blocks
    data = [0] * (w**blocks)
    for pos, tup in enumerate(product(range(w), repeat=blocks)):
        data[pos] = g_value(ts, tuple(soc.indices[i] for i in tup))
    for mode in range(blocks):
        shape, data = _contract_mode(gf, shape, data, mode, M)
    return MultiForm(arc.k, blocks, t, tuple(data))


def _contract_leading(gf: GF, mf: MultiForm, points):
    # contract leading modes with point Veronese vectors, squeezing each
    shape, data = [mf.mode_dim] * mf.blocks, list(mf.coeffs)
    for x in points:
        col = [[v] for v in forms.monomial_vector(gf, x, mf.t)]
        shape, data = _contract_mode(gf, shape, data, 0, col)
        shape = shape[1:]
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
    return forms.Form(mf.k, mf.t, tuple(_contract_leading(gf, mf, prefix)))


def evaluation_table(gf: GF, mf: MultiForm, vectors):
    """Flat table of evaluations at every tuple from `vectors`, row-major."""
    ver = [forms.monomial_vector(gf, x, mf.t) for x in vectors]
    mat = [[ver[a][J] for a in range(len(vectors))] for J in range(mf.mode_dim)]
    shape, data = [mf.mode_dim] * mf.blocks, list(mf.coeffs)
    for mode in range(mf.blocks):
        shape, data = _contract_mode(gf, shape, data, mode, mat)
    return data


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
    chk = report.check("matches-signed-tangent-evaluations")
    for pos, tup in enumerate(product(range(arc.n), repeat=F.blocks)):
        chk.tally(
            table[pos] == g_value(ts, tup),
            {"tuple": list(tup), "got": table[pos]},
        )
    return table


def verify_tensor_form(arc: Arc, ts: TangentSystem, F: MultiForm, report: Report | None = None) -> Report:
    """Check the four contract properties of the tensor form.

    Apart from the partial evaluations, every check reads the one table
    T[a] = F(x_a) over tuples a of arc points, using that a form is block
    congruent to zero exactly when its table vanishes (is_block_congruent)
    and that the table is linear in the form:

    - F with its blocks permuted by sigma has table a -> T[a o sigma], so
      antisymmetry is T[a o sigma] = (-1)^(parity(sigma)(t+1)) T[a];
    - the partial evaluation at a prefix, evaluated at x_j, is
      T[prefix + (j,)], so it vanishes on the arc when those entries are 0;
    - F minus the alternative build is block congruent to zero exactly
      when both forms have the same table.
    """
    report = report or Report("tensor-verify", {}, [])
    gf = arc.gf
    n, blocks = arc.n, F.blocks
    table = check_signed_evaluations(arc, ts, F, report)
    tuples = list(product(range(n), repeat=blocks))

    prop1 = report.check("partial-eval-is-tangent-form-mod-vanishing")
    for S in combinations(range(n), arc.k - 2):
        residual = forms.form_sub(
            gf,
            partial_evaluate(gf, F, [arc.points[i] for i in S]),
            ts.form(S),
        )
        prop1.tally(
            forms.vanishes_on(gf, residual, arc.points), {"S": list(S)}
        )

    prop2 = report.check("repeated-points-vanish")
    for pos, tup in enumerate(product(range(n), repeat=blocks - 1)):
        if len(set(tup)) == len(tup):
            continue
        prop2.tally(not any(table[pos * n : (pos + 1) * n]), {"prefix": list(tup)})
    for pos, tup in enumerate(tuples):
        if len(set(tup)) < len(tup):
            prop2.tally(table[pos] == 0, {"tuple": list(tup)})

    prop3 = report.check("block-permutation-antisymmetry")
    strides = [n ** (blocks - 1 - m) for m in range(blocks)]
    for sigma in permutations(range(blocks)):
        if sigma == tuple(range(blocks)):
            continue
        sign = _sign_power(gf, perm_parity(sigma) * (arc.t + 1))
        ok = all(
            table[sum(tup[s] * st for s, st in zip(sigma, strides))]
            == gf.mul(sign, table[pos])
            for pos, tup in enumerate(tuples)
        )
        prop3.tally(ok, {"sigma": list(sigma)})

    prop4 = report.check("unique-modulo-block-vanishing")
    alt = build_tensor_form(arc, ts, reverse_complement=True)
    prop4.tally(evaluation_table(gf, alt, arc.points) == table, {})
    return report


def shift_extract(gf: GF, F: MultiForm, exponents) -> forms.Form:
    """Coefficient of a prefix-block monomial in the shifted difference.

    Substituting Y_m -> Y_m + X in every block but the last, evaluating the
    last block at X, and subtracting the unshifted form leaves a polynomial
    whose coefficient at Y_1^{i_1} ... Y_{k-2}^{i_{k-2}} is homogeneous in X
    of degree blocks*t - sum(i); this computes that coefficient directly
    from the tensor entries.
    """
    exponents = [tuple(e) for e in exponents]
    if len(exponents) != F.blocks - 1:
        raise ValueError(f"need {F.blocks - 1} exponent tuples")
    for e in exponents:
        if len(e) != F.k or any(x < 0 for x in e) or sum(e) > F.t:
            raise ValueError(f"bad exponent tuple {e} (total must be <= t)")
    N = F.mode_dim
    basis = forms.monomial_basis(F.k, F.t)
    degree = F.blocks * F.t - sum(sum(e) for e in exponents)
    out = [0] * forms.num_monomials(F.k, degree)
    idx = forms.monomial_index(F.k, degree)
    for pos, J in enumerate(product(range(N), repeat=F.blocks)):
        c = F.coeffs[pos]
        if not c:
            continue
        jm = [basis[j] for j in J]
        if all(jm[m] == exponents[m] for m in range(F.blocks - 1)):
            continue  # the unshifted form cancels exactly these terms
        coef = c
        ok = True
        xexp = list(jm[-1])
        for m, im in enumerate(exponents):
            for j in range(F.k):
                d, i = jm[m][j], im[j]
                if d < i:
                    ok = False
                    break
                if i:
                    coef = gf.mul(coef, comb(d, i) % gf.p)
                xexp[j] += d - i
            if not ok or not coef:
                break
        if not ok or not coef:
            continue
        p = idx[tuple(xexp)]
        out[p] = gf.add(out[p], coef)
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
    at arc points, so only the last block matters: for each basis form of
    the vanishing subspace, the residual coordinates over all (k-2)-subsets
    must extend to a multihomogeneous form on the prefix blocks.  Returns
    (found, corrected MultiForm or None).
    """
    gf, t = arc.gf, arc.t
    N = F.mode_dim
    subsets = list(combinations(range(arc.n), arc.k - 2))
    residuals = {}
    for S in subsets:
        residuals[S] = forms.form_sub(
            gf, partial_evaluate(gf, F, [arc.points[i] for i in S]), ts.form(S)
        )
    phi = forms.vanishing_subspace(gf, arc.k, arc.points, t)
    if phi.dim == 0:
        exact = all(r.is_zero for r in residuals.values())
        return exact, (F if exact else None)

    # residual_S = sum_b r[S][b] * phi_b  (basis rows are independent)
    basis_cols = [list(col) for col in zip(*phi.basis)]
    rcoords = {}
    for S, res in residuals.items():
        sol = linalg.solve(gf, basis_cols, list(res.coeffs))
        if sol is None:
            return False, None  # residual not in the vanishing subspace
        rcoords[S] = sol

    prefix_rows = []
    for S in subsets:
        vs = [forms.veronese(gf, arc.points[i], t) for i in S]
        row = vs[0]
        for v in vs[1:]:
            row = [gf.mul(a, b) for a in row for b in v]
        prefix_rows.append(row)

    corrections = []
    for b in range(phi.dim):
        rhs = [rcoords[S][b] for S in subsets]
        u = linalg.solve(gf, prefix_rows, rhs)
        if u is None:
            return False, None
        corrections.append(u)

    # assemble D = sum_b U_b (x) phi_b and subtract
    dcoeffs = [0] * (N**F.blocks)
    for b, u in enumerate(corrections):
        row = phi.basis[b]
        for ppos, uval in enumerate(u):
            if not uval:
                continue
            base = ppos * N
            for j in range(N):
                if row[j]:
                    dcoeffs[base + j] = gf.add(
                        dcoeffs[base + j], gf.mul(uval, row[j])
                    )
    corrected = MultiForm(
        F.k, F.blocks, F.t,
        tuple(gf.sub(c, d) for c, d in zip(F.coeffs, dcoeffs)),
    )
    for S in subsets:
        got = partial_evaluate(gf, corrected, [arc.points[i] for i in S])
        if got != ts.form(S):
            return False, None
    return True, corrected
