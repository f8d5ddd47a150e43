"""The dual hypersurface interpolated from the scaled tangent forms.

For an arc of size at least mt+k-1 (m = 1 for q even, 2 for q odd) there
is a degree-mt form phi in the k dual coordinates Z_j = j-th maximal minor
of k-1 point rows, built here by explicit interpolation over the (k-1)-
subsets of the first mt+k-1 arc points.  Substituting actual point rows
for the minors turns phi into a symmetric function G on (k-1)-tuples that
evaluates to the m-th power of the tangent forms, and phi vanishes on the
dual of every hyperplane meeting the arc in exactly k-2 points.

Minors come in batches from the cofactor recurrence linalg._minors, one
GF.col_dot per column subset over all matrices: build_sbbt's
interpolation subsets in one call, the verifier's C(n, k-2) prefixes in
one (linalg.minor_forms_batch) and its symmetry check's row sets in one
(evaluate_G_batch: the monomials one GF.col_dot each, phi one GF.vec_mat
map).  With the first k-2 rows fixed, every minor is a linear form in
the last row, so phi becomes the residual form G(S, X) of degree
deg(phi) in X.  Each minor form vanishes on the span of S, so it lies on
S's pencil {u, v} (the Arc's, from one batch): phi at the minors
is a binary form psi_S(U, V), built by a substitution plan made once per
phi, and the residual is psi_S(u·X, v·X), expanded by Horner; both run
on all C(n, k-2) prefixes at once, one GF.col_dot per coefficient.  The
verifier checks each residual against f_S^m, then
compares G with the m-th power of the signed tangent evaluation on every
ordered (k-1)-tuple of arc indices.  It reads G as tangents.signed_table
reads g, from the residual of each sorted S at every x_j: permuting the
rows by σ multiplies every maximal minor by sgn σ, so
G(rows∘σ) = sgn(σ)^deg(phi) · G(rows), and G = 0 on rows with a repeat,
whose minors all vanish.  The hyperplane sweep, classify_hyperplanes,
returns two columns over every hyperplane in projective_points order: its
arc incidence count, from one GF.vec_mat map over all covector prefixes
called once per arc point, and phi at its dual point, from
tensorform.values_on_every_point.  The verifier tallies both sweep checks
off the columns by compress and count passes, and builds witnesses only
for the failing hyperplanes.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress
from operator import and_, ne, not_, truth

from . import forms, linalg
from .field import GF
from .geometry import Arc, projective_points
from .report import Report
from .tangents import RANDOM_TRIALS, TangentSystem, signed_table, tuple_at
from .tensorform import values_on_every_point


def _minor_columns(gf: GF, row_sets):
    """The k maximal minors of every set of k-1 rows of length k, from one
    batched linalg._minors table: column j holds, for each set, the minor
    without column j, the dual coordinate Z_j of the set's span."""
    k = len(row_sets[0]) + 1
    if set(map(len, row_sets)) != {k - 1} or set(map(len, chain(*row_sets))) != {k}:
        raise ValueError(f"need {k - 1} rows of length {k}")
    minors = linalg._minors(gf, row_sets, k)
    return [minors[tuple(c for c in range(k) if c != j)] for j in range(k)]


def covector_to_dual_point(gf: GF, ell):
    """Minor coordinates of the hyperplane with covector ell."""
    k = len(ell)
    return tuple(
        gf.neg(c) if (k + j + 1) % 2 else c for j, c in enumerate(ell)
    )


def appended_det_form(gf: GF, k: int, u) -> forms.Form:
    """The linear form L in Z with L(z) = det(rows + [u]), z the maximal minors
    of rows: cofactor expansion along the appended row gives u's dual point."""
    return forms.linear_form(k, covector_to_dual_point(gf, u))


@dataclass(frozen=True)
class SBBTForm:
    m: int
    E: tuple  # interpolation indices: the first mt+k-1 arc points
    phi: forms.Form  # degree m*t in the k dual variables

    @cached_property
    def substitution_plan(self) -> tuple:
        """(steps, terms): the products of linear forms L_0..L_{k-1} that
        phi's nonzero monomials need, each a step (parent, j, positions,
        size) that multiplies product number parent (0 is the constant 1)
        by L_j, its parent having one factor fewer, off its last variable,
        in binary forms; and phi as its (coefficient, product number) terms."""
        number, steps = {(0,) * self.phi.k: 0}, []

        def product(exp):
            if exp not in number:
                j = max(i for i, e in enumerate(exp) if e)
                parent = product(exp[:j] + (exp[j] - 1,) + exp[j + 1 :])
                s = sum(exp) - 1
                steps.append((parent, j, forms._product_positions(2, s, 1), s + 2))
                number[exp] = len(steps)
            return number[exp]

        basis = forms.monomial_basis(self.phi.k, self.phi.t)
        return steps, [(c, product(exp)) for c, exp in zip(self.phi.coeffs, basis) if c]

    def to_json(self, gf: GF) -> dict:
        return {"m": self.m, "E": list(self.E), "phi": forms.form_to_json(gf, self.phi)}

    @classmethod
    def from_json(cls, gf: GF, obj) -> "SBBTForm":
        return cls(obj["m"], tuple(obj["E"]), forms.form_from_json(gf, obj["phi"]))


def interpolation_size(arc: Arc) -> tuple:
    """(m, mt+k-1): phi interpolates the m-th powers of the tangent forms,
    m = 1 for even q and 2 for odd q, over the first mt+k-1 arc points."""
    m = 1 if arc.gf.p == 2 else 2
    return m, m * arc.t + arc.k - 1


def check_size(arc: Arc) -> tuple:
    """interpolation_size(arc), or ValueError if the arc is smaller."""
    m, size = interpolation_size(arc)
    if arc.n < size:
        raise ValueError(f"arc of size {arc.n} too small: interpolation needs mt+k-1 = {size}")
    return m, size


def build_sbbt(arc: Arc, ts: TangentSystem) -> SBBTForm:
    """Interpolate phi over the (k-1)-subsets of the leading arc points.

    Each subset T contributes the m-th power of a scaled tangent
    evaluation divided by the determinants against the unused
    interpolation points, times the product of their appended-row linear
    forms; the scaled system makes the contributions consistent across
    subsets.
    """
    gf, k, t = arc.gf, arc.k, arc.t
    if t < 1:
        raise ValueError("arc has t = 0; no dual hypersurface")
    m, size = check_size(arc)
    E = tuple(range(size))
    subsets, scales, factors = list(combinations(E, k - 1)), [], []
    duals = zip(*_minor_columns(gf, [[arc.points[i] for i in T] for T in subsets]))
    for T, z in zip(subsets, duals):
        c = gf.pow(ts.eval_fS(T[:-1], T[-1]), m)  # f_{T minus last}(last), T in arc order
        lin = [appended_det_form(gf, k, arc.points[u]) for u in E if u not in T]
        for L in lin:
            d = linalg.dot(gf, L.coeffs, z)  # det(T + [u])
            if d == 0:
                raise ValueError("degenerate interpolation set: zero denominator")
            c = gf.div(c, d)
        scales.append(c)
        factors.append(lin)
    products = forms.product_linear_forms(gf, k, factors)
    coeffs = zip(*(f.coeffs for f in products))
    return SBBTForm(m, E, forms.Form(k, m * t, tuple(gf.dot(scales, col) for col in coeffs)))


def evaluate_G_batch(gf: GF, sbbt: SBBTForm, row_sets) -> list:
    """phi at the minor coordinates of every set of k-1 point rows: the
    monomials of the batch's minor columns built along
    forms._monomial_parents, one GF.col_dot each, and phi as one
    GF.vec_mat map over the columns of the monomials of degree deg(phi)."""
    k, d = sbbt.phi.k, sbbt.phi.t
    if len(row_sets[0]) != k - 1:
        raise ValueError(f"need k-1 = {k - 1} rows")
    z = _minor_columns(gf, row_sets)
    monomials = [[1] * len(row_sets)]
    for parent, j in forms._monomial_parents(k, d):
        monomials.append(gf.col_dot([monomials[parent]], [z[j]]))
    return gf.vec_mat(monomials[len(monomials) - forms.num_monomials(k, d) :])(sbbt.phi.coeffs)


def _residuals(gf: GF, sbbt: SBBTForm, bases, linear) -> list:
    """phi at the minor forms L_0..L_{k-1} of each prefix S, as a form in
    X, given S's pencil basis (u, v) and its minor forms.  L_j vanishes on
    the span of S, so L_j = α_j·u + β_j·v, α_j and β_j read off L_j at the
    pivots of the reduced basis.  phi's substitution plan on the binary
    forms α_j·U + β_j·V gives psi_S, and psi_S(u·X, v·X) is expanded by
    Horner in U over the powers of V: each coefficient is one GF.col_dot
    over the batch of prefixes.  Each product of the plan is dropped once
    its last child step, or its term, has read it."""
    k, d, size = sbbt.phi.k, sbbt.phi.t, len(bases)
    pivots = [(u.index(1), v.index(1)) for u, v in bases]
    alpha = [[L[j][a] for L, (a, _) in zip(linear, pivots)] for j in range(k)]
    beta = [[L[j][b] for L, (_, b) in zip(linear, pivots)] for j in range(k)]
    steps, terms = sbbt.substitution_plan
    products, last = [[[1] * size]], {parent: i for i, (parent, *_) in enumerate(steps)}
    for i, (parent, j, positions, width) in enumerate(steps):
        pairs = forms._linear_terms(products[parent], (alpha[j], beta[j]), positions, width)
        products.append([gf.col_dot(us, vs) for us, vs in pairs])
        if last[parent] == i:  # its last child; a parent is below phi's degree, so no term
            products[parent] = None
    rows = []
    for _, node in terms:  # each term's product flattened, then dropped
        rows.append(list(chain(*products[node])))
        products[node] = None
    psi = [[0] * size] * (d + 1)
    if terms:  # psi's d+1 coefficient columns, side by side
        combine = gf.vec_mat(rows)
        rows.clear()  # the map keeps what it needs of them
        flat = combine([c for c, _ in terms])
        psi = [flat[i * size : (i + 1) * size] for i in range(d + 1)]
    u, v = (list(zip(*w)) for w in zip(*bases))  # u[c]: coordinate c of every u
    residual, power = [psi[0]], [[1] * size]  # power: the coefficients of (v·X)^i
    for i in range(1, d + 1):
        positions, width = forms._product_positions(k, i - 1, 1), forms.num_monomials(k, i)
        power = [gf.col_dot(us, vs) for us, vs in forms._linear_terms(power, v, positions, width)]
        pairs = zip(forms._linear_terms(residual, u, positions, width), power)
        residual = [gf.col_dot([*us, psi[i]], [*vs, w]) for (us, vs), w in pairs]
    return [forms.Form(k, d, coeffs) for coeffs in zip(*residual)]


def classify_hyperplanes(arc: Arc, sbbt: SBBTForm) -> tuple:
    """(counts, values): two columns over every hyperplane of the ambient
    space, in projective_points(gf, k) order, its arc incidence count and
    the value of phi at its dual point.

    A covector is a prefix P, zero or a point of PG(k-2, q), and a last
    coordinate x, cell P·q + x of a column over every prefix at every x;
    the zero prefix keeps only x = 1.  An arc point p = (p', p_last) is on
    the hyperplane for the one x = P·p'·(-1/p_last) when p_last != 0, and
    for every x or for none, as P·p' is 0 or not, when p_last = 0: one
    GF.vec_mat map over the prefixes' coordinate columns, called once per
    arc point, gives either for every P, and the point's cells, one-hot
    lanes of a byte string, add to the counts as one int.  phi at the
    dual point σ·ell is phi with each coefficient times σ^e (σ the signs
    of covector_to_dual_point) at ell, which
    tensorform.values_on_every_point gives for every ell at once.
    """
    gf, k, d, q = arc.gf, arc.k, sbbt.phi.t, arc.gf.q
    prefixes = [(0,) * (k - 1), *projective_points(gf, k - 1)]
    through = gf.vec_mat(list(zip(*prefixes)))  # v ↦ P·v for every prefix P
    # the counts as lanes of one int, cell P·q + x for the covector (P, x):
    # a point adds one x's lane per prefix, or all of P's lanes or none
    code, order = next(c for c in "BHI" if arc.n < 1 << 8 * array(c).itemsize), sys.byteorder
    width, at_x = q * array(code).itemsize, []  # the bytes of a prefix's q lanes; at_x[x]: lane x
    for x in gf.elements():
        lanes = array(code, bytes(width))
        lanes[x] = 1
        at_x.append(lanes.tobytes())
    every_x = [array(code, [1] * q).tobytes(), bytes(width)]  # P·p' = 0, != 0
    total = 0
    for p in arc.points:
        if p[-1]:
            s = gf.neg(gf.inv(p[-1]))
            cells = map(at_x.__getitem__, through([gf.mul(c, s) for c in p[:-1]]))
        else:
            cells = map(every_x.__getitem__, map(truth, through(p[:-1])))
        total += int.from_bytes(b"".join(cells), order)
    counts = array(code, total.to_bytes(len(prefixes) * width, order)).tolist()

    odd = [j for j, s in enumerate(covector_to_dual_point(gf, (1,) * k)) if s != 1]
    basis = forms.monomial_basis(k, d)
    signed = [gf.neg(c) if sum(e[j] for j in odd) % 2 else c for c, e in zip(sbbt.phi.coeffs, basis)]
    return counts[1:2] + counts[q:], values_on_every_point(gf, forms.Form(k, d, tuple(signed)))


def verify_sbbt(
    arc: Arc,
    ts: TangentSystem,
    sbbt: SBBTForm,
    seed: int = 0,
    report: Report | None = None,
    hyperplanes=None,
) -> Report:
    """Check the dual form against the tangent system.  The G rows are read
    off one GF.vec_mat map over the arc's Veronese vectors of degree
    deg(phi), ts.veronese_map when that is t.  Both hyperplane sweeps and
    the note on the rest are tallied off the columns of
    classify_hyperplanes(arc, sbbt) by compress and count passes, the dual
    covectors listed only when some hyperplane fails; hyperplanes, when
    given, is those columns, so a caller that keeps them sweeps once."""
    gf, k, m, d = arc.gf, arc.k, sbbt.m, sbbt.phi.t
    if d == arc.t:
        at_points = ts.veronese_map
    else:
        at_points = gf.vec_mat(list(zip(*(forms.monomial_vector(gf, x, d) for x in arc.points))))

    report = report or Report("sbbt-verify", {}, [])
    ident = report.check("residual-equals-tangent-form-power")
    residuals = []  # G(S, x_j) = residual_S(x_j), and 0 on S
    subsets = list(combinations(range(arc.n), k - 2))
    linear = linalg.minor_forms_batch(gf, [[arc.points[i] for i in S] for S in subsets])
    bases = [arc.pencil_at(S)[:2] for S in subsets]
    for S, got in zip(subsets, _residuals(gf, sbbt, bases, linear)):
        fS = ts.form(S)
        want = fS
        for _ in range(m - 1):
            want = forms.form_mul(gf, want, fS)
        ident.tally(got == want, {"S": list(S)})
        residuals.append(at_points(got.coeffs))
        for j in S:
            residuals[-1][j] = 0

    counts, values = classify_hyperplanes(arc, sbbt) if hyperplanes is None else hyperplanes
    cells = range(len(counts))
    tangent = list(compress(cells, map(and_, map((k - 2).__eq__, counts), map(truth, values))))
    secant = list(compress(cells, map(and_, map((k - 1).__eq__, counts), map(not_, values))))
    duals = list(projective_points(gf, k)) if tangent or secant else []
    on_tangent, on_secant = counts.count(k - 2), counts.count(k - 1)
    report.check("vanishes-on-tangent-hyperplane-duals").tally_many(on_tangent, [
        {"dual": list(duals[i]), "value": values[i]} for i in tangent
    ])
    report.check("nonzero-on-secant-hyperplane-duals").tally_many(on_secant, [
        {"dual": list(duals[i])} for i in secant
    ])
    low = len(counts) - on_tangent - on_secant  # the hyperplanes in neither sweep
    vanishing = values.count(0) - (on_tangent - len(tangent)) - len(secant)  # less the zeros on both sweeps
    report.notes.append(
        f"{low} hyperplanes meet the arc in fewer than k-2 points; "
        f"phi vanishes on {vanishing} of them (recorded, not asserted)"
    )

    G = signed_table(arc, residuals, d)
    want = ts.g_table if m == 1 else list(map(gf.mul, ts.g_table, ts.g_table))
    report.check("agrees-with-signed-evaluations-powered").tally_many(len(G), [
        {"tuple": tuple_at(pos, arc.n, k - 1)} for pos in compress(range(len(G)), map(ne, G, want))
    ])

    rng = random.Random(seed)
    sym = report.check("symmetric-under-row-permutations")
    trials = []
    for _ in range(RANDOM_TRIALS):
        rows = [[rng.randrange(gf.q) for _ in range(k)] for _ in range(k - 1)]
        perm = list(range(k - 1))
        rng.shuffle(perm)
        trials.append((rows, perm))
    values = evaluate_G_batch(gf, sbbt, [r for rows, perm in trials for r in (rows, [rows[i] for i in perm])])
    for (rows, perm), a, b in zip(trials, values[::2], values[1::2]):
        sym.tally(a == b, {"rows": rows, "perm": perm})
    return report
