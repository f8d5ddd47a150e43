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
whose minors all vanish.  The hyperplane sweep evaluates phi at the dual of every
hyperplane, each covector prefix's polynomial in the last coordinate at
every x, and counts its arc points, by GF.vec_mat maps built once per
sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress, islice
from operator import ne

from . import forms, linalg
from .field import GF
from .geometry import Arc, projective_points
from .report import Report
from .tangents import RANDOM_TRIALS, TangentSystem, signed_table, tuple_at


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


def classify_hyperplanes(arc: Arc, sbbt: SBBTForm):
    """Every hyperplane of the ambient space with its arc incidence count
    and the value of phi at its dual point, in projective_points order.

    A covector is a prefix, zero or a point of PG(k-2, q), and a last
    coordinate x.  Once per head, the first k-2 coordinates that
    consecutive prefixes share, phi's nonzero terms are multiplied out one
    coordinate at a time from the signed powers (σ_j·y)^e and summed by
    tail; the prefix's last coordinate leaves phi a polynomial in x, whose
    coefficient list one gf.vec_mat map, built once over the (d+1) x q
    matrix of (σ_{k-1}·x)^e, evaluates at every x.  An arc point
    p = (p', p_last) is on the hyperplane for the one x = prefix·p'·(-1/p_last)
    when p_last != 0, and for every x or for none, as prefix·p' is 0 or
    not, when p_last = 0: two more maps, over the columns p'·(-1/p_last)
    and p', give both for every arc point at once.
    """
    gf, k, d, add, mul = arc.gf, arc.k, sbbt.phi.t, arc.gf.add, arc.gf.mul
    sign = covector_to_dual_point(gf, (1,) * k)
    powers = [[[gf.pow(mul(s, y), e) for e in range(d + 1)] for y in gf.elements()] for s in sign]
    terms = [(c, e) for c, e in zip(sbbt.phi.coeffs, forms.monomial_basis(k, d)) if c]
    exps = [[e[j] for _, e in terms] for j in range(k - 2)]
    tail = [e[-2:] for _, e in terms]  # a term's exponents of the last two coordinates
    at_every_x = gf.vec_mat(list(zip(*powers[k - 1])))
    slopes = [(p[:-1], gf.neg(gf.inv(p[-1]))) for p in arc.points if p[-1]]  # (p', -1/p_last)
    roots = gf.vec_mat(list(zip(*([mul(c, s) for c in u] for u, s in slopes))))
    flat = gf.vec_mat(list(zip(*(p[:-1] for p in arc.points if not p[-1]))))
    singles = [(x,) for x in gf.elements()]
    out, head = [], None
    for prefix in [(0,) * (k - 1), *projective_points(gf, k - 1)]:
        if prefix[:-1] != head:
            head, values = prefix[:-1], [c for c, _ in terms]
            for j, y in enumerate(head):
                values = list(map(mul, values, map(powers[j][y].__getitem__, exps[j])))
            tails = dict.fromkeys(tail, 0)  # phi on the head, summed by tail
            for t, v in zip(tail, values):
                tails[t] = add(tails[t], v)
        power, poly = powers[k - 2][prefix[-1]], [0] * (d + 1)  # poly[e]: the x^e coefficient
        for (a, e), v in tails.items():
            poly[e] = add(poly[e], mul(v, power[a]))
        counts = [flat(prefix).count(0)] * gf.q
        for x in roots(prefix):
            counts[x] += 1
        rows = zip(map(prefix.__add__, singles), counts, at_every_x(poly))
        out += rows if any(prefix) else islice(rows, 1, 2)  # the zero prefix takes x = 1 only
    return out


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
    deg(phi), ts.veronese_map when that is t; hyperplanes, when given, is
    classify_hyperplanes(arc, sbbt), so a caller that keeps it sweeps once."""
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

    sweep0 = report.check("vanishes-on-tangent-hyperplane-duals")
    sweep1 = report.check("nonzero-on-secant-hyperplane-duals")
    low = []
    if hyperplanes is None:
        hyperplanes = classify_hyperplanes(arc, sbbt)
    for ell, on, value in hyperplanes:
        if on == k - 2:
            sweep0.tally(value == 0, {"dual": list(ell), "value": value})
        elif on == k - 1:
            sweep1.tally(value != 0, {"dual": list(ell)})
        else:
            low.append((ell, on, value))
    report.notes.append(
        f"{len(low)} hyperplanes meet the arc in fewer than k-2 points; "
        f"phi vanishes on {sum(1 for _, _, v in low if v == 0)} of them "
        "(recorded, not asserted)"
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
