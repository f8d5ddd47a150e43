"""The dual hypersurface interpolated from the scaled tangent forms.

For an arc of size at least mt+k-1 (m = 1 for q even, 2 for q odd) there
is a degree-mt form phi in the k dual coordinates Z_j = j-th maximal minor
of k-1 point rows, built here by explicit interpolation over the (k-1)-
subsets of the first mt+k-1 arc points.  Substituting actual point rows
for the minors turns phi into a symmetric function G on (k-1)-tuples that
evaluates to the m-th power of the tangent forms, and phi vanishes on the
dual of every hyperplane meeting the arc in exactly k-2 points.

The verifier compares G with the m-th power of the signed tangent
evaluation on every ordered (k-1)-tuple of arc indices, but evaluates G
only once per sorted (k-1)-subset: permuting the rows by σ multiplies
every maximal minor by sgn σ, so G(rows∘σ) = sgn(σ)^deg(phi) · G(rows),
and G = 0 on rows with a repeat, whose minors all vanish.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from . import forms, linalg
from .field import GF
from .geometry import Arc
from .report import Report
from .tangents import TangentSystem, g_value, perm_parity


def det_minor(gf: GF, rows, j: int) -> int:
    """Determinant of the k-1 point rows with column j deleted."""
    k = len(rows) + 1
    if any(len(r) != k for r in rows):
        raise ValueError(f"need {k - 1} rows of length {k}")
    sub = [[r[c] for c in range(k) if c != j] for r in rows]
    return linalg.det(gf, sub)


def minor_vector(gf: GF, rows):
    """All k maximal minors of the rows: the dual coordinates of their span."""
    return tuple(det_minor(gf, rows, j) for j in range(len(rows) + 1))


def covector_to_dual_point(gf: GF, ell):
    """Minor coordinates of the hyperplane with covector ell."""
    k = len(ell)
    return tuple(
        gf.neg(c) if (k + j + 1) % 2 else c for j, c in enumerate(ell)
    )


def appended_det_form(gf: GF, k: int, u) -> forms.Form:
    """The linear form L in Z with L(minor_vector(rows)) = det(rows + [u]):
    cofactor expansion along the appended row gives u's dual point."""
    return forms.linear_form(k, covector_to_dual_point(gf, u))


@dataclass(frozen=True)
class SBBTForm:
    m: int
    E: tuple  # interpolation indices: the first mt+k-1 arc points
    phi: forms.Form  # degree m*t in the k dual variables

    def to_json(self, gf: GF) -> dict:
        return {"m": self.m, "E": list(self.E), "phi": forms.form_to_json(gf, self.phi)}

    @classmethod
    def from_json(cls, gf: GF, obj) -> "SBBTForm":
        return cls(obj["m"], tuple(obj["E"]), forms.form_from_json(gf, obj["phi"]))


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
    m = 1 if gf.p == 2 else 2
    size = m * t + k - 1
    if arc.n < size:
        raise ValueError(
            f"arc of size {arc.n} too small: interpolation needs mt+k-1 = {size}"
        )
    E = tuple(range(size))
    phi = forms.zero_form(k, m * t)
    for T in combinations(E, k - 1):
        rest = [u for u in E if u not in T]
        val = ts.eval_fS(T[:-1], T[-1])  # f_{T minus last}(last), T in arc order
        c = gf.pow(val, m)
        lin = []
        for u in rest:
            urow = arc.points[u]
            d = linalg.det(gf, [arc.points[i] for i in T] + [list(urow)])
            if d == 0:
                raise ValueError("degenerate interpolation set: zero denominator")
            c = gf.div(c, d)
            lin.append(appended_det_form(gf, k, urow))
        term = forms.form_scale(gf, c, forms.product_linear_forms(gf, k, lin))
        phi = forms.form_add(gf, phi, term)
    return SBBTForm(m, E, phi)


def evaluate_G(gf: GF, sbbt: SBBTForm, rows) -> int:
    """phi at the minor coordinates of k-1 point rows."""
    return forms.evaluate(gf, sbbt.phi, minor_vector(gf, rows))


def _linear_product(gf: GF, linear, exp, products) -> forms.Form:
    """The product of linear[j]^exp[j] over j, kept in ``products``: each
    is its parent's (one factor fewer, off the last variable) times one
    linear form."""
    if exp not in products:
        j = max(i for i, e in enumerate(exp) if e)
        parent = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
        products[exp] = forms.form_mul(
            gf, _linear_product(gf, linear, parent, products), linear[j]
        )
    return products[exp]


def residual_form(gf: GF, sbbt: SBBTForm, prefix_rows) -> forms.Form:
    """G(prefix, X) as a polynomial in X: substitute, into phi, the linear
    forms that each minor becomes once all rows but the last are fixed."""
    k = sbbt.phi.k
    if len(prefix_rows) != k - 2:
        raise ValueError(f"need k-2 = {k - 2} prefix rows")
    # minor j of [prefix, X]: expand along the X row; the cofactor of
    # column c is the prefix minor with columns j and c deleted
    minors = {
        pair: linalg.det(gf, [[x for c, x in enumerate(r) if c not in pair] for r in prefix_rows])
        for pair in combinations(range(k), 2)
    }
    linear = []
    for j in range(k):
        coeffs = [0] * k
        for pos, c in enumerate(i for i in range(k) if i != j):
            cof = minors[min(j, c), max(j, c)]
            coeffs[c] = gf.neg(cof) if (k + pos) % 2 else cof
        linear.append(forms.linear_form(k, coeffs))
    products = {(0,) * k: forms.Form(k, 0, (1,))}
    out = [0] * len(sbbt.phi.coeffs)
    for c, exp in zip(sbbt.phi.coeffs, forms.monomial_basis(k, sbbt.phi.t)):
        if c:
            for pos, v in enumerate(_linear_product(gf, linear, exp, products).coeffs):
                if v:
                    out[pos] = gf.add(out[pos], gf.mul(c, v))
    return forms.Form(k, sbbt.phi.t, tuple(out))


def classify_hyperplanes(arc: Arc, sbbt: SBBTForm):
    """Every hyperplane of the ambient space with its arc incidence count
    and the value of phi at its dual point, in projective_points order.

    The canonical covectors are extended one coordinate at a time, every
    prefix in lexicographic order: each step substitutes the signed dual
    coordinate into what is left of phi, read from one power table of the
    field, and adds the coordinate's term to every arc point's partial dot
    product.  At the last coordinate x, a point's dot product s + x·p_last
    vanishes for the one x = -s/p_last when p_last != 0, and for every x
    or for none when p_last = 0.
    """
    gf, k, d = arc.gf, arc.k, sbbt.phi.t
    powers = [[gf.pow(x, e) for e in range(d + 1)] for x in gf.elements()]
    sign = covector_to_dual_point(gf, (1,) * k)

    def substitute(phi, j, x):
        # phi maps the exponents of coordinates j, j+1, ... to a coefficient
        power = powers[gf.mul(sign[j], x)]
        rest = {}
        for exp, c in phi.items():
            v = gf.mul(c, power[exp[0]])
            if v:
                rest[exp[1:]] = gf.add(rest.get(exp[1:], 0), v)
        return rest

    def values(prefix):
        # canonical representatives: the first nonzero coordinate is 1
        return gf.elements() if any(prefix) else (1,) if len(prefix) == k - 1 else (0, 1)

    basis = forms.monomial_basis(k, d)
    level = [((), {e: c for e, c in zip(basis, sbbt.phi.coeffs) if c}, [0] * arc.n)]
    for j in range(k - 1):
        level = [
            (
                prefix + (x,),
                substitute(phi, j, x),
                [gf.add(s, gf.mul(x, p[j])) for s, p in zip(partial, arc.points)],
            )
            for prefix, phi, partial in level
            for x in values(prefix)
        ]
    out = []
    for prefix, phi, partial in level:
        pairs = list(zip(partial, (p[-1] for p in arc.points)))
        always = sum(1 for s, c in pairs if not (s or c))
        roots = Counter(gf.div(gf.neg(s), c) for s, c in pairs if c)
        for x in values(prefix):
            value = substitute(phi, k - 1, x).get((), 0)
            out.append((prefix + (x,), always + roots[x], value))
    return out


def verify_sbbt(
    arc: Arc,
    ts: TangentSystem,
    sbbt: SBBTForm,
    seed: int = 0,
    random_trials: int = 100,
    report: Report | None = None,
) -> Report:
    gf, k, m = arc.gf, arc.k, sbbt.m

    report = report or Report("sbbt-verify", {}, [])
    ident = report.check("residual-equals-tangent-form-power")
    for S in combinations(range(arc.n), k - 2):
        got = residual_form(gf, sbbt, [arc.points[i] for i in S])
        fS = ts.form(S)
        want = fS
        for _ in range(m - 1):
            want = forms.form_mul(gf, want, fS)
        ident.tally(got == want, {"S": list(S)})

    sweep0 = report.check("vanishes-on-tangent-hyperplane-duals")
    sweep1 = report.check("nonzero-on-secant-hyperplane-duals")
    low = []
    for ell, on, value in classify_hyperplanes(arc, sbbt):
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

    agree = report.check("agrees-with-signed-evaluations-powered")
    # G(rows∘σ) = sgn(σ)^deg(phi) · G(rows), and G = 0 on repeated rows
    G = {
        T: evaluate_G(gf, sbbt, [arc.points[i] for i in T])
        for T in combinations(range(arc.n), k - 1)
    }
    flip = gf.pow(gf.neg(1), sbbt.phi.t)  # 1 when deg phi is even or q is even
    for tup in product(range(arc.n), repeat=k - 1):
        value = G.get(tuple(sorted(tup)), 0)
        if flip != 1 and value and perm_parity(tup):
            value = gf.mul(flip, value)
        agree.tally(value == gf.pow(g_value(ts, tup), m), {"tuple": list(tup)})

    rng = random.Random(seed)
    sym = report.check("symmetric-under-row-permutations")
    for _ in range(random_trials):
        rows = [
            [rng.randrange(gf.q) for _ in range(k)] for _ in range(k - 1)
        ]
        perm = list(range(k - 1))
        rng.shuffle(perm)
        sym.tally(
            evaluate_G(gf, sbbt, rows)
            == evaluate_G(gf, sbbt, [rows[i] for i in perm]),
            {"rows": rows, "perm": perm},
        )
    return report
