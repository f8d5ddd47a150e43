import itertools
import math
import random
import time

import pytest

from arcforms import linalg
from arcforms.forms import (
    Form,
    evaluate as eval_form,
    form_add,
    form_mul,
    form_scale,
    linear_form,
    monomial_basis,
    product_linear_forms,
    vanishing_subspace,
    zero_form,
)
from arcforms.geometry import Arc, is_arc, normal_rational_curve, projective_points
from arcforms.sbbt import (
    SBBTForm,
    appended_det_form,
    build_sbbt,
    classify_hyperplanes,
    covector_to_dual_point,
    det_minor,
    evaluate_G,
    minor_vector,
    residual_form,
    verify_sbbt,
)
from arcforms.tangents import (
    TangentSystem,
    build_tangent_system,
    g_value,
    tangent_hyperplanes,
)

from conftest import corpus_arc, corpus_system, field, glynn_arc


def test_det_minor_examples(gf5):
    rows = [(1, 0, 0), (0, 1, 0)]
    assert det_minor(gf5, rows, 2) == 1
    assert det_minor(gf5, rows, 0) == 0
    assert det_minor(gf5, rows, 1) == 0


def test_det_minor_dimension_check(gf5):
    with pytest.raises(ValueError):
        det_minor(gf5, [(1, 0), (0, 1)], 0)


def test_laplace_identity_random(gf7):
    rng = random.Random(0)
    for k in (3, 4):
        for _ in range(30):
            rows = [[rng.randrange(7) for _ in range(k)] for _ in range(k - 1)]
            u = [rng.randrange(7) for _ in range(k)]
            lf = appended_det_form(gf7, k, u)
            direct = linalg.det(gf7, rows + [u])
            assert eval_form(gf7, lf, minor_vector(gf7, rows)) == direct


def test_minors_vanish_on_repeated_rows(gf7):
    rows = [(1, 2, 3, 4), (0, 1, 1, 1), (1, 2, 3, 4)]
    assert minor_vector(gf7, rows) == (0, 0, 0, 0)


def test_covector_dual_point_consistency(gf7):
    # the dual point of the hyperplane spanned by rows has, as covector,
    # exactly the sign-adjusted minor vector
    rng = random.Random(1)
    for _ in range(20):
        rows = [[rng.randrange(7) for _ in range(4)] for _ in range(3)]
        z = minor_vector(gf7, rows)
        if not any(z):
            continue
        ell = covector_to_dual_point(gf7, z)  # involution up to global sign
        assert all(linalg.dot(gf7, ell, r) == 0 for r in rows)


def test_build_sizes_and_parity():
    arc, ts = corpus_system(5, 3)
    sb = build_sbbt(arc, ts)
    assert sb.m == 2 and sb.phi.t == 2 and sb.E == (0, 1, 2, 3)
    arc4, ts4 = corpus_system(4, 3)
    sb4 = build_sbbt(arc4, ts4)
    assert sb4.m == 1 and sb4.phi.t == 1 and sb4.E == (0, 1, 2)


def test_build_rejects_small_arc():
    arc, ts = corpus_system(5, 4)  # size 6 < 2*2 + 3 = 7
    with pytest.raises(ValueError):
        build_sbbt(arc, ts)


def test_conic_f5_dual_conic():
    arc, ts = corpus_system(5, 3)
    gf = arc.gf
    sb = build_sbbt(arc, ts)
    # Z_2^2 - 4 Z_1 Z_3, coefficients in the canonical monomial order
    reference = Form(3, 2, (0, 0, gf.neg(4), 1, 0, 0))
    lam = next(c for c in sb.phi.coeffs if c)
    ref = next(c for c in reference.coeffs if c)
    assert form_scale(gf, gf.div(ref, lam), sb.phi) == reference


def test_tangent_duals_are_on_dual_conic():
    arc, ts = corpus_system(5, 3)
    gf = arc.gf
    sb = build_sbbt(arc, ts)
    for i in range(arc.n):
        ell = tangent_hyperplanes(arc, (i,))[0]
        z = covector_to_dual_point(gf, ell)
        assert eval_form(gf, sb.phi, z) == 0


def test_even_q_zero_set_is_nucleus_pencil():
    for q in (4, 8):
        arc, ts = corpus_system(q, 3)
        gf = arc.gf
        sb = build_sbbt(arc, ts)
        assert sb.m == 1 and sb.phi.t == arc.t == 1
        t1 = tangent_hyperplanes(arc, (0,))[0]
        t2 = tangent_hyperplanes(arc, (1,))[0]
        _, basis = linalg.nullspace(gf, [t1, t2], ncols=3)
        nucleus = basis[0]
        zeros = sorted(
            tuple(ell) for ell, _, v in classify_hyperplanes(arc, sb) if v == 0
        )
        pencil = sorted(
            tuple(ell)
            for ell in projective_points(gf, 3)
            if linalg.dot(gf, ell, nucleus) == 0
        )
        assert zeros == pencil and len(zeros) == q + 1


def test_residual_equals_tangent_form_power():
    for q, k in [(4, 3), (5, 3), (7, 4)]:
        arc, ts = corpus_system(q, k)
        gf = arc.gf
        sb = build_sbbt(arc, ts)
        for S in itertools.combinations(range(arc.n), k - 2):
            fS = ts.form(S)
            want = fS if sb.m == 1 else form_mul(gf, fS, fS)
            got = residual_form(gf, sb, [arc.points[i] for i in S])
            assert got == want, S


def test_residual_form_takes_each_minor_once(monkeypatch):
    # one (k-2)-minor of the prefix rows per pair of deleted columns
    calls = []
    det = linalg.det
    monkeypatch.setattr(linalg, "det", lambda *a: calls.append(1) or det(*a))
    rng = random.Random(2)
    gf = field(9)
    for k in (3, 4, 5):
        phi = Form(k, 2, tuple(rng.randrange(9) for _ in monomial_basis(k, 2)))
        rows = [[rng.randrange(9) for _ in range(k)] for _ in range(k - 2)]
        calls.clear()
        residual_form(gf, SBBTForm(1, (), phi), rows)
        assert len(calls) == math.comb(k, 2)


def test_evaluate_G_examples():
    arc, ts = corpus_system(7, 4)
    gf = arc.gf
    sb = build_sbbt(arc, ts)
    # repeated rows: all minors vanish
    rows = [arc.points[0], arc.points[1], arc.points[0]]
    assert evaluate_G(gf, sb, rows) == 0
    # S plus an off-tangent arc point: the square of the tangent evaluation
    S = (0, 2)
    x = 5
    rows = [arc.points[0], arc.points[2], arc.points[x]]
    val = ts.eval_fS(S, x)
    assert val != 0 and evaluate_G(gf, sb, rows) == gf.mul(val, val)
    # S plus any point of a tangent hyperplane at S: zero
    dual = tangent_hyperplanes(arc, S)[0]
    _, basis = linalg.nullspace(gf, [dual], ncols=4)
    on_plane = basis[0]
    assert evaluate_G(gf, sb, [arc.points[0], arc.points[2], on_plane]) == 0


def test_G_agrees_with_signed_evaluations_powered():
    for q, k in [(4, 3), (9, 3), (8, 4)]:
        arc, ts = corpus_system(q, k)
        gf = arc.gf
        sb = build_sbbt(arc, ts)
        for tup in itertools.product(range(arc.n), repeat=k - 1):
            rows = [arc.points[i] for i in tup]
            assert evaluate_G(gf, sb, rows) == gf.pow(g_value(ts, tup), sb.m)


@pytest.mark.parametrize("q,k", [(4, 3), (5, 3), (7, 3), (8, 3), (9, 3), (7, 4), (8, 4)])
def test_verify_sbbt_corpus(q, k):
    arc, ts = corpus_system(q, k)
    sb = build_sbbt(arc, ts)
    report = verify_sbbt(arc, ts, sb)
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]


def test_reordered_arc_still_verifies():
    # a different interpolation set E: move two points to the front
    gf = field(7)
    base = corpus_arc(7, 3)
    pts = base.points
    reordered = Arc(gf, 3, (pts[5], pts[2], pts[0], pts[1], pts[3], pts[4], pts[6], pts[7]))
    ts = build_tangent_system(reordered)
    sb = build_sbbt(reordered, ts)
    report = verify_sbbt(reordered, ts, sb)
    assert report.passed


def test_sbbt_json_roundtrip():
    arc, ts = corpus_system(5, 3)
    sb = build_sbbt(arc, ts)
    blob = sb.to_json(arc.gf)
    assert SBBTForm.from_json(arc.gf, blob) == sb


def _oracle_checks(arc, ts, sb, seed=0, random_trials=100):
    """verify_sbbt's checks recomputed from the definitions.

    Residuals substitute into phi, monomial by monomial, the linear forms
    the minors become (coefficient of X_c read off with X = e_c);
    hyperplanes come from projective_points, forms.evaluate and
    linalg.dot; G is evaluated on every ordered tuple.  Returns
    ([(name, total, failed, witnesses)], notes, hyperplanes).
    """
    gf, k, m = arc.gf, arc.k, sb.m
    out, notes, duals = [], [], []

    def check(name, results):
        bad = [w for ok, w in results if not ok]
        out.append((name, len(results), len(bad), bad[:10]))

    basis = monomial_basis(k, sb.phi.t)
    unit = [tuple(int(c == j) for c in range(k)) for j in range(k)]
    results = []
    for S in itertools.combinations(range(arc.n), k - 2):
        prefix = [arc.points[i] for i in S]
        linear = [
            linear_form(k, [det_minor(gf, prefix + [unit[c]], j) for c in range(k)])
            for j in range(k)
        ]
        got = zero_form(k, sb.phi.t)
        for c, exp in zip(sb.phi.coeffs, basis):
            factors = [linear[j] for j, e in enumerate(exp) for _ in range(e)]
            got = form_add(gf, got, form_scale(gf, c, product_linear_forms(gf, k, factors)))
        fS = ts.form(S)
        want = fS if m == 1 else form_mul(gf, fS, fS)
        results.append((got == want, {"S": list(S)}))
    check("residual-equals-tangent-form-power", results)

    tangent, secant, low = [], [], []
    for ell in projective_points(gf, k):
        on = sum(1 for p in arc.points if linalg.dot(gf, ell, p) == 0)
        value = eval_form(gf, sb.phi, covector_to_dual_point(gf, ell))
        duals.append((ell, on, value))
        if on == k - 2:
            tangent.append((value == 0, {"dual": list(ell), "value": value}))
        elif on == k - 1:
            secant.append((value != 0, {"dual": list(ell)}))
        else:
            low.append(value)
    check("vanishes-on-tangent-hyperplane-duals", tangent)
    check("nonzero-on-secant-hyperplane-duals", secant)
    notes.append(
        f"{len(low)} hyperplanes meet the arc in fewer than k-2 points; "
        f"phi vanishes on {low.count(0)} of them (recorded, not asserted)"
    )

    check("agrees-with-signed-evaluations-powered", [
        (
            evaluate_G(gf, sb, [arc.points[i] for i in tup]) == gf.pow(g_value(ts, tup), m),
            {"tuple": list(tup)},
        )
        for tup in itertools.product(range(arc.n), repeat=k - 1)
    ])

    rng = random.Random(seed)
    results = []
    for _ in range(random_trials):
        rows = [[rng.randrange(gf.q) for _ in range(k)] for _ in range(k - 1)]
        perm = list(range(k - 1))
        rng.shuffle(perm)
        same = evaluate_G(gf, sb, rows) == evaluate_G(gf, sb, [rows[i] for i in perm])
        results.append((same, {"rows": rows, "perm": perm}))
    check("symmetric-under-row-permutations", results)
    return out, notes, duals


def test_corrupted_dual_form_is_caught():
    # deg phi = 1 on the conic of PG(2, 4) and 4 on the twisted cubic of
    # PG(3, 7).  "odd" multiplies phi of the conic of PG(2, 7) by Z_1, the
    # dual coordinate that covector_to_dual_point negates: odd row
    # permutations flip the sign of G, and a dropped covector sign flips
    # phi at the duals.  Failed counts as the per-tuple verifier found them.
    recorded = {
        (4, 3, "phi"): (4, 4, 2, 12, 0),
        (4, 3, "fS"): (1, 0, 0, 4, 0),
        (7, 4, "phi"): (21, 42, 0, 210, 0),
        (7, 4, "fS"): (1, 0, 0, 12, 0),
        (7, 3, "odd"): (8, 0, 3, 43, 38),
    }
    for (q, k, what), failed in recorded.items():
        arc, ts = corpus_system(q, k)
        gf = arc.gf
        sb = build_sbbt(arc, ts)
        if what == "odd":
            phi = form_mul(gf, sb.phi, linear_form(k, (0, 1) + (0,) * (k - 2)))
            sb = SBBTForm(sb.m, sb.E, phi)
        elif what == "phi":
            coeffs = list(sb.phi.coeffs)
            coeffs[0] = gf.add(coeffs[0], 1)
            sb = SBBTForm(sb.m, sb.E, Form(k, sb.phi.t, tuple(coeffs)))
        else:
            ts = TangentSystem(arc, ts.E, ts.anchor, dict(ts.fS))
            S = max(ts.fS)
            ts.fS[S] = form_scale(gf, 2, ts.fS[S])
        report = verify_sbbt(arc, ts, sb)
        got = [(c.name, c.total, c.failed, c.witnesses) for c in report.checks]
        checks, notes, duals = _oracle_checks(arc, ts, sb)
        assert (got, report.notes) == (checks, notes), (q, k, what)
        assert classify_hyperplanes(arc, sb) == duals, (q, k, what)
        assert tuple(c.failed for c in report.checks) == failed, (q, k, what)


def test_glynn_arc_of_pg4_9():
    # a 10-arc of PG(4, 9) that is not a normal rational curve: it lies on
    # one quadric fewer
    arc = glynn_arc()
    gf = arc.gf
    assert is_arc(gf, 5, arc.points) == (True, None)
    assert vanishing_subspace(gf, 5, arc.points, 2).dim == 5
    nrc = normal_rational_curve(gf, 5)
    assert vanishing_subspace(gf, 5, nrc.points, 2).dim == 6
    ts = build_tangent_system(arc)
    sb = build_sbbt(arc, ts)
    start = time.monotonic()
    report = verify_sbbt(arc, ts, sb)
    elapsed = time.monotonic() - start
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]
    assert [c.total for c in report.checks] == [120, 360, 210, 10_000, 100]
    assert report.notes == [
        "6811 hyperplanes meet the arc in fewer than k-2 points; "
        "phi vanishes on 1666 of them (recorded, not asserted)"
    ]
    assert elapsed < 5.0
