import itertools
import math
import operator
import random
import time

import pytest

from arcforms import forms, linalg
from arcforms.field import make_field
from arcforms.forms import (
    Form,
    evaluate as eval_form,
    form_mul,
    linear_form,
    monomial_basis,
    product_linear_forms,
    vanishing_subspace,
)
from arcforms.geometry import Arc, is_arc, normal_rational_curve, projective_points
from arcforms.report import MAX_WITNESSES
from arcforms.sbbt import (
    SBBTForm,
    appended_det_form,
    build_sbbt,
    classify_hyperplanes,
    _minor_columns,
    _residuals,
    covector_to_dual_point,
    evaluate_G_batch,
    verify_sbbt,
)
from arcforms.tangents import (
    RANDOM_TRIALS,
    TangentSystem,
    build_tangent_system,
    signed_table,
    tangent_hyperplanes,
)

from conftest import (
    CORPUS,
    corpus_arc,
    corpus_system,
    field,
    form_add,
    form_scale,
    g_value,
    glynn_arc,
    residual_form,
    zero_form,
)


def det_minor(gf, rows, j):
    """Oracle: the determinant of the k-1 point rows with column j deleted,
    one elimination each."""
    k = len(rows) + 1
    if any(len(r) != k for r in rows):
        raise ValueError(f"need {k - 1} rows of length {k}")
    return linalg.det(gf, [[r[c] for c in range(k) if c != j] for r in rows])


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
            assert eval_form(gf7, lf, next(zip(*_minor_columns(gf7, [rows])))) == direct


def test_minors_vanish_on_repeated_rows(gf7):
    rows = [(1, 2, 3, 4), (0, 1, 1, 1), (1, 2, 3, 4)]
    assert next(zip(*_minor_columns(gf7, [rows]))) == (0, 0, 0, 0)


def test_covector_dual_point_consistency(gf7):
    # the dual point of the hyperplane spanned by rows has, as covector,
    # exactly the sign-adjusted minor vector
    rng = random.Random(1)
    for _ in range(20):
        rows = [[rng.randrange(7) for _ in range(4)] for _ in range(3)]
        z = next(zip(*_minor_columns(gf7, [rows])))
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
        _, values = classify_hyperplanes(arc, sb)
        zeros = sorted(itertools.compress(projective_points(gf, 3), map(operator.not_, values)))
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
    # one minor table of the prefix rows, one (k-2)-minor per pair of
    # deleted columns
    calls = []
    minors = linalg._minors
    monkeypatch.setattr(linalg, "_minors", lambda *a: calls.append(minors(*a)) or calls[-1])
    rng = random.Random(2)
    gf = field(9)
    for k in (3, 4, 5):
        phi = Form(k, 2, tuple(rng.randrange(9) for _ in monomial_basis(k, 2)))
        rows = [[rng.randrange(9) for _ in range(k)] for _ in range(k - 2)]
        calls.clear()
        residual_form(gf, SBBTForm(1, (), phi), rows)
        assert list(map(len, calls)) == [math.comb(k, 2)]


@pytest.mark.parametrize("q,k", [(7, 4), (9, 3)])
def test_verify_sbbt_takes_its_minors_in_two_batches(q, k, monkeypatch):
    # one minor table for the minor forms of all C(n, k-2) residual
    # prefixes, and one for the maximal minors of the symmetry check's two
    # row sets per trial, at which phi is then evaluated in one batch
    arc, ts = corpus_system(q, k)
    sb = build_sbbt(arc, ts)
    batches, minors = [], linalg._minors
    monkeypatch.setattr(
        linalg, "_minors", lambda gf, batch, ncols: batches.append((len(batch), len(batch[0]))) or minors(gf, batch, ncols)
    )
    assert verify_sbbt(arc, ts, sb).passed
    assert batches == [(math.comb(arc.n, k - 2), k - 2), (2 * RANDOM_TRIALS, k - 1)]


@pytest.mark.parametrize("q", [7, 8, 9])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_residual_form_matches_substitution_oracle(q, k):
    # sparse, dense, zero and degree-0 phi at random prefix rows, zero and
    # repeated rows included
    gf, rng = field(q), random.Random(10 * q + k)
    for d, density in [(3, 0.3), (2, 1), (3, 0), (0, 1)]:
        coeffs = [rng.randrange(1, q) if rng.random() < density else 0 for _ in monomial_basis(k, d)]
        sb = SBBTForm(1, (), Form(k, d, tuple(coeffs)))
        for _ in range(3):
            prefix = [[rng.randrange(q) for _ in range(k)] for _ in range(k - 2)]
            assert residual_form(gf, sb, prefix) == _substituted(gf, sb.phi, prefix), (d, prefix)
        if k > 2:
            prefix = [[0] * k] + [[1] * k] * (k - 3)
            assert residual_form(gf, sb, prefix) == _substituted(gf, sb.phi, prefix), (d, prefix)


RESIDUAL_CASES = {f"q{q}-k{k}": (q, k) for q in (7, 8, 9) for k in (3, 4, 5)} | {"glynn": "glynn"}


@pytest.mark.parametrize("case", RESIDUAL_CASES.values(), ids=RESIDUAL_CASES)
def test_batched_residuals_match_the_k_ary_oracle(case):
    # the binary psi_S expanded at (u·X, v·X) is the k-ary substitution at
    # every sorted S, for sparse and dense phi of degree 0-3: the two are
    # the same polynomial, whatever phi is
    arc = glynn_arc() if case == "glynn" else normal_rational_curve(field(case[0]), case[1])
    gf, k, rng = arc.gf, arc.k, random.Random(str(case))
    subsets = list(itertools.combinations(range(arc.n), k - 2))
    prefixes = [[arc.points[i] for i in S] for S in subsets]
    linear = linalg.minor_forms_batch(gf, prefixes)
    bases = [arc.pencil_at(S)[:2] for S in subsets]
    for d in range(4):
        for density in (0.3, 1):
            coeffs = [rng.randrange(1, gf.q) if rng.random() < density else 0 for _ in monomial_basis(k, d)]
            sb = SBBTForm(1, (), Form(k, d, tuple(coeffs)))
            got = _residuals(gf, sb, bases, linear)
            assert got == [residual_form(gf, sb, rows) for rows in prefixes], (d, density)


def test_one_substitution_plan_serves_every_residual(monkeypatch):
    # phi's plan reads the product-position tables once, on the first
    # residual; every later residual of the same SBBTForm reuses it
    arc, ts = corpus_system(7, 4)
    sb = build_sbbt(arc, ts)
    calls = []
    positions = forms._product_positions
    monkeypatch.setattr(forms, "_product_positions", lambda *a: calls.append(a) or positions(*a))
    rows = [[arc.points[i] for i in S] for S in itertools.combinations(range(arc.n), 2)]
    first = residual_form(arc.gf, sb, rows[0])
    steps, terms = plan = sb.substitution_plan
    assert len(calls) == len(steps) > 0 and len(terms) == sum(1 for c in sb.phi.coeffs if c)
    later = [residual_form(arc.gf, sb, r) for r in rows]
    assert later[0] == first and len(calls) == len(steps) and sb.substitution_plan is plan


@pytest.mark.parametrize("case", [(q, k) for q, _, _, k in CORPUS] + ["glynn"])
def test_residuals_give_G_on_every_sorted_subset(case):
    # residual_S(X) is phi at the minor vector of [S, X] as a polynomial,
    # for any phi: the signed table of the residuals at the arc points, 0
    # on S, with power deg phi, is G on every ordered (k-1)-tuple,
    # for the built phi (m = 1 and m = 2), a corrupted one and a random one
    # of degree t.  The twisted cubic of PG(3, 5) is too small to
    # interpolate; a random phi of degree mt stands in for the built one.
    if case == "glynn":
        arc = glynn_arc()
        ts = build_tangent_system(arc)
    else:
        arc, ts = corpus_system(*case)
    gf, k, t = arc.gf, arc.k, arc.t
    m = 1 if gf.p == 2 else 2
    rng = random.Random(5)

    def random_phi(d):
        return SBBTForm(m, (), Form(k, d, tuple(rng.randrange(gf.q) for _ in monomial_basis(k, d))))

    sb = build_sbbt(arc, ts) if arc.n >= m * t + k - 1 else random_phi(m * t)
    coeffs = list(sb.phi.coeffs)
    coeffs[0] = gf.add(coeffs[0], 1)
    bad = SBBTForm(sb.m, sb.E, Form(k, sb.phi.t, tuple(coeffs)))
    tuples = itertools.product(range(arc.n), repeat=k - 1)
    duals = list(zip(*_minor_columns(gf, [[arc.points[i] for i in T] for T in tuples])))
    for phi in (sb, bad, random_phi(t)):
        # G on every ordered tuple; rows with a repeat have minors 0
        want = [eval_form(gf, phi.phi, z) if any(z) else 0 for z in duals]
        rows = []
        for S in itertools.combinations(range(arc.n), k - 2):
            res = residual_form(gf, phi, [arc.points[i] for i in S])
            rows.append([0 if j in S else eval_form(gf, res, x) for j, x in enumerate(arc.points)])
        assert signed_table(arc, rows, phi.phi.t) == want


def test_evaluate_G_examples():
    arc, ts = corpus_system(7, 4)
    gf = arc.gf
    sb = build_sbbt(arc, ts)
    # repeated rows: all minors vanish
    rows = [arc.points[0], arc.points[1], arc.points[0]]
    assert evaluate_G_batch(gf, sb, [rows])[0] == 0
    # S plus an off-tangent arc point: the square of the tangent evaluation
    S = (0, 2)
    x = 5
    rows = [arc.points[0], arc.points[2], arc.points[x]]
    val = ts.eval_fS(S, x)
    assert val != 0 and evaluate_G_batch(gf, sb, [rows])[0] == gf.mul(val, val)
    # S plus any point of a tangent hyperplane at S: zero
    dual = tangent_hyperplanes(arc, S)[0]
    _, basis = linalg.nullspace(gf, [dual], ncols=4)
    on_plane = basis[0]
    assert evaluate_G_batch(gf, sb, [[arc.points[0], arc.points[2], on_plane]])[0] == 0


def test_G_agrees_with_signed_evaluations_powered():
    for q, k in [(4, 3), (9, 3), (8, 4)]:
        arc, ts = corpus_system(q, k)
        gf = arc.gf
        sb = build_sbbt(arc, ts)
        for tup in itertools.product(range(arc.n), repeat=k - 1):
            rows = [arc.points[i] for i in tup]
            assert evaluate_G_batch(gf, sb, [rows])[0] == gf.pow(g_value(ts, tup), sb.m)


def test_g_table_squared_by_mul_is_its_pow():
    # for odd q (m = 2) verify_sbbt squares the g table by one mul per entry
    for q, k in [(5, 3), (7, 3), (9, 3), (5, 4), (7, 4)]:
        arc, ts = corpus_system(q, k)
        g = ts.g_table
        assert list(map(arc.gf.mul, g, g)) == [arc.gf.pow(v, 2) for v in g]


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


def _oracle_duals(arc, phi):
    """(counts, values) over every hyperplane from projective_points: its
    arc incidences by linalg.dot and phi by forms.evaluate at its dual
    point, one hyperplane at a time."""
    gf, counts, values = arc.gf, [], []
    for ell in projective_points(gf, arc.k):
        counts.append(sum(1 for p in arc.points if linalg.dot(gf, ell, p) == 0))
        values.append(eval_form(gf, phi, covector_to_dual_point(gf, ell)))
    return counts, values


# GF(2^9) and GF(2^11), moduli x^9+x^4+1 and x^11+x^2+1: vec_mat packs two
# bytes per entry there
WIDE_BINARY_MODULI = {512: [1, 0, 0, 0, 1, 0, 0, 0, 0, 1], 2048: [1, 0, 1] + [0] * 8 + [1]}


@pytest.mark.parametrize(
    "q,k,d,kind",
    [
        (q, k, 1 + (q + k) % 4, ("sparse", "dense", "zero")[(q + 2 * k) % 3])
        for q in (4, 5, 7, 8, 9)
        for k in range(2, 6)
    ]
    + [(512, 2, 3, "dense"), (2048, 2, 4, "sparse")],
)
def test_classify_hyperplanes_matches_oracle(q, k, d, kind):
    # a shuffled subset of the NRC, at most 40 points, and a phi of degree d
    # with about 30%, all or none of its coefficients nonzero
    rng = random.Random(100 * q + 10 * k + d)
    gf = make_field(2, q.bit_length() - 1, WIDE_BINARY_MODULI[q]) if q in WIDE_BINARY_MODULI else field(q)
    nrc = normal_rational_curve(gf, k)
    arc = Arc(gf, k, tuple(rng.sample(nrc.points, rng.randint(k, min(nrc.n, 40)))))
    density = {"sparse": 0.3, "dense": 1, "zero": 0}[kind]
    coeffs = [rng.randrange(1, q) if rng.random() < density else 0 for _ in monomial_basis(k, d)]
    sb = SBBTForm(1, (), Form(k, d, tuple(coeffs)))
    assert classify_hyperplanes(arc, sb) == _oracle_duals(arc, sb.phi)


def _with_last_coordinate(gf, points, ell):
    """The points in coordinates whose last one is ell·x: the unit rows but
    one where ell is nonzero, then ell (an invertible change of frame)."""
    j0 = next(j for j, c in enumerate(ell) if c)
    rows = [[int(c == j) for c in range(len(ell))] for j in range(len(ell)) if j != j0] + [list(ell)]
    return tuple(tuple(linalg.mat_vec(gf, rows, x)) for x in points)


@pytest.mark.parametrize("q", [7, 8, 9])  # GF(p) lanes, GF(2^3) bit planes, GF(3^2) tables
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("flat", [0, "k-1"])
def test_classify_hyperplanes_matches_oracle_with_and_without_flat_points(q, k, flat):
    # the NRC's first q + 1 - (k - 3) points in a frame whose last
    # coordinate is the first covector on none of them, or on k-1 of them:
    # no point has p_last = 0, or k-1 do, each on every x of the prefixes
    # P with P·p' = 0
    gf = field(q)
    points = normal_rational_curve(gf, k).points[: q + 4 - k]
    want = 0 if flat == 0 else k - 1
    ell = next(e for e in projective_points(gf, k) if sum(linalg.dot(gf, e, x) == 0 for x in points) == want)
    arc = Arc(gf, k, _with_last_coordinate(gf, points, ell))
    assert sum(x[-1] == 0 for x in arc.points) == want and is_arc(gf, k, arc.points)[0]
    rng = random.Random(10 * q + k)
    sb = SBBTForm(1, (), Form(k, 3, tuple(rng.randrange(q) for _ in monomial_basis(k, 3))))
    assert classify_hyperplanes(arc, sb) == _oracle_duals(arc, sb.phi)


def _substituted(gf, phi, prefix):
    """phi with each Z_j replaced by the linear form the j-th minor of
    [prefix, X] is in X (coefficient of X_c read off with X = e_c),
    monomial by monomial."""
    k = phi.k
    unit = [tuple(int(c == j) for c in range(k)) for j in range(k)]
    linear = [
        linear_form(k, [det_minor(gf, prefix + [unit[c]], j) for c in range(k)])
        for j in range(k)
    ]
    out = zero_form(k, phi.t)
    for c, exp in zip(phi.coeffs, monomial_basis(k, phi.t)):
        factors = [linear[j] for j, e in enumerate(exp) for _ in range(e)]
        out = form_add(gf, out, form_scale(gf, c, product_linear_forms(gf, k, [factors])[0]))
    return out


def _oracle_checks(arc, ts, sb, seed=0, random_trials=100):
    """verify_sbbt's checks recomputed from the definitions.

    Residuals substitute into phi, monomial by monomial, the linear forms
    the minors become (coefficient of X_c read off with X = e_c);
    hyperplanes come from projective_points, forms.evaluate and
    linalg.dot; G is evaluated on every ordered tuple.  Returns
    ([(name, total, failed, witnesses)], notes, hyperplanes).
    """
    gf, k, m = arc.gf, arc.k, sb.m
    out, notes = [], []

    def check(name, results):
        bad = [w for ok, w in results if not ok]
        out.append((name, len(results), len(bad), bad[:10]))

    results = []
    for S in itertools.combinations(range(arc.n), k - 2):
        got = _substituted(gf, sb.phi, [arc.points[i] for i in S])
        fS = ts.form(S)
        want = fS if m == 1 else form_mul(gf, fS, fS)
        results.append((got == want, {"S": list(S)}))
    check("residual-equals-tangent-form-power", results)

    tangent, secant, low = [], [], []
    duals = _oracle_duals(arc, sb.phi)
    for ell, on, value in zip(projective_points(gf, k), *duals):
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
            evaluate_G_batch(gf, sb, [[arc.points[i] for i in tup]])[0] == gf.pow(g_value(ts, tup), m),
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
        same = evaluate_G_batch(gf, sb, [rows])[0] == evaluate_G_batch(gf, sb, [[rows[i] for i in perm]])[0]
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


@pytest.mark.parametrize("q,k", [(7, 4), (8, 4)])
def test_corrupted_sweep_witnesses_match_the_per_hyperplane_loop(q, k):
    # phi' = L^deg(phi), L the appended-row form of arc point 3: L at the
    # dual of ell is ell·x_3, so phi' vanishes exactly on the hyperplanes
    # through x_3.  The C(n-1, k-2) secants through x_3 and the tangent
    # hyperplanes off it each fail more than MAX_WITNESSES times; counts
    # and the first witnesses, in projective order, are those of the
    # per-hyperplane loop.  x_3's coordinates are distinct, so phi' is
    # not symmetric in the covector's coordinates
    arc, ts = corpus_system(q, k)
    sb = build_sbbt(arc, ts)
    L = appended_det_form(arc.gf, k, arc.points[3])
    sb = SBBTForm(sb.m, sb.E, product_linear_forms(arc.gf, k, [[L] * sb.phi.t])[0])
    report = verify_sbbt(arc, ts, sb)
    checks, notes, _ = _oracle_checks(arc, ts, sb)
    sweeps = ("vanishes-on-tangent-hyperplane-duals", "nonzero-on-secant-hyperplane-duals")
    got = {c.name: (c.total, c.failed, c.witnesses) for c in report.checks if c.name in sweeps}
    want = {name: (total, failed, witnesses) for name, total, failed, witnesses in checks if name in sweeps}
    assert got == want and report.notes == notes
    assert got[sweeps[1]][1] == math.comb(arc.n - 1, k - 2)
    assert all(failed > MAX_WITNESSES for _, failed, _ in got.values())


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
