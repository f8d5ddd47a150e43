"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exhaustive at desk scale and exact (zero tolerance);
the only non-determinism is seeded.  Stated wall-clock budgets are
asserted per arc.
"""

import itertools
import time

from arcforms import linalg
from arcforms.forms import (
    Form,
    form_mul,
    monomial_basis,
    vanishes_on,
    vanishing_subspace,
)
from arcforms.geometry import Arc, mds_check, projective_points
from arcforms.sbbt import build_sbbt, classify_hyperplanes
from arcforms.tangents import (
    build_tangent_system,
    tangent_hyperplanes,
    verify_lemma_of_tangents,
    verify_scaling_chain,
    verify_tangent_counts,
)
from arcforms.tensorform import (
    MultiForm,
    evaluation_table,
    quadric_check,
    shift_extract,
    verify_tensor_form,
)

from conftest import (
    corpus_arc,
    corpus_system,
    corpus_tensor,
    dense,
    form_scale,
    g_value,
    is_block_congruent,
    residual_form,
)

CONICS = [(q, 3) for q, _, _ in [(4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2)]]
CUBICS = [(q, 4) for q in (5, 7, 8)]
ALL_ARCS = CONICS + CUBICS


def report_line(name, elapsed, budget):
    print(f"acceptance {name}: PASS ({elapsed * 1000:.0f} ms, budget {budget:.0f} s)")


def test_criterion_01_tangent_counts():
    for q, k in ALL_ARCS:
        arc = corpus_arc(q, k)
        start = time.monotonic()
        report = verify_tangent_counts(arc)
        elapsed = time.monotonic() - start
        assert report.passed, (q, k)
        assert elapsed < 5.0
    report_line("1 tangent-counts", elapsed, 5)


def test_criterion_02_lemma_of_tangents():
    for q, k in ALL_ARCS:
        arc, ts = corpus_system(q, k)
        start = time.monotonic()
        report = verify_lemma_of_tangents(ts, seed=0)
        elapsed = time.monotonic() - start
        assert report.passed, (q, k)
        assert elapsed < 10.0
    report_line("2 lemma-of-tangents", elapsed, 10)


def test_criterion_03_tensor_form_properties():
    for q, k in ALL_ARCS:
        arc, ts, F = corpus_tensor(q, k)
        start = time.monotonic()
        report = verify_tensor_form(arc, ts, F)
        elapsed = time.monotonic() - start
        assert report.passed, (q, k)
        assert elapsed < 30.0
    report_line("3 tensor-form-properties", elapsed, 30)


def test_criterion_04_defining_contract():
    for q, k in ALL_ARCS:
        arc, ts, F = corpus_tensor(q, k)
        table = evaluation_table(arc.gf, F, arc.points)
        for pos, tup in enumerate(itertools.product(range(arc.n), repeat=k - 1)):
            assert table[pos] == g_value(ts, tup), (q, k, tup)
    report_line("4 defining-contract", 0, 0)


def test_criterion_05_vanishing_dimensions():
    start = time.monotonic()
    for q in (5, 7, 8, 9):
        arc = corpus_arc(q, 3)
        assert vanishing_subspace(arc.gf, 3, arc.points, 2).dim == 1, q
    arc7 = corpus_arc(7, 4)
    assert vanishing_subspace(arc7.gf, 4, arc7.points, 2).dim == 3
    arc5 = corpus_arc(5, 4)
    assert vanishing_subspace(arc5.gf, 4, arc5.points, 2).dim == 4
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report_line("5 vanishing-dimensions", elapsed, 1)


def test_criterion_06_quadric_through_space_arcs():
    start = time.monotonic()
    for q in (5, 7):
        arc = corpus_arc(q, 4)
        quad = quadric_check(arc)
        assert quad is not None and any(quad.coeffs), q
        assert vanishes_on(arc.gf, quad, arc.points), q
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report_line("6 quadric-check", elapsed, 1)


def test_criterion_07_shift_extraction_vanishes():
    for q in (5, 7):
        arc, ts, F = corpus_tensor(q, 3)
        assert vanishing_subspace(arc.gf, 3, arc.points, 1).dim == 0
        start = time.monotonic()
        exps = [m for d in (0, 1) for m in monomial_basis(3, d)]
        for i1 in exps:
            f = shift_extract(arc.gf, F, [i1])
            assert vanishes_on(arc.gf, f, arc.points), (q, i1)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
    report_line("7 shift-extraction", elapsed, 5)


def test_criterion_08_dual_form_even_q():
    for q in (4, 8):
        arc, ts = corpus_system(q, 3)
        gf = arc.gf
        start = time.monotonic()
        sb = build_sbbt(arc, ts)
        assert sb.m == 1 and sb.phi.t == arc.t == 1
        for S in itertools.combinations(range(arc.n), 1):
            got = residual_form(gf, sb, [arc.points[i] for i in S])
            assert got == ts.form(S), (q, S)
        t1 = tangent_hyperplanes(arc, (0,))[0]
        t2 = tangent_hyperplanes(arc, (1,))[0]
        _, nb = linalg.nullspace(gf, [t1, t2], ncols=3)
        nucleus = nb[0]
        zeros = set()
        for ell, on, value in zip(projective_points(gf, 3), *classify_hyperplanes(arc, sb)):
            if on == 1:
                assert value == 0, (q, ell)
            if value == 0:
                zeros.add(tuple(ell))
        pencil = {
            tuple(ell)
            for ell in projective_points(gf, 3)
            if linalg.dot(gf, ell, nucleus) == 0
        }
        assert zeros == pencil, q
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
    report_line("8 dual-form-even-q", elapsed, 5)


def test_criterion_09_dual_form_odd_q():
    start = time.monotonic()
    # conic over F_5: the dual conic, up to a scalar
    arc, ts = corpus_system(5, 3)
    gf = arc.gf
    sb = build_sbbt(arc, ts)
    reference = Form(3, 2, (0, 0, gf.neg(4), 1, 0, 0))  # Z2^2 - 4 Z1 Z3
    lam = next(c for c in sb.phi.coeffs if c)
    ref = next(c for c in reference.coeffs if c)
    assert form_scale(gf, gf.div(ref, lam), sb.phi) == reference

    # twisted cubic over F_7
    arc, ts = corpus_system(7, 4)
    gf = arc.gf
    sb = build_sbbt(arc, ts)
    assert sb.m == 2 and sb.phi.t == 4
    subsets = list(itertools.combinations(range(arc.n), 2))
    assert len(subsets) == 28
    for S in subsets:
        fS = ts.form(S)
        got = residual_form(gf, sb, [arc.points[i] for i in S])
        assert got == form_mul(gf, fS, fS), S
    counts, values = classify_hyperplanes(arc, sb)
    assert len(counts) == len(values) == 400
    for ell, on, value in zip(projective_points(gf, 4), counts, values):
        if on == 2:
            assert value == 0, ell
        elif on == 3:
            assert value != 0, ell
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report_line("9 dual-form-odd-q", elapsed, 60)


def test_criterion_10_mds_bridge():
    start = time.monotonic()
    for q, k in ALL_ARCS:
        arc = corpus_arc(q, k)
        ok, gen, witness = mds_check(arc)
        assert ok and witness is None, (q, k)
    # single-point corruption: replace the last point by one in the span
    # of the first k-1 points
    arc = corpus_arc(7, 4)
    gf = arc.gf
    bad_point = tuple(
        gf.add(gf.add(arc.points[0][i], arc.points[1][i]), arc.points[2][i])
        for i in range(4)
    )
    corrupt = Arc(gf, 4, arc.points[:-1] + (bad_point,))
    ok, _, witness = mds_check(corrupt)
    assert not ok and witness is not None
    sub = [[p[r] for r in range(4)] for p in (corrupt.points[i] for i in witness)]
    assert linalg.det(gf, sub) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report_line("10 mds-bridge", elapsed, 5)


def test_criterion_11_mutation_sensitivity():
    start = time.monotonic()
    # (a) one mis-scaled tangent form
    arc, _ = corpus_system(5, 3)
    ts = build_tangent_system(arc)
    ts.fS = dict(ts.fS)
    ts.fS[(3,)] = form_scale(ts.gf, 2, ts.fS[(3,)])
    assert not verify_scaling_chain(ts).passed
    assert not verify_lemma_of_tangents(ts).passed

    # (b) one corrupted tensor entry outside the block-vanishing span
    arc, ts2, F = corpus_tensor(7, 4)
    gf = arc.gf
    pos = None
    for cand in range(len(dense(F))):
        delta = [0] * len(dense(F))
        delta[cand] = 1
        if not is_block_congruent(MultiForm(F.k, F.blocks, F.t, tuple(delta)), arc):
            pos = cand
            break
    assert pos is not None
    bad = list(dense(F))
    bad[pos] = gf.add(bad[pos], 1)
    report = verify_tensor_form(arc, ts2, MultiForm(F.k, F.blocks, F.t, tuple(bad)))
    assert not report.passed
    elapsed = time.monotonic() - start
    report_line("11 mutation-sensitivity", elapsed, 30)
