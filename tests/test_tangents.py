import itertools
import math
import random
import time

import pytest

from arcforms import linalg
from arcforms.field import GF, make_field
from arcforms.forms import evaluate, form_to_json, product_linear_forms
from arcforms.geometry import Arc, hyperoval, normal_rational_curve, normalize, projective_points
from arcforms.report import Report
from arcforms.sbbt import build_sbbt, evaluate_G_batch, verify_sbbt
from arcforms.tangents import (
    TangentCountError,
    TangentSystem,
    build_tangent_system,
    perm_parity,
    repeat_positions,
    scaling_rule,
    signed_table,
    tangent_hyperplanes,
    tuple_at,
    tuple_position,
    tuple_positions,
    verify_lemma_of_tangents,
    verify_scaling_chain,
    verify_tangent_counts,
)
from arcforms.tensorform import build_tensor_form, evaluation_table, verify_tensor_form

from conftest import CORPUS, corpus_arc, corpus_system, field, form_scale, g_value, glynn_arc, rank, zero_form


def conic_tangent_oracle(gf, s):
    """Gradient of X1*X3 - X2^2 at (1, s, s^2): the classical tangent line."""
    return normalize(gf, (gf.mul(s, s), gf.neg(gf.add(s, s)), 1))


def hyperplane_incidences(arc):
    """Independent oracle: every hyperplane of the space with the set of
    arc indices on it."""
    gf = arc.gf
    return {
        ell: {i for i, p in enumerate(arc.points) if linalg.dot(gf, ell, p) == 0}
        for ell in projective_points(gf, arc.k)
    }


def sweep_arcs():
    """Every corpus arc, Glynn's arc, a point-deleted NRC and seeded random
    point sets (mostly not arcs, some with a repeated point)."""
    arcs = [corpus_arc(q, k) for q, _, _, k in CORPUS] + [glynn_arc()]
    nrc = corpus_arc(8, 4)
    arcs.append(Arc(nrc.gf, 4, nrc.points[:3] + nrc.points[4:]))
    rng = random.Random(11)
    for q, k in [(5, 3), (7, 3), (4, 3), (5, 4), (7, 4), (8, 4)] * 2:
        gf, n, pts = field(q), rng.randrange(k, q + k - 1), []  # t >= 1
        while len(pts) < n:
            p = tuple(rng.randrange(q) for _ in range(k))
            if any(p):
                pts.append(p)
        if rng.random() < 0.5:  # a scaled copy of a point: a dependent span
            pts[-1] = tuple(gf.mul(q - 1, c) for c in pts[0])
        arcs.append(Arc(gf, k, tuple(pts)))
    return arcs


def test_conic_tangent_matches_gradient():
    gf = field(5)
    arc = corpus_arc(5, 3)
    # arc point (1,1,1) is index 1 (s = 1)
    duals = tangent_hyperplanes(arc, (1,))
    assert len(duals) == 1
    assert tuple(duals[0]) == conic_tangent_oracle(gf, 1) == (1, 3, 1)
    # tangent at the point at infinity is X1 = 0
    duals_inf = tangent_hyperplanes(arc, (arc.n - 1,))
    assert normalize(gf, duals_inf[0]) == (1, 0, 0)


@pytest.mark.parametrize("q", [4, 5, 7])
def test_conic_tangents_all_points_vs_gradient(q):
    arc = corpus_arc(q, 3)
    gf = arc.gf
    for i in range(q):  # finite points (1, s, s^2)
        duals = tangent_hyperplanes(arc, (i,))
        assert len(duals) == 1
        assert normalize(gf, duals[0]) == conic_tangent_oracle(gf, i)


def test_tangents_match_brute_force_sweep():
    for arc in sweep_arcs():
        on = hyperplane_incidences(arc)
        for subset in itertools.combinations(range(arc.n), arc.k - 2):
            if rank(arc.gf, [arc.points[i] for i in subset]) < arc.k - 2:
                with pytest.raises(ValueError, match="linearly dependent"):
                    tangent_hyperplanes(arc, subset)
                continue
            slow = {ell for ell, pts in on.items() if pts == set(subset)}
            if len(slow) == arc.t:
                assert set(tangent_hyperplanes(arc, subset)) == slow
            else:
                with pytest.raises(TangentCountError, match=f": {len(slow)} tangent hyperplanes"):
                    tangent_hyperplanes(arc, subset)


def test_tangent_hyperplanes_dot_count(monkeypatch):
    # one nullspace, then u·x and v·x for every arc point off the arc's
    # point_map, with no dot product
    calls = []
    dot = linalg.dot
    monkeypatch.setattr(linalg, "dot", lambda *a: calls.append(1) or dot(*a))
    for arc in (corpus_arc(9, 3), corpus_arc(8, 4), glynn_arc()):
        for subset in itertools.combinations(range(arc.n), arc.k - 2):
            tangent_hyperplanes(arc, subset)
    assert calls == []


def test_one_point_map_serves_a_whole_tangent_system_build(monkeypatch):
    # every pencil is read off the arc's point_map: one k x n vec_mat map
    # per Arc, called twice per (k-2)-subset, and kept for later sweeps
    built, calls, vec_mat = [], [], GF.vec_mat

    def counted_vec_mat(gf, matrix):
        combine = vec_mat(gf, matrix)
        built.append((len(matrix), len(matrix[0])))
        return lambda v: calls.append(1) or combine(v)
    monkeypatch.setattr(GF, "vec_mat", counted_vec_mat)
    for p, h, k in [(7, 1, 4), (3, 2, 3), (2, 4, 4)]:
        arc = normal_rational_curve(make_field(p, h), k)  # a fresh Arc, no map yet
        built.clear(), calls.clear()
        build_tangent_system(arc)
        assert built == [(k, arc.n)] and len(calls) == 2 * math.comb(arc.n, k - 2), (p, h, k)
        verify_tangent_counts(arc)
        assert built == [(k, arc.n)]


def test_tangent_hyperplanes_rejects_dependent_span(gf5):
    arc = Arc(gf5, 4, ((1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="span points are linearly dependent"):
        tangent_hyperplanes(arc, (0, 1))


def test_tangent_hyperplanes_refuses_oversized_forms():
    # e1, e2, e3, (1, 1, 1) has t = q - 2: over GF(1009) a tangent form
    # would have C(1009, 2) = 508,536 coefficients
    gf = make_field(1009)
    arc = Arc(gf, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    start = time.monotonic()
    with pytest.raises(ValueError, match="508536 coefficients > 250000"):
        tangent_hyperplanes(arc, (0,))
    assert time.monotonic() - start < 1


def test_twisted_cubic_tangent_count():
    arc = corpus_arc(7, 4)
    for subset in itertools.combinations(range(arc.n), 2):
        assert len(tangent_hyperplanes(arc, subset)) == 2


def test_tangent_rejects_t_zero():
    hv = hyperoval(field(4))
    with pytest.raises(ValueError):
        tangent_hyperplanes(hv, (0,))
    with pytest.raises(ValueError):
        build_tangent_system(hv)


def test_tangent_count_mismatch_on_corrupted_data():
    gf = field(5)
    # not an arc: (1,1,0) is collinear with the first two points, so the
    # derived t does not match the actual tangency pattern
    bad = Arc(gf, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)))
    with pytest.raises(TangentCountError):
        tangent_hyperplanes(bad, (0,))


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_tangent_counts_corpus(q, p, h, k):
    report = verify_tangent_counts(corpus_arc(q, k))
    assert report.passed


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_scaling_chain_replay(q, p, h, k):
    arc, ts = corpus_system(q, k)
    assert len(ts.fS) == len(list(itertools.combinations(range(arc.n), k - 2)))
    report = verify_scaling_chain(ts)
    assert report.passed
    assert ts.eval_fS(ts.E, ts.anchor) == 1


SCALED_PRODUCT_ARCS = {
    **{f"q{q}-k{k}": lambda q=q, k=k: corpus_arc(q, k) for q, _, _, k in CORPUS},
    "glynn": glynn_arc,
    "gf9-t5": lambda: Arc(field(9), 4, corpus_arc(9, 4).points[:7]),
}


@pytest.mark.parametrize("make_arc", SCALED_PRODUCT_ARCS.values(), ids=SCALED_PRODUCT_ARCS)
def test_built_forms_equal_the_scaled_product(make_arc):
    # the oracle scales the whole product: f_S = target / p_S(x_e) · p_S
    # for p_S the product of S's tangent hyperplanes
    arc = make_arc()
    gf, ts = arc.gf, build_tangent_system(arc)
    for S, f in ts.fS.items():
        if S == ts.E:
            e, target = ts.anchor, 1
        else:
            e, a, parent, sign = scaling_rule(ts, S)
            target = gf.mul(sign, ts.eval_fS(parent, a))
        p_S = product_linear_forms(gf, arc.k, [tangent_hyperplanes(arc, S)])[0]
        assert f == form_scale(gf, gf.div(target, evaluate(gf, p_S, arc.points[e])), p_S), S


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_lemma_of_tangents_corpus(q, p, h, k):
    _, ts = corpus_system(q, k)
    report = verify_lemma_of_tangents(ts)
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]


def test_conic_g_symmetric():
    # t = 1 makes t+1 even: swapping the two slots never changes g
    _, ts = corpus_system(5, 3)
    n = ts.arc.n
    for a, b in itertools.permutations(range(n), 2):
        assert g_value(ts, (a, b)) == g_value(ts, (b, a))


def test_even_q_signs_collapse():
    _, ts = corpus_system(8, 4)
    for tup in itertools.permutations(range(4), 3):
        for sigma in itertools.permutations(range(3)):
            permuted = tuple(tup[sigma[i]] for i in range(3))
            assert g_value(ts, permuted) == g_value(ts, tup)


def test_g_examples():
    arc, ts = corpus_system(7, 4)
    gf = ts.gf
    assert g_value(ts, (2, 2, 5)) == 0
    S = (1, 3)
    a = 5
    assert g_value(ts, S + (a,)) == ts.eval_fS(S, a)
    # unsorted prefix picks up the sign (-1)^(t+1), t = 2 here
    assert g_value(ts, (3, 1, a)) == gf.neg(ts.eval_fS(S, a))
    with pytest.raises(IndexError):
        g_value(ts, (0, 1, 99))
    with pytest.raises(ValueError):
        g_value(ts, (0, 1))


def test_g_nonzero_off_subset():
    for q, k in [(5, 3), (7, 4)]:
        arc, ts = corpus_system(q, k)
        for S in itertools.combinations(range(arc.n), k - 2):
            for x in range(arc.n):
                if x in S:
                    assert ts.eval_fS(S, x) == 0
                else:
                    assert ts.eval_fS(S, x) != 0


def test_perm_parity():
    assert perm_parity((0, 1, 2)) == 0
    assert perm_parity((1, 0, 2)) == 1
    assert perm_parity((2, 0, 1)) == 0
    assert perm_parity((5, 2)) == 1


def test_scaling_rule_structure():
    arc, ts = corpus_system(7, 4)
    # E = (0, 1); subset (0, 3): e = 1, a = 3, parent = (0, 1)
    e, a, parent, sign = scaling_rule(ts, (0, 3))
    assert (e, a, parent) == (1, 3, (0, 1))
    # subset (3, 5): e = 0, a = 5, parent = (0, 3)
    e, a, parent, _ = scaling_rule(ts, (3, 5))
    assert (e, a, parent) == (0, 5, (0, 3))


def test_mis_scaled_system_is_caught():
    arc, _ = corpus_system(5, 3)
    ts = build_tangent_system(arc)  # fresh, mutable copy
    victim = (3,)
    ts.fS = dict(ts.fS)
    ts.fS[victim] = form_scale(ts.gf, 2, ts.fS[victim])
    chain = verify_scaling_chain(ts)
    assert not chain.passed
    lemma = verify_lemma_of_tangents(ts)
    # both the exhaustive swaps and the random permutations see it
    assert {c.name: c.failed for c in lemma.checks} == {
        "adjacent-transpositions": 10,
        "random-permutations": 12,
    }


def test_mis_scaled_base_is_caught():
    arc, _ = corpus_system(7, 3)
    ts = build_tangent_system(arc)
    ts.fS = dict(ts.fS)
    ts.fS[ts.E] = form_scale(ts.gf, 3, ts.fS[ts.E])
    report = verify_scaling_chain(ts)
    assert not report.passed  # base normalization breaks


def test_build_precondition_small_arc():
    # size-4 arc in PG(3,4): q+1-t = 5-4 < 3 = k-1
    gf = make_field(2, 2)
    pts = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    arc = Arc(gf, 4, pts)
    assert arc.t == 4 - 1  # q + k - 1 - n = 4 + 3 - 4
    with pytest.raises(ValueError):
        build_tangent_system(arc)


def test_tangent_system_json_roundtrip():
    arc, ts = corpus_system(5, 3)
    blob = ts.to_json()
    again = TangentSystem.from_json(arc, blob)
    assert again.E == ts.E and again.anchor == ts.anchor
    assert again.fS == ts.fS
    assert again.to_json() == blob


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_eval_fS_matches_direct_evaluation(q, p, h, k):
    arc = corpus_arc(q, k)
    ts = build_tangent_system(arc)  # fresh, mutable copy
    gf = arc.gf
    subsets = list(itertools.combinations(range(arc.n), k - 2))
    for S in subsets:
        for j, x in enumerate(arc.points):
            assert ts.eval_fS(S, j) == evaluate(gf, ts.form(S), x), (S, j)
    # the cached point vectors do not depend on the forms
    ts.fS = dict(ts.fS)
    for S in subsets:
        ts.fS[S] = form_scale(gf, 2, ts.fS[S])
    for S in subsets:
        for j, x in enumerate(arc.points):
            assert ts.eval_fS(S, j) == evaluate(gf, ts.form(S), x), (S, j)


@pytest.mark.parametrize(
    "q,k,entry",
    [
        (5, 3, {"S": [0], "form": zero_form(3, 2)}),  # degree t + 1
        (5, 3, {"S": [0], "form": zero_form(4, 1)}),  # k + 1 variables
        (5, 3, {"S": [6], "form": zero_form(3, 1)}),  # index out of range
        (5, 3, {"S": [True], "form": zero_form(3, 1)}),  # not an int
        (7, 4, {"S": [3, 1], "form": zero_form(4, 2)}),  # not sorted
        (7, 4, {"S": [1, 1], "form": zero_form(4, 2)}),  # repeated index
        (7, 4, {"S": [1], "form": zero_form(4, 2)}),  # not k - 2 indices
    ],
    ids=["degree", "variables", "range", "bool", "unsorted", "repeat", "size"],
)
def test_tangent_system_from_json_rejects_malformed_entries(q, k, entry):
    arc, ts = corpus_system(q, k)
    blob = ts.to_json()
    blob["fS"][0] = {"S": entry["S"], "form": form_to_json(arc.gf, entry["form"])}
    with pytest.raises(ValueError):
        TangentSystem.from_json(arc, blob)


def test_tuple_index_helpers():
    for n, m in [(1, 1), (4, 1), (5, 2), (4, 3), (3, 3), (2, 3), (5, 4)]:
        tuples = list(itertools.product(range(n), repeat=m))
        for pos, tup in enumerate(tuples):
            assert tuple_position(tup, n) == pos and tuple_at(pos, n, m) == list(tup)
        for order in itertools.permutations(range(m)):
            assert tuple_positions(n, range(n), order) == [
                tuple_position([tup[s] for s in order], n) for tup in tuples
            ]
        points = [n - 1, 0] if n > 1 else [0]  # not range(n), and out of order
        assert tuple_positions(n, points, range(m)) == [
            tuple_position(tup, n) for tup in itertools.product(points, repeat=m)
        ]



def test_repeat_positions_are_the_tuples_with_a_repeated_index():
    # the old per-tuple set filter is the oracle; m = 1 has no repeats
    for n in range(1, 7):
        for m in range(1, 5):
            got = repeat_positions(n, m)
            tuples = itertools.product(range(n), repeat=m)
            assert got == [pos for pos, a in enumerate(tuples) if len(set(a)) < m], (n, m)
            assert len(got) == n**m - math.perm(n, m), (n, m)
    assert repeat_positions(5, 1) == []


def test_g_table_is_g_value_on_every_tuple():
    for arc in [corpus_arc(q, k) for q, _, _, k in CORPUS] + [glynn_arc()]:
        ts = build_tangent_system(arc)
        tuples = itertools.product(range(arc.n), repeat=arc.k - 1)
        assert ts.g_table == [g_value(ts, tup) for tup in tuples]


@pytest.mark.parametrize("power", [1, 2])
def test_signed_table_matches_parity_oracle(power):
    # random rows, nonzero on S too: the row of the sorted prefix at the
    # last index, times (-1)^(parity(prefix) * power), and 0 on a prefix
    # with a repeat; every arc is over an odd field, so a sign shows
    rng = random.Random(power)
    for arc in [corpus_arc(7, 3), corpus_arc(7, 4), glynn_arc()]:
        gf, n = arc.gf, arc.n
        subsets = list(itertools.combinations(range(n), arc.k - 2))
        rows = {S: [rng.randrange(1, gf.q) for _ in range(n)] for S in subsets}
        want = []
        for tup in itertools.product(range(n), repeat=arc.k - 1):
            prefix = tup[:-1]
            if len(set(prefix)) < len(prefix):
                want.append(0)
                continue
            value = rows[tuple(sorted(prefix))][tup[-1]]
            want.append(gf.neg(value) if perm_parity(prefix) * power % 2 else value)
        assert signed_table(arc, [rows[S] for S in subsets], power) == want


def per_tuple_sweeps(arc, ts, F, sb, seed=0, random_trials=100):
    """The tuple sweeps recomputed one ordered tuple at a time from
    g_value, eval_fS, perm_parity and evaluate_G_batch, as
    [(name, total, failed, witnesses)] in report order."""
    gf, n, m = arc.gf, arc.n, arc.k - 1
    out = []

    def check(name, results):
        bad = [w for ok, w in results if not ok]
        out.append((name, len(results), len(bad), bad[:10]))

    def sign(parity):
        return gf.neg(1) if parity and arc.t % 2 == 0 else 1

    tuples = list(itertools.product(range(n), repeat=m))
    position = {tup: pos for pos, tup in enumerate(tuples)}
    table = evaluation_table(gf, F, arc.points)
    check("matches-signed-tangent-evaluations", [
        (table[pos] == g_value(ts, tup), {"tuple": list(tup), "got": table[pos]})
        for pos, tup in enumerate(tuples)
    ])
    check("partial-eval-is-tangent-form-mod-vanishing", [
        (all(table[position[S + (j,)]] == ts.eval_fS(S, j) for j in range(n)), {"S": list(S)})
        for S in itertools.combinations(range(n), m - 1)
    ])
    check("repeated-points-vanish", [
        (not any(table[pos * n : (pos + 1) * n]), {"prefix": list(prefix)})
        for pos, prefix in enumerate(itertools.product(range(n), repeat=m - 1))
        if len(set(prefix)) < len(prefix)
    ] + [
        (table[pos] == 0, {"tuple": list(tup)})
        for pos, tup in enumerate(tuples) if len(set(tup)) < m
    ])
    results = []
    for sigma in itertools.permutations(range(m)):
        if sigma != tuple(range(m)):
            s = sign(perm_parity(sigma))
            ok = all(
                table[position[tuple(tup[i] for i in sigma)]] == gf.mul(s, table[pos])
                for pos, tup in enumerate(tuples)
            )
            results.append((ok, {"sigma": list(sigma)}))
    check("block-permutation-antisymmetry", results)

    g = {tup: g_value(ts, tup) for tup in itertools.permutations(range(n), m)}
    results = []
    for tup in g:
        for i in range(m - 1):
            other = g[tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2 :]]
            results.append((other == gf.mul(sign(1), g[tup]), {"tuple": list(tup), "swap": i, "got": other}))
    check("adjacent-transpositions", results)
    rng, results = random.Random(seed), []
    subsets, perms = list(itertools.combinations(range(n), m)), list(itertools.permutations(range(m)))
    for _ in range(random_trials):
        T, sigma = rng.choice(subsets), rng.choice(perms)
        permuted = tuple(T[s] for s in sigma)
        want = gf.mul(sign(perm_parity(sigma)), g_value(ts, T))
        results.append((g_value(ts, permuted) == want, {"tuple": list(T), "sigma": list(sigma)}))
    check("random-permutations", results)

    if sb is not None:
        # G once per sorted subset: permuting the rows by sigma scales G by
        # sgn(sigma)^deg(phi), and rows with a repeat give G = 0
        G = dict(zip(subsets, evaluate_G_batch(gf, sb, [[arc.points[i] for i in T] for T in subsets])))
        flip = gf.pow(gf.neg(1), sb.phi.t)
        results = []
        for tup in tuples:
            value = G.get(tuple(sorted(tup)), 0)
            if perm_parity(tup):
                value = gf.mul(flip, value)
            results.append((value == gf.pow(g_value(ts, tup), sb.m), {"tuple": list(tup)}))
        check("agrees-with-signed-evaluations-powered", results)
    return out


def test_tuple_sweeps_match_per_tuple_oracle():
    # every corpus arc and Glynn's arc with its own system, and every corpus
    # arc with that system scaled by 2 at its last subset.  F and phi (where
    # the arc is large enough for phi) come from the arc's own system, so
    # the mis-scaled one fails every sweep.
    for arc in [corpus_arc(q, k) for q, _, _, k in CORPUS] + [glynn_arc()]:
        own = build_tangent_system(arc)
        F = build_tensor_form(arc, own)
        m = 1 if arc.gf.p == 2 else 2
        sb = build_sbbt(arc, own) if arc.n >= m * arc.t + arc.k - 1 else None
        systems = [own]
        if arc.k < 5:
            S = max(own.fS)
            systems.append(TangentSystem(arc, own.E, own.anchor, {**own.fS, S: form_scale(arc.gf, 2, own.fS[S])}))
        for ts in systems:
            report = Report("sweeps", {}, [])
            verify_tensor_form(arc, ts, F, report)
            verify_lemma_of_tangents(ts, report=report)
            if sb is not None:
                verify_sbbt(arc, ts, sb, report=report)
            got = {c.name: (c.name, c.total, c.failed, c.witnesses) for c in report.checks}
            want = per_tuple_sweeps(arc, ts, F, sb)
            assert [got[name] for name, *_ in want] == want, (arc.gf.q, arc.k, ts is own)
            assert (ts is own) == all(failed == 0 for _, _, failed, _ in want)
