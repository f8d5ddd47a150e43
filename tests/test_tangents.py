import itertools
import random

import pytest

from arcforms import linalg
from arcforms.field import make_field
from arcforms.forms import evaluate, form_scale, form_to_json, zero_form
from arcforms.geometry import Arc, hyperoval, normalize, projective_points
from arcforms.tangents import (
    TangentCountError,
    TangentSystem,
    build_tangent_system,
    g_value,
    perm_parity,
    scaling_rule,
    tangent_hyperplanes,
    verify_lemma_of_tangents,
    verify_scaling_chain,
    verify_tangent_counts,
)

from conftest import CORPUS, corpus_arc, corpus_system, field, glynn_arc


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
            if linalg.rank(arc.gf, [arc.points[i] for i in subset]) < arc.k - 2:
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
    # one nullspace, then the two dots u·x and v·x per arc point off the subset
    calls = []
    dot = linalg.dot
    monkeypatch.setattr(linalg, "dot", lambda *a: calls.append(1) or dot(*a))
    for arc in (corpus_arc(9, 3), corpus_arc(8, 4), glynn_arc()):
        for subset in itertools.combinations(range(arc.n), arc.k - 2):
            calls.clear()
            tangent_hyperplanes(arc, subset)
            assert len(calls) <= 2 * (arc.n - arc.k + 2)


def test_tangent_hyperplanes_rejects_dependent_span(gf5):
    arc = Arc(gf5, 4, ((1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="span points are linearly dependent"):
        tangent_hyperplanes(arc, (0, 1))


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
