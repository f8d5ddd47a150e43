import functools
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcforms import linalg
from arcforms.field import GF, make_field
from arcforms.geometry import (
    IN_SPAN,
    Arc,
    arc_from_points,
    check_arc,
    conic,
    hyperoval,
    is_arc,
    mds_check,
    mds_generator,
    normal_rational_curve,
    normalize,
    pencil_batch,
    project,
    projective_points,
)

from conftest import CORPUS, corpus_arc, field, glynn_arc, pencil_oracle
from test_field import KERNEL_FIELDS


def test_normalize(gf5):
    assert normalize(gf5, (2, 4, 0)) == (1, 2, 0)
    assert normalize(gf5, (0, 3, 1)) == (0, 1, 2)
    with pytest.raises(ValueError):
        normalize(gf5, (0, 0, 0))


def test_projective_point_count():
    # the definition: every vector whose first nonzero coordinate is 1, in
    # product order
    for q in (4, 5, 9):
        gf = field(q)
        for k in range(1, 5):
            pts = list(projective_points(gf, k))
            assert len(pts) == (q**k - 1) // (q - 1)
            assert pts == [
                v for v in itertools.product(gf.elements(), repeat=k)
                if next((c for c in v if c), None) == 1
            ]


def test_is_arc_vandermonde_plus_infinity():
    gf3 = make_field(3)
    pts = [(1, s, gf3.mul(s, s)) for s in range(3)] + [(0, 0, 1)]
    ok, witness = is_arc(gf3, 3, pts)
    assert ok and witness is None


def test_is_arc_rejects_repeated_point(gf5):
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)]
    ok, witness = is_arc(gf5, 3, pts)
    assert not ok and 0 in witness and 3 in witness


def test_is_arc_witness_is_first_offender(gf5):
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0)]
    ok, witness = is_arc(gf5, 3, pts)
    assert not ok
    assert witness == (0, 1, 4)  # (1,1,0) on the line through e1, e2


def test_is_arc_input_validation(gf5):
    with pytest.raises(ValueError):
        is_arc(gf5, 3, [(1, 0)])
    with pytest.raises(ValueError):
        is_arc(gf5, 3, [(0, 0, 0)])


def det_sweep(gf, k, points):
    """Oracle: one k x k elimination per k-subset, in combinations order."""
    for combo in itertools.combinations(range(len(points)), k):
        if linalg.det(gf, [points[i] for i in combo]) == 0:
            return False, combo
    return True, None


@st.composite
def point_lists(draw):
    """(q, k, points) over GF(5), GF(7), GF(8) or GF(9), k = 2..5: each point
    is random, a nonzero multiple of an earlier point, or a combination of
    up to k-1 earlier points, so dependent (k-2)-prefixes come up too."""
    q, k = draw(st.sampled_from((5, 7, 8, 9))), draw(st.integers(2, 5))
    gf, elem = field(q), st.integers(0, q - 1)
    points = []
    for _ in range(draw(st.integers(k - 1, k + 4))):
        kind = draw(st.sampled_from(("random", "repeat", "span"))) if points else "random"
        if kind == "random":
            x = draw(st.lists(elem, min_size=k, max_size=k))
        elif kind == "repeat":
            c, base = draw(st.integers(1, q - 1)), draw(st.sampled_from(points))
            x = [gf.mul(c, v) for v in base]
        else:
            x = [0] * k
            for base in draw(st.lists(st.sampled_from(points), min_size=1, max_size=k - 1)):
                c = draw(elem)
                x = [gf.add(v, gf.mul(c, b)) for v, b in zip(x, base)]
        points.append(tuple(x) if any(x) else (1,) + (0,) * (k - 1))
    return q, k, points


@settings(max_examples=200, deadline=None)
@given(point_lists())
@example((7, 4, [(1, 2, 3, 4), (2, 4, 6, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1)]))
@example((9, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                 (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, 2, 3, 4, 5)]))
@example((5, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (3, 3, 3)]))
@example((8, 2, [(1, 0), (0, 1), (1, 1), (2, 2)]))
@example((5, 1, [(1,), (3,), (4,)]))  # a projected line: every 1x1 minor is nonzero
def test_is_arc_matches_determinant_sweep(case):
    # the cofactor sweep gives the verdict and the first witness of one
    # elimination per k-subset: repeated points, points in the span of
    # earlier ones and dependent (k-2)-prefixes (the first example's
    # (0, 1), the second's (0, 1, 2)) included
    q, k, points = case
    assert is_arc(field(q), k, points) == det_sweep(field(q), k, points)


# With S = (0,), the points after it pick these members of S's pencil:
# x or y, or IN_SPAN for a point in the span of point 0.
PENCIL_CASES = {
    # (0, 1, 4), not (0, 2, 3): the in-span point comes after a same-member pair
    "in-span-after-a-pair": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (2, 0, 0)],
    # keys x, y, y, x: (0, 1, 4), not the inner pair (0, 2, 3)
    "nested-pairs": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0)],
    # keys x, y, x, y: (0, 1, 3)
    "crossed-pairs": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)],
}


@pytest.mark.parametrize("points", PENCIL_CASES.values(), ids=PENCIL_CASES)
def test_is_arc_witness_on_hand_built_pencils(gf5, points):
    assert is_arc(gf5, 3, points) == det_sweep(gf5, 3, points)
    assert not is_arc(gf5, 3, points)[0]


def test_is_arc_dot_count(monkeypatch):
    # no dots: the pencil batch's two vec_mat maps, over the k coordinates
    # of every u and of every -v, each called once per point
    calls, maps = [], []
    dot, vec_mat = linalg.dot, GF.vec_mat
    monkeypatch.setattr(linalg, "dot", lambda *a: calls.append(1) or dot(*a))

    def counted_vec_mat(gf, matrix):
        combine, uses = vec_mat(gf, matrix), []
        maps.append(uses)
        return lambda v: uses.append(1) or combine(v)
    monkeypatch.setattr(GF, "vec_mat", counted_vec_mat)
    for arc in [conic(make_field(31)), *(corpus_arc(q, k) for q, _, _, k in CORPUS)]:
        calls.clear(), maps.clear()
        assert is_arc(arc.gf, arc.k, arc.points) == (True, None)
        assert calls == [] and [len(uses) for uses in maps] == [arc.n, arc.n]


def test_pencil_keys_match_two_scalar_dots():
    # on every S of the corpus, a GF(2^4) arc and Glynn's arc, with
    # x_0 + ... + x_{k-3} and x_0 appended, both in the span of the first
    # S, (0, ..., k-3); S's own points are IN_SPAN too, and for k > 3 the
    # repeated x_0 makes some S dependent
    arcs = [corpus_arc(q, k) for q, _, _, k in CORPUS]
    for arc in arcs + [normal_rational_curve(make_field(2, 4), 4), glynn_arc()]:
        gf, k = arc.gf, arc.k
        span = functools.reduce(lambda x, y: tuple(map(gf.add, x, y)), arc.points[: k - 2])
        points = [*arc.points, span, arc.points[0]]
        pencils = pencil_batch(gf, k, points)
        assert pencils == pencil_oracle(gf, k, points), (gf, k)
        for S in itertools.combinations(range(arc.n), k - 2):
            assert [pencils[S][2][i] for i in S] == [IN_SPAN] * (k - 2)
        assert pencils[tuple(range(k - 2))][2][-2:] == [IN_SPAN] * 2
        assert (None in pencils.values()) == (k > 3)


@st.composite
def kernel_point_lists(draw):
    """(gf, k, points) over a KERNEL_FIELDS field, k = 2..5: each point is
    random with zero coordinates, a nonzero multiple of an earlier point
    or a combination of up to k-2 earlier ones, so repeated points,
    points in a subset's span and dependent subsets come up."""
    p, h = draw(st.sampled_from(KERNEL_FIELDS))
    gf, k = make_field(p, h), draw(st.integers(2, 5))
    elem = st.one_of(st.integers(0, min(gf.q - 1, 3)), st.integers(0, gf.q - 1))
    points = []
    for _ in range(draw(st.integers(1, k + 3))):
        kind = draw(st.sampled_from(("random", "repeat", "span"))) if points else "random"
        if kind == "random":
            x = draw(st.lists(elem, min_size=k, max_size=k))
        elif kind == "repeat":
            c, base = draw(st.integers(1, gf.q - 1)), draw(st.sampled_from(points))
            x = [gf.mul(c, v) for v in base]
        else:
            x = [0] * k
            for base in draw(st.lists(st.sampled_from(points), min_size=1, max_size=max(k - 2, 1))):
                c = draw(elem)
                x = [gf.add(v, gf.mul(c, b)) for v, b in zip(x, base)]
        points.append(tuple(x) if any(x) else (1,) + (0,) * (k - 1))
    return gf, k, points


@settings(max_examples=150, deadline=None)
@given(kernel_point_lists())
def test_pencil_batch_matches_nullspace_and_scalar_dots(case):
    # (u, v) equal nullspace's reduced basis, the keys the scalar-dot keys,
    # and a dependent subset is None, on which pencil_at raises
    gf, k, points = case
    pencils, arc = pencil_batch(gf, k, points), Arc(gf, k, tuple(points))
    assert pencils == pencil_oracle(gf, k, points)
    for S, pencil in pencils.items():
        if pencil is None:
            with pytest.raises(ValueError, match="^span points are linearly dependent$"):
                arc.pencil_at(S)
        else:
            assert arc.pencil_at(S) == pencil


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_normal_rational_curves_are_arcs(q, p, h, k):
    arc = corpus_arc(q, k)
    assert arc.n == q + 1
    assert arc.t == q + k - 1 - (q + 1) == k - 2
    check_arc(arc)


def test_nrc_sizes_and_t():
    assert conic(field(5)).t == 1
    tc = normal_rational_curve(field(7), 4)
    assert tc.n == 8 and tc.t == 2
    assert conic(field(4)).n == 5


def test_nrc_rejects_k_too_large():
    with pytest.raises(ValueError):
        normal_rational_curve(make_field(3), 5)


def test_hyperoval_is_arc_with_t_zero():
    for q in (4, 8):
        hv = hyperoval(field(q))
        assert hv.n == q + 2 and hv.t == 0
        check_arc(hv)
    with pytest.raises(ValueError):
        hyperoval(field(5))


def test_project_twisted_cubic_from_infinity():
    arc = corpus_arc(5, 4)
    img = project(arc, arc.n - 1)  # centre (0,0,0,1)
    assert img.k == 3 and img.n == 5
    assert img.t == arc.t == 2
    ok, _ = is_arc(img.gf, 3, img.points)
    assert ok
    # dropping the last coordinate of (1,s,s^2,s^3) leaves the conic points
    assert img.points == tuple(p[:3] for p in arc.points[:-1])


def test_project_conic_from_conic_point():
    arc = corpus_arc(7, 3)
    img = project(arc, 0)
    assert img.k == 2 and img.n == 7
    ok, _ = is_arc(img.gf, 2, img.points)
    assert ok  # distinct points of the projective line


def test_project_refuses_an_arc_of_the_line():
    # the projected conic is an arc of PG(1, 7); its image would have k = 1
    line = project(corpus_arc(7, 3), 0)
    for idx in (0, line.n - 1, line.n):
        with pytest.raises(ValueError, match="k >= 3"):
            project(line, idx)


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_project_preserves_t_and_archood_all_centres(q, p, h, k):
    arc = corpus_arc(q, k)
    for idx in range(arc.n):
        img = project(arc, idx)
        assert img.t == arc.t
        ok, witness = is_arc(img.gf, img.k, img.points)
        assert ok, (idx, witness)


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_hyperplane_pencils_on_corpus(q, p, h, k):
    # the q+1 hyperplanes through k-2 arc points form a pencil, and every
    # other arc point lies on exactly one of them
    arc = corpus_arc(q, k)
    gf = arc.gf
    on = [
        {i for i, x in enumerate(arc.points) if linalg.dot(gf, ell, x) == 0}
        for ell in projective_points(gf, k)
    ]
    for S in itertools.combinations(range(arc.n), k - 2):
        pencil = [pts for pts in on if pts >= set(S)]
        assert len(pencil) == q + 1
        for i in set(range(arc.n)) - set(S):
            assert sum(i in pts for pts in pencil) == 1


def test_project_index_range(gf5):
    with pytest.raises(IndexError):
        project(corpus_arc(5, 3), 99)


def test_mds_examples():
    arc = corpus_arc(7, 4)
    ok, gen, witness = mds_check(arc)
    assert ok and witness is None
    assert len(gen) == 4 and len(gen[0]) == arc.n
    # trivial [k, k] code
    gf = field(5)
    frame = arc_from_points(gf, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert mds_check(frame)[0]


def test_mds_detects_forged_point(gf5):
    arc = corpus_arc(5, 3)
    forged = Arc(gf5, 3, arc.points[:-1] + ((1, 1, 0),))
    # (1,1,0) lies on the chord through the points s=3 and s=4
    ok, gen, witness = mds_check(forged)
    assert not ok
    assert (ok, witness) == is_arc(gf5, 3, forged.points)
    minor = [[gen[r][c] for c in witness] for r in range(3)]
    assert linalg.det(gf5, minor) == 0


def test_mds_agrees_with_is_arc_on_corpus():
    for q, p, h, k in CORPUS:
        arc = corpus_arc(q, k)
        assert mds_check(arc)[0] == is_arc(arc.gf, k, arc.points)[0]


def test_rescaling_representative_changes_nothing(gf7):
    arc = corpus_arc(7, 3)
    scaled_pts = list(arc.points)
    scaled_pts[2] = tuple(gf7.mul(3, c) for c in scaled_pts[2])
    scaled = Arc(gf7, 3, tuple(scaled_pts))
    assert is_arc(gf7, 3, scaled.points)[0]
    assert mds_check(scaled)[0]


def test_generator_columns_are_representatives():
    arc = corpus_arc(5, 3)
    gen = mds_generator(arc)
    for i, p in enumerate(arc.points):
        assert tuple(gen[r][i] for r in range(3)) == p


def test_arc_json_roundtrip_byte_stable():
    for q, k in [(5, 3), (4, 3), (7, 4)]:
        arc = corpus_arc(q, k)
        blob = json.dumps(arc.to_json(), indent=2)
        again = Arc.from_json(json.loads(blob))
        assert again == arc
        assert json.dumps(again.to_json(), indent=2) == blob


def test_arc_from_points_validates(gf5):
    with pytest.raises(ValueError):
        arc_from_points(gf5, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        arc_from_points(gf5, 3, [(1, 0, 0), (0, 1, 0)])  # fewer than k
