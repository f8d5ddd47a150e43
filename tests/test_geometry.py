import itertools
import json

import pytest

from arcforms import linalg
from arcforms.field import make_field
from arcforms.geometry import (
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
    project,
    projective_points,
)

from conftest import CORPUS, corpus_arc, field


def test_normalize(gf5):
    assert normalize(gf5, (2, 4, 0)) == (1, 2, 0)
    assert normalize(gf5, (0, 3, 1)) == (0, 1, 2)
    with pytest.raises(ValueError):
        normalize(gf5, (0, 0, 0))


def test_projective_point_count(gf4):
    pts = list(projective_points(gf4, 3))
    assert len(pts) == (4**3 - 1) // 3
    assert len(set(pts)) == len(pts)


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
