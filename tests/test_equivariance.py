"""Equivariance oracles: the constructions commute with the action of
GL(k, q) on the arc, checked by building each object twice, once for the
arc and once for its image, and comparing values."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from arcforms import linalg
from arcforms.field import make_field
from arcforms.geometry import Arc, normal_rational_curve
from arcforms.sbbt import build_sbbt, evaluate_G_batch
from arcforms.tangents import build_tangent_system

# (p, h, k): twisted cubics over GF(7), GF(8) and GF(9), the conic over GF(11)
NRCS = [(7, 1, 4), (2, 3, 4), (3, 2, 4), (11, 1, 3)]


@lru_cache(maxsize=None)
def dual_form(gf, points):
    arc = Arc(gf, len(points[0]), points)
    return build_sbbt(arc, build_tangent_system(arc))


@st.composite
def invertible(draw, gf, k):
    """P·L·U: a row permutation, a unit lower and an invertible upper
    triangular matrix, so every matrix of GL(k, q) can be drawn."""
    element, unit = st.integers(0, gf.q - 1), st.integers(1, gf.q - 1)
    L = [[draw(element) if j < i else int(i == j) for j in range(k)] for i in range(k)]
    U = [[draw(unit) if i == j else draw(element) if j > i else 0 for j in range(k)] for i in range(k)]
    perm = draw(st.permutations(range(k)))
    return linalg.mat_mul(gf, [L[i] for i in perm], U)


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.sampled_from(NRCS), st.data())
def test_dual_form_of_the_image_arc_is_G_moved_along(case, data):
    # G'(A·y) = G(y) for G' the dual form of A·arc, at random row sets y,
    # zero and repeated rows included; both through the batched G
    p, h, k = case
    gf = make_field(p, h)
    arc = normal_rational_curve(gf, k)
    A = data.draw(invertible(gf, k), label="A")
    image = tuple(tuple(linalg.mat_vec(gf, A, x)) for x in arc.points)
    row = st.lists(st.integers(0, gf.q - 1), min_size=k, max_size=k)
    sets = data.draw(st.lists(st.lists(row, min_size=k - 1, max_size=k - 1), min_size=1, max_size=12))
    moved = [[linalg.mat_vec(gf, A, y) for y in rows] for rows in sets]
    assert evaluate_G_batch(gf, dual_form(gf, image), moved) == evaluate_G_batch(gf, dual_form(gf, arc.points), sets)
