"""Equivariance oracles: the constructions commute with the action of
GL(k, q) on the arc and with rescaling its points, checked by building
each object twice, once for the arc and once for its image, and comparing
values."""

from functools import lru_cache
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from arcforms import linalg
from arcforms.field import make_field
from arcforms.geometry import Arc, normal_rational_curve
from arcforms.sbbt import build_sbbt, evaluate_G_batch
from arcforms.tangents import build_tangent_system

# (p, h, k): twisted cubics over GF(7), GF(8) and GF(9), the conic over GF(11)
NRCS = [(7, 1, 4), (2, 3, 4), (3, 2, 4), (11, 1, 3)]

# (p, h, k, dropped): the NRCs of PG(k-1, q), k = 3..5 and q = 4..11, with
# and without their last point (t = k - 2 + dropped), that are large
# enough for the scaling recursion (q + 1 - t >= k - 1)
FIELDS = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)]
TANGENT_ARCS = [
    (p, h, k, dropped)
    for (p, h), k, dropped in product(FIELDS, (3, 4, 5), (0, 1))
    if p**h + 1 - (k - 2 + dropped) >= k - 1
]


@lru_cache(maxsize=None)
def tangent_arc(p, h, k, dropped):
    """The NRC of PG(k-1, p^h) without its last `dropped` points, and its
    tangent system."""
    gf = make_field(p, h)
    nrc = normal_rational_curve(gf, k)
    arc = Arc(gf, k, nrc.points[: nrc.n - dropped])
    return arc, build_tangent_system(arc)


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


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(TANGENT_ARCS), st.data())
def test_g_table_of_the_image_arc_is_unchanged(case, data):
    # rule 1: the scaled tangent system of A·arc, for A in GL(k, q), has
    # the same g on every ordered (k-1)-tuple of arc indices
    arc, ts = tangent_arc(*case)
    gf, k = arc.gf, arc.k
    A = data.draw(invertible(gf, k), label="A")
    image = Arc(gf, k, tuple(tuple(linalg.mat_vec(gf, A, x)) for x in arc.points))
    assert build_tangent_system(image).g_table == ts.g_table


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(TANGENT_ARCS), st.data())
def test_rescaling_a_point_scales_g_by_a_power(case, data):
    # rule 3: x_i -> λ·x_i multiplies g(T) by λ^(t·([i ∈ T] − [i ∈ B])) on
    # every ordered (k-1)-tuple T, B = {0, ..., k-2}; the power is taken
    # here by repeated gf.mul, of λ or of its inverse
    arc, ts = tangent_arc(*case)
    gf, k, t = arc.gf, arc.k, arc.t
    i = data.draw(st.integers(0, arc.n - 1), label="i")
    lam = data.draw(st.integers(1, gf.q - 1), label="lambda")
    points = list(arc.points)
    points[i] = tuple(gf.mul(lam, c) for c in points[i])
    factor = {}
    for e in (-t, 0, t):
        factor[e] = 1
        for _ in range(abs(e)):
            factor[e] = gf.mul(factor[e], lam if e > 0 else gf.inv(lam))
    tuples = product(range(arc.n), repeat=k - 1)
    want = [gf.mul(factor[t * ((i in T) - (i < k - 1))], g) for T, g in zip(tuples, ts.g_table)]
    assert build_tangent_system(Arc(gf, k, tuple(points))).g_table == want
