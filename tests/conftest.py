"""Shared corpus fixtures: reference arcs and their derived systems.

Builds are cached per session because several test modules sweep the same
arcs; everything returned is treated as immutable by the tests.
"""

from functools import lru_cache

import pytest

from arcforms.field import make_field
from arcforms.geometry import Arc, normal_rational_curve
from arcforms.tangents import build_tangent_system
from arcforms.tensorform import build_tensor_form

# (q, p, h, k): conics over q in {4,5,7,8,9}, twisted cubics over {5,7,8}
CONIC_FIELDS = [(4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2)]
CUBIC_FIELDS = [(5, 5, 1), (7, 7, 1), (8, 2, 3)]

CORPUS = [(q, p, h, 3) for q, p, h in CONIC_FIELDS] + [
    (q, p, h, 4) for q, p, h in CUBIC_FIELDS
]


@lru_cache(maxsize=None)
def field(q):
    p, h = next((p, h) for qq, p, h in set(CONIC_FIELDS + CUBIC_FIELDS) if qq == q)
    return make_field(p, h)


@lru_cache(maxsize=None)
def corpus_arc(q, k):
    return normal_rational_curve(field(q), k)


@lru_cache(maxsize=None)
def corpus_system(q, k):
    arc = corpus_arc(q, k)
    return arc, build_tangent_system(arc)


@lru_cache(maxsize=None)
def corpus_tensor(q, k):
    arc, ts = corpus_system(q, k)
    return arc, ts, build_tensor_form(arc, ts)


@lru_cache(maxsize=None)
def glynn_arc():
    """Glynn's 10-arc of PG(4, 9): (1, s, s^2 + eta s^6, s^3, s^4) for s in
    GF(9), plus (0, 0, 0, 0, 1).  It needs eta^4 = -1; eta = 3, the
    adjoined root, is the smallest such element."""
    gf, eta = field(9), 3
    pts = [
        (1, s, gf.add(gf.pow(s, 2), gf.mul(eta, gf.pow(s, 6))), gf.pow(s, 3), gf.pow(s, 4))
        for s in gf.elements()
    ]
    return Arc(gf, 5, tuple(pts) + ((0, 0, 0, 0, 1),))


class CountingField:
    """Delegates the vector kernels dot, convolve and vec_mat to a field and
    counts their calls, and the calls of each map vec_mat returns in
    combine_calls; it has no scalar add or mul, so code that called them
    would fail."""

    def __init__(self, gf):
        self.gf, self.kernel_calls, self.combine_calls = gf, 0, 0

    def dot(self, u, v):
        self.kernel_calls += 1
        return self.gf.dot(u, v)

    def convolve(self, f, g, positions, size):
        self.kernel_calls += 1
        return self.gf.convolve(f, g, positions, size)

    def vec_mat(self, matrix):
        self.kernel_calls += 1
        combine = self.gf.vec_mat(matrix)

        def counted(v):
            self.combine_calls += 1
            return combine(v)

        return counted


@pytest.fixture
def gf5():
    return field(5)


@pytest.fixture
def gf7():
    return field(7)


@pytest.fixture
def gf4():
    return field(4)
