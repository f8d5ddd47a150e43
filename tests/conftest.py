"""Shared corpus fixtures: reference arcs and their derived systems, and
reference functions that the package does not carry.

Builds are cached per session because several test modules sweep the same
arcs; everything returned is treated as immutable by the tests.
"""

from functools import lru_cache, reduce
from itertools import combinations, product

import pytest

from arcforms import linalg
from arcforms.field import make_field
from arcforms.forms import (
    Form,
    monomial_basis,
    monomial_index,
    monomial_vector,
    num_monomials,
    product_linear_forms,
)
from arcforms.geometry import IN_SPAN, Arc, normal_rational_curve
from arcforms.tangents import (
    TangentSystem,
    _sign_power,
    build_tangent_system,
    check_buildable,
    perm_parity,
    scaling_rule,
    tangent_hyperplanes,
)
from arcforms.tensorform import build_tensor_form, evaluation_table

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


# -- reference functions ----------------------------------------------------


def dense(mf) -> list:
    """The dense row-major coefficients of a MultiForm, zero off
    support^blocks: its runs, expanded."""
    return [v for v, count in mf.runs() for _ in range(count)]


def dense_json(gf, mf) -> dict:
    """A MultiForm's artifact object with its coefficients as the dense
    list of their element_to_json values."""
    coeffs = [gf.element_to_json(c) for c in dense(mf)]
    return {"k": mf.k, "blocks": mf.blocks, "t": mf.t, "coeffs": coeffs}


def g_value(ts, indices) -> int:
    """Signed tangent-form evaluation on an ordered (k-1)-tuple of arc
    indices: zero on repeats, otherwise the form of the first k-2 entries
    at the last entry, signed by the parity that sorts the prefix."""
    indices = tuple(indices)
    if len(indices) != ts.arc.k - 1:
        raise ValueError(f"need an ordered (k-1)-tuple, got {len(indices)} indices")
    for i in indices:
        if not 0 <= i < ts.arc.n:
            raise IndexError(f"arc index {i} out of range")
    if len(set(indices)) != len(indices):
        return 0
    prefix, last = indices[:-1], indices[-1]
    sign = _sign_power(ts.gf, perm_parity(prefix) * (ts.arc.t + 1))
    return ts.gf.mul(sign, ts.eval_fS(prefix, last))


def zero_form(k, t):
    return Form(k, t, (0,) * num_monomials(k, t))


def form_add(gf, f, g):
    if (f.k, f.t) != (g.k, g.t):
        raise ValueError("form shape mismatch")
    return Form(f.k, f.t, tuple(gf.add(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def form_scale(gf, c, f):
    return Form(f.k, f.t, tuple(gf.mul(c, a) for a in f.coeffs))


def residual_form(gf, sbbt, prefix_rows):
    """G(prefix, X) as a polynomial in X: substitute, into phi, the linear
    forms that each minor becomes once all rows but the last are fixed."""
    if len(prefix_rows) != sbbt.phi.k - 2:
        raise ValueError(f"need k-2 = {sbbt.phi.k - 2} prefix rows")
    return _substitute(gf, sbbt, linalg.minor_forms_batch(gf, [prefix_rows])[0])


@lru_cache(maxsize=None)
def _times_variable(k, s):
    """Row i, column j: the index in monomial_basis(k, s + 1) of monomial i
    of degree s times x_j, read off monomial_index."""
    index = monomial_index(k, s + 1)
    return tuple(
        tuple(index[m[:j] + (m[j] + 1,) + m[j + 1 :]] for j in range(k)) for m in monomial_basis(k, s)
    )


def _substitute(gf, sbbt, linear):
    """phi at the k-ary linear forms L_0..L_{k-1} of one prefix, along the
    (parent, j) steps of phi's substitution plan: one convolve in k
    variables per step, then one add_scaled per nonzero term."""
    k = sbbt.phi.k
    steps, terms = sbbt.substitution_plan
    products, degrees = [[1]], [0]
    for parent, j, *_ in steps:
        s = degrees[parent]
        positions, size = _times_variable(k, s), num_monomials(k, s + 1)
        products.append(gf.convolve(products[parent], linear[j], positions, size))
        degrees.append(s + 1)
    out = [0] * len(sbbt.phi.coeffs)
    for c, node in terms:
        out = gf.add_scaled(out, c, products[node])
    return Form(k, sbbt.phi.t, tuple(out))


def pencil_oracle(gf, k, points) -> dict:
    """Sorted (k-2)-subset S of the points ↦ (u, v, keys), None if S is
    dependent: {u, v} the linalg.nullspace basis of S's points, and
    keys[i] the member of S's pencil the i-th point x lies on by two
    scalar dots: None for u, -(v·x)/(u·x) for v + λu, IN_SPAN for both."""
    out = {}
    for S in combinations(range(len(points)), k - 2):
        rk, basis = linalg.nullspace(gf, [points[i] for i in S], ncols=k)
        if rk != k - 2:
            out[S] = None
            continue
        u, v = basis
        keys = []
        for x in points:
            a, b = (reduce(gf.add, map(gf.mul, w, x), 0) for w in (u, v))
            keys.append(gf.div(gf.neg(b), a) if a else None if b else IN_SPAN)
        out[S] = (u, v, keys)
    return out


def normalized_build(arc):
    """The tangent system built from the normalized tangent hyperplanes:
    c_S fixed along scaling_rule by Π h(x) of the normalized h, by
    linalg.dot, then c_S folded into the first hyperplane of the product."""
    check_buildable(arc)
    gf, E, anchor = arc.gf, tuple(range(arc.k - 2)), arc.k - 2
    ts = TangentSystem(arc, E, anchor, {})
    members, scale = {}, {}

    def value(S, i):
        return reduce(gf.mul, (linalg.dot(gf, h, arc.points[i]) for h in members[S]))

    order = sorted(combinations(range(arc.n), arc.k - 2), key=lambda S: len(set(S) - set(E)))
    for S in order:
        members[S] = tangent_hyperplanes(arc, S)
        if S == E:
            e, target = anchor, 1
        else:
            e, a, parent, sign = scaling_rule(ts, S)
            target = gf.mul(sign, gf.mul(scale[parent], value(parent, a)))
        scale[S] = gf.div(target, value(S, e))
    batch = [[[gf.mul(scale[S], c) for c in members[S][0]], *members[S][1:]] for S in order]
    ts.fS.update(zip(order, product_linear_forms(gf, arc.k, batch)))
    return ts


def inverse(gf, rows):
    n = len(rows)
    red, pivots = linalg.rref(gf, [[*r, *unit] for r, unit in zip(rows, linalg.identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def rank(gf, rows) -> int:
    return len(linalg.rref(gf, rows)[0])


def evaluate(gf, mf, points) -> int:
    """Full evaluation of a MultiForm at `blocks` point vectors: the sum,
    over the entries of its support block, of the entry times the points'
    monomials at its support indices, by gf.mul and gf.add; no tensor
    contraction used."""
    if len(points) != mf.blocks:
        raise ValueError(f"need {mf.blocks} points, got {len(points)}")
    vecs = [monomial_vector(gf, x, mf.t) for x in points]
    total = 0
    for J, c in zip(product(mf.support, repeat=mf.blocks), mf.block):
        for v, j in zip(vecs, J):
            c = gf.mul(c, v[j])
        total = gf.add(total, c)
    return total


def is_block_congruent(D, arc) -> bool:
    """Whether D is a sum of terms carrying, in some block, a form that
    vanishes on the arc.

    Equivalent test: D evaluates to zero on every tuple of arc points.
    (A multihomogeneous form is such a sum exactly when the multilinear
    functional it induces kills the tensor power of the span of the arc's
    Veronese images, and that span is generated by the arc tuples.)
    """
    return not any(evaluation_table(arc.gf, D, arc.points))


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
