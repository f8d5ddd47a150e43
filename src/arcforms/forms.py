"""Homogeneous forms of degree t in k variables over a finite field.

Coefficients are stored densely in the canonical monomial order: exponent
tuples sorted lexicographically descending.  That order is what every JSON
artifact and every basis in this package uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import linalg
from .field import GF

# The most entries of one form or basis: a tangent form's N = C(k+t-1, t),
# or the (N - n)·N bound on the basis `phi --t` builds.  On a 2-vCPU x86 host
# (Python 3.11) `phi` on the q=7 twisted cubic took 10 s and 35 MiB at t = 12
# (2.0·10^5 entries) and 22 s and 60 MiB at t = 14 (4.6·10^5).
MAX_ENTRIES = 250_000


@lru_cache(maxsize=None)
def monomial_basis(k: int, t: int):
    """All C(k+t-1, t) exponent tuples of total degree t, lex descending."""
    if k < 1 or t < 0:
        raise ValueError(f"bad monomial parameters k={k}, t={t}")
    out = []
    for combo in itertools.combinations_with_replacement(range(k), t):
        exp = [0] * k
        for var in combo:
            exp[var] += 1
        out.append(tuple(exp))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(k: int, t: int):
    return {m: i for i, m in enumerate(monomial_basis(k, t))}


def num_monomials(k: int, t: int) -> int:
    if k < 1 or t < 0:
        raise ValueError(f"bad monomial parameters k={k}, t={t}")
    return comb(k + t - 1, t)


@dataclass(frozen=True)
class Form:
    """Dense homogeneous form: coeffs follow monomial_basis(k, t)."""

    k: int
    t: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != num_monomials(self.k, self.t):
            raise ValueError(
                f"form of degree {self.t} in {self.k} variables needs "
                f"{num_monomials(self.k, self.t)} coefficients, got {len(self.coeffs)}"
            )


def linear_form(k: int, coeffs) -> Form:
    return Form(k, 1, tuple(coeffs))


@lru_cache(maxsize=None)
def _monomial_parents(k: int, t: int):
    """(parent, j) for every monomial of degree 1..t, listed degree by
    degree, each degree in canonical order.  With the constant 1 put in
    front at position 0, the monomial at position i + 1 is x_j times the
    one at position parent."""
    out, prev = [], {(0,) * k: 0}
    for d in range(1, t + 1):
        index = {}
        for m in monomial_basis(k, d):
            j = max(v for v, e in enumerate(m) if e)
            out.append((prev[m[:j] + (m[j] - 1,) + m[j + 1 :]], j))
            index[m] = len(out)
        prev = index
    return tuple(out)


def monomial_vector(gf: GF, x, t: int):
    """Values of all degree-t monomials at x (zero vector allowed), each
    one multiplication from a monomial of one degree less."""
    vals, mul = [1], gf.mul
    for parent, j in _monomial_parents(len(x), t):
        vals.append(mul(vals[parent], x[j]))
    return vals[len(vals) - num_monomials(len(x), t) :]


def veronese(gf: GF, x, t: int):
    """Degree-t Veronese image of a projective point (must be nonzero)."""
    if not any(x):
        raise ValueError("veronese of the zero vector")
    return monomial_vector(gf, x, t)


def evaluate(gf: GF, f: Form, x) -> int:
    if len(x) != f.k:
        raise ValueError(f"point has {len(x)} coordinates, form has {f.k}")
    return linalg.dot(gf, f.coeffs, monomial_vector(gf, x, f.t))


def form_sub(gf: GF, f: Form, g: Form) -> Form:
    if (f.k, f.t) != (g.k, g.t):
        raise ValueError("form shape mismatch")
    return Form(f.k, f.t, tuple(gf.sub(a, b) for a, b in zip(f.coeffs, g.coeffs)))


@lru_cache(maxsize=None)
def _product_positions(k: int, s: int, t: int):
    """Row i, column j: the index in monomial_basis(k, s + t) of monomial i
    of degree s times monomial j of degree t."""
    idx = monomial_index(k, s + t)
    return tuple(
        tuple(idx[tuple(x + y for x, y in zip(a, b))] for b in monomial_basis(k, t))
        for a in monomial_basis(k, s)
    )


def form_mul(gf: GF, f: Form, g: Form) -> Form:
    if f.k != g.k:
        raise ValueError("form variable-count mismatch")
    k, t = f.k, f.t + g.t
    positions = _product_positions(k, f.t, g.t)
    return Form(k, t, tuple(gf.convolve(f.coeffs, g.coeffs, positions, num_monomials(k, t))))


def _linear_terms(acc, linear, positions, size: int) -> list:
    """f·L over a batch, f of degree s and L linear, acc[i] and linear[j]
    the columns of their i-th and j-th coefficients and positions =
    _product_positions(variables, s, 1): for each coefficient of f·L, the
    column lists (us, vs) whose GF.col_dot it is."""
    out = [([], []) for _ in range(size)]
    for a, row in zip(acc, positions):
        for b, pos in zip(linear, row):
            out[pos][0].append(a)
            out[pos][1].append(b)
    return out


def product_linear_forms(gf: GF, k: int, batch) -> list:
    """The product of each list of linear forms (Forms or coefficient
    sequences) in the batch, all of one length; the empty product is 1.
    Factor by factor, each coefficient is one GF.col_dot over the batch."""
    batch = [[getattr(f, "coeffs", f) for f in factors] for factors in batch]
    if len(set(map(len, batch))) > 1 or any(len(f) != k for f in itertools.chain(*batch)):
        raise ValueError(f"need equally many linear forms in {k} variables per product")
    acc = [[1] * len(batch)]
    for s, factor in enumerate(zip(*batch)):  # factor s of every product
        terms = _linear_terms(acc, list(zip(*factor)), _product_positions(k, s, 1), num_monomials(k, s + 1))
        acc = [gf.col_dot(us, vs) for us, vs in terms]
    return [Form(k, len(batch[0]), coeffs) for coeffs in zip(*acc)]


@dataclass(frozen=True)
class FormSubspace:
    """A subspace of degree-t forms, basis rows in reduced echelon form."""

    k: int
    t: int
    basis: tuple  # tuple of coefficient tuples

    @property
    def dim(self) -> int:
        return len(self.basis)

    def forms(self):
        return [Form(self.k, self.t, row) for row in self.basis]


def vanishing_subspace(gf: GF, k: int, points, t: int) -> FormSubspace:
    """All degree-t forms vanishing on the given points.

    Computed as the right kernel of the matrix of Veronese images, so the
    basis is canonical and dim + rank(Veronese matrix) = C(k+t-1, t).
    """
    rows = [veronese(gf, x, t) for x in points]
    _, basis = linalg.nullspace(gf, rows, ncols=num_monomials(k, t))
    return FormSubspace(k, t, tuple(tuple(r) for r in basis))


def vanishes_on(gf: GF, f: Form, points) -> bool:
    return all(evaluate(gf, f, x) == 0 for x in points)


def form_to_json(gf: GF, f: Form) -> dict:
    return {
        "k": f.k,
        "t": f.t,
        "coeffs": [gf.element_to_json(c) for c in f.coeffs],
    }


def form_from_json(gf: GF, obj) -> Form:
    return Form(
        obj["k"], obj["t"], tuple(gf.element_from_json(c) for c in obj["coeffs"])
    )
