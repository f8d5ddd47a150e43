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

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)


def zero_form(k: int, t: int) -> Form:
    return Form(k, t, (0,) * num_monomials(k, t))


def linear_form(k: int, coeffs) -> Form:
    return Form(k, 1, tuple(coeffs))


def monomial_vector(gf: GF, x, t: int):
    """Values of all degree-t monomials at x (zero vector allowed)."""
    k = len(x)
    powers = [[1] * (t + 1) for _ in range(k)]
    for j in range(k):
        for e in range(1, t + 1):
            powers[j][e] = gf.mul(powers[j][e - 1], x[j])
    out = []
    for exp in monomial_basis(k, t):
        v = 1
        for j, e in enumerate(exp):
            if e:
                v = gf.mul(v, powers[j][e])
        out.append(v)
    return out


def veronese(gf: GF, x, t: int):
    """Degree-t Veronese image of a projective point (must be nonzero)."""
    if not any(x):
        raise ValueError("veronese of the zero vector")
    return monomial_vector(gf, x, t)


def evaluate(gf: GF, f: Form, x) -> int:
    if len(x) != f.k:
        raise ValueError(f"point has {len(x)} coordinates, form has {f.k}")
    return linalg.dot(gf, f.coeffs, monomial_vector(gf, x, f.t))


def form_add(gf: GF, f: Form, g: Form) -> Form:
    if (f.k, f.t) != (g.k, g.t):
        raise ValueError("form shape mismatch")
    return Form(f.k, f.t, tuple(gf.add(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def form_sub(gf: GF, f: Form, g: Form) -> Form:
    if (f.k, f.t) != (g.k, g.t):
        raise ValueError("form shape mismatch")
    return Form(f.k, f.t, tuple(gf.sub(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def form_scale(gf: GF, c: int, f: Form) -> Form:
    return Form(f.k, f.t, tuple(gf.mul(c, a) for a in f.coeffs))


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
    out = [0] * num_monomials(k, t)
    g_nonzero = [(j, b) for j, b in enumerate(g.coeffs) if b]
    for a, row in zip(f.coeffs, _product_positions(k, f.t, g.t)):
        if not a:
            continue
        for j, b in g_nonzero:
            pos = row[j]
            out[pos] = gf.add(out[pos], gf.mul(a, b))
    return Form(k, t, tuple(out))


def product_linear_forms(gf: GF, k: int, factors) -> Form:
    """Product of linear forms; the empty product is the constant form 1."""
    acc = Form(k, 0, (1,))
    for lf in factors:
        if not isinstance(lf, Form):
            lf = linear_form(k, lf)
        acc = form_mul(gf, acc, lf)
    return acc


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
