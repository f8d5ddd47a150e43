import itertools
import random

import pytest

from arcforms import linalg
from arcforms.field import make_field
from arcforms.forms import (
    Form,
    form_from_json,
    form_mul,
    form_sub,
    form_to_json,
    linear_form,
    monomial_basis,
    monomial_vector,
    num_monomials,
    product_linear_forms,
    evaluate,
    vanishes_on,
    vanishing_subspace,
    veronese,
)
from conftest import corpus_arc, field, form_add, form_scale, rank, zero_form


def test_monomial_basis_examples():
    assert monomial_basis(3, 2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )
    assert monomial_basis(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))
    assert monomial_basis(4, 0) == ((0, 0, 0, 0),)


def test_monomial_basis_is_descending_lex():
    for k, t in [(3, 3), (4, 2), (2, 5)]:
        basis = monomial_basis(k, t)
        assert len(basis) == num_monomials(k, t)
        assert list(basis) == sorted(basis, reverse=True)
        assert all(sum(m) == t for m in basis)


def test_evaluate_examples(gf7, gf5):
    conic_form = Form(3, 2, (0, 0, 1, gf7.neg(1), 0, 0))  # X1*X3 - X2^2
    assert evaluate(gf7, conic_form, (1, 2, 4)) == 0
    assert evaluate(gf7, conic_form, (0, 0, 0)) == 0
    sq = Form(3, 2, (1, 0, 0, 0, 0, 0))  # X1^2
    assert evaluate(gf5, sq, (3, 0, 0)) == 4


def test_evaluate_dimension_mismatch(gf5):
    with pytest.raises(ValueError):
        evaluate(gf5, zero_form(3, 2), (1, 2))


def test_veronese_examples(gf7):
    assert veronese(gf7, (1, 2, 3), 2) == [1, 2, 3, 4, 6, 2]
    assert veronese(gf7, (4, 5, 6), 1) == [4, 5, 6]
    s = 3
    assert veronese(gf7, (1, s), 3) == [1, s, s * s % 7, s**3 % 7]
    with pytest.raises(ValueError):
        veronese(gf7, (0, 0, 0), 2)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_monomial_vector_is_exponent_products(q):
    # oracle from the definition: monomial e at x is prod_j x_j^e_j, with
    # x_j^0 = 1 also for x_j = 0
    gf, rng = field(q), random.Random(q)

    def power(a, e):
        v = 1
        for _ in range(e):
            v = gf.mul(v, a)
        return v

    for k in range(1, 6):
        vectors = [(0,) * k, (0,) * (k - 1) + (rng.randrange(1, q),)] + [
            tuple(rng.choice([0, rng.randrange(1, q)]) for _ in range(k)) for _ in range(6)
        ]
        for x, t in itertools.product(vectors, range(7)):
            want = []
            for exp in monomial_basis(k, t):
                v = 1
                for c, e in zip(x, exp):
                    v = gf.mul(v, power(c, e))
                want.append(v)
            assert monomial_vector(gf, x, t) == want, (x, t)


def test_veronese_scaling_covariance(gf7):
    x = (2, 5, 1)
    for lam in gf7.nonzero():
        for t in (1, 2, 3):
            lhs = veronese(gf7, tuple(gf7.mul(lam, c) for c in x), t)
            scale = gf7.pow(lam, t)
            assert lhs == [gf7.mul(scale, v) for v in veronese(gf7, x, t)]


def test_evaluate_is_inner_product_with_veronese(gf5):
    rng = random.Random(0)
    for _ in range(30):
        coeffs = tuple(rng.randrange(5) for _ in range(num_monomials(3, 2)))
        f = Form(3, 2, coeffs)
        x = tuple(rng.randrange(5) for _ in range(3))
        if not any(x):
            continue
        assert evaluate(gf5, f, x) == linalg.dot(gf5, coeffs, veronese(gf5, x, 2))


def test_product_linear_forms_examples(gf5):
    f = product_linear_forms(gf5, 3, [[(1, 0, 0), (0, 0, 1)]])[0]  # X1 * X3
    idx = monomial_basis(3, 2).index((1, 0, 1))
    assert f.coeffs[idx] == 1 and sum(map(bool, f.coeffs)) == 1
    g = product_linear_forms(gf5, 2, [[(1, 1), (1, gf5.neg(1))]])[0]
    assert g == Form(2, 2, (1, 0, gf5.neg(1)))  # X1^2 - X2^2
    empty = product_linear_forms(gf5, 3, [[]])[0]
    assert empty.t == 0 and empty.coeffs == (1,)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_batched_products_match_chained_form_mul(q):
    # each product of a batch equals its factors multiplied out one by one
    # by form_mul, for 0-4 factors in 1-4 variables, zero factors included
    gf, rng = field(q), random.Random(q)
    assert product_linear_forms(gf, 3, []) == []
    for k in range(1, 5):
        for t in range(5):
            batch = [
                [[0] * k if rng.random() < 0.1 else [rng.randrange(q) for _ in range(k)] for _ in range(t)]
                for _ in range(6)
            ]
            for factors, got in zip(batch, product_linear_forms(gf, k, batch), strict=True):
                want = Form(k, 0, (1,))
                for lf in factors:
                    want = form_mul(gf, want, Form(k, 1, tuple(lf)))
                assert got == want, (k, factors)
    with pytest.raises(ValueError):
        product_linear_forms(gf, 2, [[(1, 0)], [(1, 0), (0, 1)]])


def test_product_evaluation_homomorphism(gf7):
    rng = random.Random(1)
    factors = [(1, 2, 3), (0, 1, 5), (4, 4, 1)]
    f = product_linear_forms(gf7, 3, [factors])[0]
    for _ in range(100):
        x = tuple(rng.randrange(7) for _ in range(3))
        expected = 1
        for lf in factors:
            expected = gf7.mul(expected, linalg.dot(gf7, lf, x))
        assert evaluate(gf7, f, x) == expected


def test_form_arithmetic(gf5):
    a = Form(2, 2, (1, 2, 3))
    b = Form(2, 2, (4, 0, 1))
    assert form_add(gf5, a, b) == Form(2, 2, (0, 2, 4))
    assert form_sub(gf5, a, b) == Form(2, 2, (2, 2, 2))
    assert form_scale(gf5, 2, a) == Form(2, 2, (2, 4, 1))
    prod = form_mul(gf5, linear_form(2, (1, 1)), linear_form(2, (1, 1)))
    assert prod == Form(2, 2, (1, 2, 1))


# -- vanishing subspaces, with independent oracles --------------------------


def brute_force_vanishing_count(gf, k, points, t):
    """Enumerate every coefficient vector; count those vanishing on all points."""
    n = num_monomials(k, t)
    count = 0
    for coeffs in itertools.product(gf.elements(), repeat=n):
        f = Form(k, t, coeffs)
        if all(evaluate(gf, f, x) == 0 for x in points):
            count += 1
    return count


def nrc_rank_oracle(q, k, t):
    """Combinatorial rank of the Veronese matrix of a normal rational curve.

    A monomial with exponents d evaluates at (1, s, ..., s^(k-1)) to s^e
    with e = sum (j-1) d_j, and s^e as a function on F_q only depends on e
    reduced mod q-1 (with e = 0 kept apart).  Distinct reduced classes give
    independent columns; the extra point (0,...,0,1) adds one more only if
    the top monomial shares its class with another one.
    """
    def reduce_exp(e):
        return 0 if e == 0 else (e - 1) % (q - 1) + 1

    exps = [sum(j * d for j, d in enumerate(m)) for m in monomial_basis(k, t)]
    classes = {reduce_exp(e) for e in exps}
    top = (k - 1) * t
    sharers = [e for e in exps if reduce_exp(e) == reduce_exp(top)]
    return len(classes) + (1 if len(sharers) > 1 else 0)


def test_vanishing_subspace_conic_f5():
    gf = field(5)
    arc = corpus_arc(5, 3)
    sub = vanishing_subspace(gf, 3, arc.points, 2)
    assert sub.dim == 1
    # brute-force oracle: number of vanishing forms is q^dim
    assert brute_force_vanishing_count(gf, 3, arc.points, 2) == 5**1
    # the basis form is the conic itself up to scalar
    f = sub.forms()[0]
    assert vanishes_on(gf, f, arc.points)
    conic_form = Form(3, 2, (0, 0, 1, gf.neg(1), 0, 0))
    lam = next(c for c in f.coeffs if c)
    ref = next(c for c in conic_form.coeffs if c)
    scaled = form_scale(gf, gf.div(ref, lam), f)
    assert scaled == conic_form or scaled == form_scale(gf, gf.neg(1), conic_form)


def test_vanishing_subspace_single_point(gf5):
    sub = vanishing_subspace(gf5, 3, [(1, 2, 3)], 1)
    assert sub.dim == 2


@pytest.mark.parametrize(
    "q,k,t,expected",
    [(5, 3, 2, 1), (7, 3, 2, 1), (8, 3, 2, 1), (9, 3, 2, 1),
     (5, 4, 2, 4), (7, 4, 2, 3), (8, 4, 2, 3),
     (5, 3, 1, 0), (7, 4, 1, 0)],
)
def test_vanishing_dims_match_rank_oracle(q, k, t, expected):
    arc = corpus_arc(q, k)
    sub = vanishing_subspace(arc.gf, k, arc.points, t)
    N = num_monomials(k, t)
    assert sub.dim == N - nrc_rank_oracle(q, k, t) == expected


def test_vanishing_basis_rows_vanish_and_dims_add_up():
    for q, k in [(5, 3), (7, 4)]:
        arc = corpus_arc(q, k)
        for t in (1, 2):
            sub = vanishing_subspace(arc.gf, k, arc.points, t)
            rows = [veronese(arc.gf, x, t) for x in arc.points]
            assert sub.dim + rank(arc.gf, rows) == num_monomials(k, t)
            for f in sub.forms():
                assert vanishes_on(arc.gf, f, arc.points)


def test_vanishes_on_examples(gf5):
    arc = corpus_arc(5, 3)
    conic_form = Form(3, 2, (0, 0, 1, gf5.neg(1), 0, 0))
    assert vanishes_on(gf5, conic_form, arc.points)
    x1 = linear_form(3, (1, 0, 0))
    assert not vanishes_on(gf5, x1, arc.points)
    assert vanishes_on(gf5, zero_form(3, 2), arc.points)


def test_form_json_roundtrip():
    for p, h in [(5, 1), (2, 2)]:
        gf = make_field(p, h)
        rng = random.Random(4)
        f = Form(3, 2, tuple(rng.randrange(gf.q) for _ in range(6)))
        assert form_from_json(gf, form_to_json(gf, f)) == f
