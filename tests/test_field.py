import gc
import itertools
import operator
import random
import weakref

import pytest

from arcforms.field import (
    CONWAY_POLYNOMIALS,
    GF,
    MAX_TABLE_Q,
    MILLER_RABIN_BOUND,
    NotPrimeError,
    ReduciblePolynomialError,
    UnsupportedFieldError,
    field_from_json,
    is_prime,
    make_field,
)
from arcforms.forms import Form, form_mul, monomial_basis, monomial_index, num_monomials

from conftest import CountingField

SMALL_Q = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


def test_make_field_prime():
    gf = make_field(5, 1)
    assert (gf.p, gf.h, gf.q) == (5, 1, 5)
    assert gf.irreducible == (0, 1)


def test_make_field_f4_explicit_polynomial():
    gf = make_field(2, 2, [1, 1, 1])
    assert gf.q == 4


def test_make_field_rejects_reducible():
    # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ReduciblePolynomialError):
        make_field(2, 2, [1, 0, 1])


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NotPrimeError):
        make_field(4, 1)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial(n)]
    assert not is_prime(561)  # a Carmichael number
    assert not is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5 and 7
    # composite and a strong pseudoprime to the twelve primes up to 37
    assert not is_prime(318665857834031151167461)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1) and not is_prime((10**9 + 7) * (10**9 + 9))


def test_make_field_refuses_p_beyond_the_primality_bound():
    # the bound is composite yet a strong pseudoprime to every base used
    with pytest.raises(ValueError):
        make_field(MILLER_RABIN_BOUND)
    assert make_field(10**18 + 3).q == 10**18 + 3


def test_make_field_unsupported_without_polynomial():
    with pytest.raises(UnsupportedFieldError):
        make_field(2, 9)  # q = 512 > 256, no table entry


def test_make_field_refuses_fields_too_large_to_tabulate(monkeypatch):
    with pytest.raises(UnsupportedFieldError):
        make_field(2, 12, [1, 1, 0, 0, 1, 0, 1] + [0] * 5 + [1])  # irreducible
    with pytest.raises(UnsupportedFieldError):
        make_field(3, 7, [1, 2] + [0] * 5 + [1])  # 3^7 = 2187
    # refused by size before p^h or the modulus is looked at
    with pytest.raises(UnsupportedFieldError):
        make_field(2, 10**12, [1, 1])
    # q = MAX_TABLE_Q itself is accepted (its 3 s of tabulation skipped here)
    monkeypatch.setattr(GF, "_build_tables", lambda self: None)
    assert make_field(2, 11, [1, 0, 1] + [0] * 8 + [1]).q == MAX_TABLE_Q


def _poly_mod(a, b, p):
    """Remainder of a by the monic b over F_p, little-endian lists."""
    a = list(a)
    for s in range(len(a) - len(b), -1, -1):
        c = a[s + len(b) - 1]
        for i, bi in enumerate(b):
            a[s + i] = (a[s + i] - c * bi) % p
    return [c % p for c in a[: len(b) - 1]]


def _irreducible_by_trial_division(poly, p):
    """Oracle: no monic polynomial of degree 1 .. h/2 divides poly."""
    return all(
        any(_poly_mod(poly, list(tail) + [1], p))
        for d in range(1, (len(poly) - 1) // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    )


@pytest.mark.parametrize("p,h", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_tables_accept_exactly_the_irreducible_moduli(p, h):
    accepted = 0
    for tail in itertools.product(range(p), repeat=h):
        poly = [*tail, 1]
        if not _irreducible_by_trial_division(poly, p):
            with pytest.raises(ReduciblePolynomialError):
                make_field(p, h, poly)
            continue
        gf, accepted = make_field(p, h, poly), accepted + 1
        for a, b in itertools.product(gf.elements(), repeat=2):
            ca, cb = gf.coeffs(a), gf.coeffs(b)
            prod = [0] * (2 * h - 1)  # schoolbook product, then reduced
            for i, j in itertools.product(range(h), repeat=2):
                prod[i + j] += ca[i] * cb[j]
            assert gf.coeffs(gf.mul(a, b)) == tuple(_poly_mod(prod, poly, p))
            assert gf.coeffs(gf.add(a, b)) == tuple((x + y) % p for x, y in zip(ca, cb))
    # the number of monic irreducibles of degree h over F_p
    assert accepted == {2: (p * p - p) // 2, 3: (p**3 - p) // 3, 4: (p**4 - p * p) // 4}[h]


@pytest.mark.parametrize("h,poly", [(8, None), (9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])], ids=["q256", "q512"])
def test_tables_share_one_int_per_element(h, poly):
    gf = make_field(2, h, poly)
    q = gf.q
    entries = [v for table in (gf._add, gf._mul_table) for row in table for v in row]
    assert len(set(map(id, entries))) <= q
    # oracle: over F_2 addition is XOR, and both moduli are primitive, so
    # every product is a power of x, each power one shift and reduction on
    modulus = sum(c << i for i, c in enumerate(gf.irreducible))
    exp = [1]
    for _ in range(q - 2):
        v = exp[-1] << 1
        exp.append(v ^ modulus if v >= q else v)
    log = {v: i for i, v in enumerate(exp)}
    assert len(log) == q - 1
    for a in range(q):
        assert gf._add[a] == [a ^ b for b in range(q)]
        want = [exp[(log[a] + log[b]) % (q - 1)] if a and b else 0 for b in range(q)]
        assert gf._mul_table[a] == want


def test_tables_of_a_non_primitive_modulus():
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2, but x = 2 has order 5
    gf = make_field(2, 4, [1, 1, 1, 1, 1])
    assert [gf.pow(2, e) for e in range(1, 6)] == [2, 4, 8, 15, 1]
    assert all(gf.mul(a, gf.inv(a)) == 1 for a in gf.nonzero())


def test_conway_table_covers_all_prime_powers_up_to_256():
    expected = set()
    for p in (2, 3, 5, 7, 11, 13):
        h = 2
        while p**h <= 256:
            expected.add((p, h))
            h += 1
    assert set(CONWAY_POLYNOMIALS) == expected


@pytest.mark.parametrize("p,h", sorted(CONWAY_POLYNOMIALS))
def test_conway_polynomials_irreducible_and_primitive(p, h):
    poly = CONWAY_POLYNOMIALS[(p, h)]
    assert len(poly) == h + 1 and poly[-1] == 1
    # x generates the multiplicative group
    gf = make_field(p, h)
    x = gf.from_coeffs([0, 1] + [0] * (h - 2))
    seen = set()
    acc = 1
    for _ in range(gf.q - 1):
        acc = gf.mul(acc, x)
        seen.add(acc)
    assert len(seen) == gf.q - 1


def test_arith_examples():
    f5 = make_field(5)
    assert f5.mul(2, 4) == 3
    f7 = make_field(7)
    assert f7.inv(3) == 5
    f4 = make_field(2, 2)
    x, x1 = 2, 3
    assert f4.mul(x, x1) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(7).inv(0)


@pytest.mark.parametrize("p,h", SMALL_Q)
def test_field_axioms_exhaustive(p, h):
    gf = make_field(p, h)
    for a in gf.elements():
        assert gf.add(a, gf.neg(a)) == 0
        for b in gf.elements():
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.sub(gf.add(a, b), b) == a
    for a in gf.nonzero():
        assert gf.mul(a, gf.inv(a)) == 1
        assert gf.pow(a, gf.q - 1) == 1  # Fermat
    # distributivity spot sweep
    for a in gf.elements():
        for b in gf.elements():
            for c in (0, 1, gf.q - 1):
                lhs = gf.mul(a, gf.add(b, c))
                rhs = gf.add(gf.mul(a, b), gf.mul(a, c))
                assert lhs == rhs


def test_pow_negative_exponent():
    gf = make_field(7)
    assert gf.pow(3, -1) == gf.inv(3)
    assert gf.pow(3, 0) == 1
    assert gf.pow(0, 5) == 0
    assert gf.pow(0, 0) == 1


def test_coeffs_roundtrip():
    gf = make_field(3, 2)
    for a in gf.elements():
        assert gf.from_coeffs(gf.coeffs(a)) == a


def test_element_check():
    gf = make_field(5)
    with pytest.raises(ValueError):
        gf.check(5)
    with pytest.raises(ValueError):
        gf.check(-1)
    assert gf.check(4) == 4


def test_json_roundtrip():
    for p, h in [(5, 1), (2, 3), (3, 2)]:
        gf = make_field(p, h)
        assert field_from_json(gf.to_json()) == gf
        for a in gf.elements():
            assert gf.element_from_json(gf.element_to_json(a)) == a
    # h = 1 elements serialize as bare ints, extensions as digit lists
    assert make_field(5).element_to_json(3) == 3
    assert make_field(2, 2).element_to_json(3) == [1, 1]


def test_field_equality_and_hash():
    assert make_field(5) == make_field(5)
    assert make_field(2, 2) == make_field(2, 2, [1, 1, 1])
    assert make_field(5) != make_field(7)
    assert hash(make_field(3, 2)) == hash(make_field(3, 2))


def test_h1_placeholder_modulus():
    gf = make_field(7, 1, [0, 1])
    assert gf.q == 7
    with pytest.raises(ValueError):
        make_field(7, 1, [1, 1])


# -- vector kernels ------------------------------------------------------------

KERNEL_FIELDS = [(2, 1), (7, 1), (10**18 + 3, 1), (2, 4), (2, 8), (3, 2), (3, 3)]


def scalar_dot(gf, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = gf.add(acc, gf.mul(a, b))
    return acc


def kernel_vectors(gf, rng):
    """Pairs of equal-length vectors: empty, all zero, sparse, dense and
    holding the field's largest element."""
    def draw(n, density):
        return [rng.randrange(1, gf.q) if rng.random() < density else 0 for _ in range(n)]

    pairs = [([], []), ([0] * 5, draw(5, 1)), ([gf.q - 1] * 4, [gf.q - 1] * 4)]
    for n in (1, 3, 17, 60):
        pairs += [(draw(n, 0.3), draw(n, 0.7)), (draw(n, 1), draw(n, 1))]
    return pairs


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_dot_matches_scalar_loop(p, h):
    gf = make_field(p, h)
    rng = random.Random(p + h)
    for u, v in kernel_vectors(gf, rng):
        assert gf.dot(u, v) == scalar_dot(gf, u, v)
        assert 0 <= gf.dot(u, v) < gf.q


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_add_scaled_matches_scalar_loop_and_mutates_nothing(p, h):
    gf = make_field(p, h)
    rng = random.Random(p * h)
    for x, y in kernel_vectors(gf, rng):
        for c in {0, 1, gf.q - 1, rng.randrange(gf.q)}:
            x0, y0 = list(x), list(y)
            got = gf.add_scaled(x, c, y)
            assert got == [gf.add(a, gf.mul(c, b)) for a, b in zip(x, y)]
            assert got is not x and got is not y
            assert (x, y) == (x0, y0)


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_col_dot_matches_dot_at_every_position_and_mutates_nothing(p, h):
    # r = 1, 2 and 5 pairs of columns over batches of 1, 3 and 17
    # positions: random, with an all-zero u and an all-zero v column, all
    # zero, and q - 1 everywhere (the largest GF(p) sums); lists and tuples
    gf = make_field(p, h)
    rng = random.Random(5 * p + h)
    top = gf.q - 1
    for size, r in itertools.product((1, 3, 17), (1, 2, 5)):
        def draw():
            return [[rng.randrange(gf.q) for _ in range(size)] for _ in range(r)]

        us, vs = draw(), draw()
        cases = [
            (us, vs),
            ([[0] * size] + us[1:], vs[:-1] + [[0] * size]),
            ([[0] * size] * r, draw()),
            ([[top] * size] * r, [tuple([top] * size)] * r),
            ([tuple(u) for u in us], vs),
        ]
        for us, vs in cases:
            before = ([list(u) for u in us], [list(v) for v in vs])
            got = gf.col_dot(us, vs)
            assert got == [gf.dot(u, v) for u, v in zip(zip(*us), zip(*vs))], (size, r)
            assert len(got) == size and all(type(x) is int and 0 <= x < gf.q for x in got)
            assert ([list(u) for u in us], [list(v) for v in vs]) == before


# GF(2^9) and GF(2^11) pack two bytes per entry in vec_mat, the smaller
# binary fields one
WIDE_BINARY_FIELDS = [(2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]), (2, 11, [1, 0, 1] + [0] * 8 + [1])]
# vec_mat's GF(p) lanes hold rows·(p-1)^2: 16 bits for 251 with one row,
# 32 with 17 rows; 257 with one row needs 32, as (p-1)^2 = 2^16 exactly;
# 65521 needs 32 with one row and 64 with 17; 10^18 + 3 needs more than 64
# and takes one dot per column
LANE_EDGE_PRIMES = [(251, 1, None), (257, 1, None), (65521, 1, None)]


@pytest.mark.parametrize(
    "p,h,modulus", [(p, h, None) for p, h in KERNEL_FIELDS] + WIDE_BINARY_FIELDS + LANE_EDGE_PRIMES
)
def test_vec_mat_matches_scalar_dots_and_mutates_nothing(p, h, modulus):
    # 1 x 1, zero-column, square and wide matrices, and a 17 x 3 matrix of
    # q - 1 only, whose lanes reach the bound rows·(q-1)^2 at v = q - 1;
    # v all zero, with one nonzero entry, with q - 1 everywhere, sparse and
    # dense; every v is combined twice, so the second round reuses the
    # packed scaled rows
    gf = make_field(p, h, modulus)
    rng = random.Random(p + 3 * h)
    top = gf.q - 1
    for rows, cols, drawn in [(1, 1, 0), (4, 0, 3), (6, 6, 5), (17, 9, 16), (17, 3, 0)]:
        matrix = [[rng.randrange(gf.q) for _ in range(cols)] for _ in range(drawn)]
        matrix += [[top] * cols for _ in range(rows - drawn)]
        before = [list(row) for row in matrix]
        vectors = [[0] * rows, [top] * rows]
        for i in range(rows):
            vectors.append([rng.randrange(1, gf.q) if j == i else 0 for j in range(rows)])
        for density in (0.3, 1):
            vectors.append([rng.randrange(1, gf.q) if rng.random() < density else 0 for _ in range(rows)])
        combine = gf.vec_mat(matrix)
        for v in vectors + vectors:
            got = combine(v)
            assert got == [scalar_dot(gf, v, c) for c in zip(*matrix)]
            assert all(type(x) is int and 0 <= x < gf.q for x in got)
        assert matrix == before
    # the map keeps no reference cycle through the field
    gc.disable()
    try:
        ref = weakref.ref(gf)
        del gf, combine
        assert ref() is None
    finally:
        gc.enable()


def scalar_form_mul(gf, f, g):
    """f·g term by term: each product of monomials found by its exponents."""
    index, out = monomial_index(f.k, f.t + g.t), [0] * num_monomials(f.k, f.t + g.t)
    for a, m in zip(f.coeffs, monomial_basis(f.k, f.t)):
        for b, n in zip(g.coeffs, monomial_basis(g.k, g.t)):
            pos = index[tuple(map(operator.add, m, n))]
            out[pos] = gf.add(out[pos], gf.mul(a, b))
    return Form(f.k, f.t + g.t, tuple(out))


@pytest.mark.parametrize("p,h", KERNEL_FIELDS)
def test_form_mul_matches_scalar_loop(p, h):
    # k = 1..5 and degrees 0-3 (degree 0 is a constant factor); f sparse or
    # dense, g dense or all zero
    gf = make_field(p, h)
    rng = random.Random(p + 2 * h)
    for k, s, t in itertools.product(range(1, 6), range(4), range(4)):
        for density, g_zero in [(0.4, False), (1, False), (1, True)]:
            f = Form(k, s, tuple(rng.randrange(1, gf.q) if rng.random() < density else 0
                                 for _ in range(num_monomials(k, s))))
            g = Form(k, t, tuple(0 if g_zero else rng.randrange(gf.q) for _ in range(num_monomials(k, t))))
            assert form_mul(gf, f, g) == scalar_form_mul(gf, f, g), (k, s, t, density, g_zero)
    # one kernel call, and no scalar add or mul (CountingField has none)
    f, g = Form(3, 2, tuple(range(6))), Form(3, 1, (1, 0, gf.q - 1))
    counting = CountingField(gf)
    assert form_mul(counting, f, g) == scalar_form_mul(gf, f, g)
    assert counting.kernel_calls == 1


def test_tabulated_field_is_freed_without_the_cycle_collector():
    # GF holds no reference to itself (no bound methods stored on the
    # instance), so dropping the last reference frees its tables at once
    gc.disable()
    try:
        gf = make_field(2, 4)
        assert gf.dot([3], [5]) == gf.mul(3, 5)
        ref = weakref.ref(gf)
        del gf
        assert ref() is None
    finally:
        gc.enable()
