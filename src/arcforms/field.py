"""Exact arithmetic in the finite field F_q, q = p^h.

Elements are plain ints in ``range(q)``.  For h = 1 the int is the residue
mod p; for h > 1 its base-p digits, least significant first, are the
coefficients of the element written as a polynomial in the adjoined root.
The field object carries no element state, so a single GF instance can be
shared freely between threads and passed explicitly to every operation.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import reduce
from itertools import compress, repeat


class NotPrimeError(ValueError):
    """Raised when the requested characteristic is composite."""


class ReduciblePolynomialError(ValueError):
    """Raised when a supplied modulus polynomial factors over F_p."""


class UnsupportedFieldError(ValueError):
    """Raised for h > 1 fields with q > MAX_TABLE_Q, or q > 256 and no modulus."""


# The largest tabulated extension field.  Its q x q tables cost q^2 time and
# memory: on a 2-vCPU x86 host (CPython 3.11) GF(2^10) takes 0.4 s and
# 32 MiB, GF(2^11) 1.8 s and 87 MiB (peak RSS of the process).
MAX_TABLE_Q = 2048


# Conway polynomials for all prime powers q <= 256, little-endian monic
# coefficient tuples.  Fixed table so that serialized data means the same
# thing in every run and every reimplementation.
CONWAY_POLYNOMIALS = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (3, 3): (1, 2, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (7, 2): (3, 6, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (11, 2): (2, 7, 1),
    (5, 3): (3, 3, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (13, 2): (2, 12, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
}


# Miller-Rabin over the thirteen primes up to 41 is exact below this bound,
# which is itself a strong pseudoprime to all thirteen bases.
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: for n < MILLER_RABIN_BOUND, n - 1 = 2^s d
    with d odd, n is prime iff for every base a, a^d = 1 or, for some
    r < s, a^(2^r d) = -1 mod n."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is beyond the proven range of the primality test")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n in bases:
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(
        pow(a, d, n) == 1 or n - 1 in (pow(a, d << r, n) for r in range(s)) for a in bases
    )


class GF:
    """The finite field F_q with q = p^h elements.

    Construct through :func:`make_field`, which validates p, h and the
    modulus's shape; for h > 1 the tables it builds for the arithmetic also
    decide whether the modulus is irreducible.
    Arithmetic methods take and return plain ints; operands are assumed to
    be already reduced (use :meth:`check` at trust boundaries).  The
    vector kernels dot, col_dot (a dot at every position of columns),
    col_div (a quotient at every position), add_scaled, convolve and
    vec_mat (rows packed into ints) branch on the
    field kind as add and mul do; no bound method is stored on the
    instance, so a GF is never a reference cycle and its tables are freed
    with its last reference.
    """

    def __init__(self, p: int, h: int, irreducible):
        self.p = p
        self.h = h
        self.q = p**h
        self.irreducible = tuple(c % p for c in irreducible)
        if h == 1:
            self._add = self._neg = self._mul_table = self._inv_table = None
        else:
            self._build_tables()

    # -- construction helpers -------------------------------------------

    def _build_tables(self):
        """The add, mul, neg and inv tables by one recurrence: element a is
        the polynomial a % p + x·(a // p), so add[a][b] = (a + b) % p +
        p·add[a // p][b // p], mul[c][b] = mul[c - 1][b] + b for c < p, and
        mul[a][b] = x·mul[a // p][b] + mul[a % p][b], where x·c shifts c's
        digits up and replaces x^h by x^h minus the modulus.  F_p[x] mod the
        modulus is a field exactly when each nonzero row of mul holds a 1;
        if one does not, the modulus factors: ReduciblePolynomialError."""
        p, q = self.p, self.q
        ints = list(range(q))  # every entry is one of these q objects
        add = [ints]
        for a in range(1, q):
            row = add[a // p]
            add.append([ints[(a + b) % p + p * row[b // p]] for b in range(q)])
        mul = [[0] * q]
        for _ in range(1, p):
            mul.append([add[b][c] for b, c in enumerate(mul[-1])])
        top = q // p
        x_h = self.from_coeffs(-c for c in self.irreducible[:-1])
        times_x = [add[p * (c % top)][mul[c // top][x_h]] for c in range(q)]
        for a in range(p, q):
            mul.append([add[times_x[u]][v] for u, v in zip(mul[a // p], mul[a % p])])
        try:
            inv = [0] + [row.index(1) for row in mul[1:]]
        except ValueError:
            raise ReduciblePolynomialError(f"{list(self.irreducible)} factors over F_{p}") from None
        self._add, self._mul_table, self._inv_table = add, mul, inv
        self._neg = [row.index(0) for row in add]

    # -- element representation -----------------------------------------

    def coeffs(self, a: int):
        """Little-endian base-p digit vector of an element, length h."""
        out = []
        for _ in range(self.h):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        v = 0
        for c in reversed(list(cs)):
            v = v * self.p + c % self.p
        return v

    def check(self, a) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"not an element of GF({self.q}): {a!r}")
        return a

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.h == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.h == 1:
            return -a % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.h == 1:
            return a * b % self.p
        return self._mul_table[a][b]

    def dot(self, u, v) -> int:
        """Σ u_i·v_i: over GF(p) one int sum reduced once, over GF(2^h) an
        XOR of mul-table reads, else the add and mul tables term by term."""
        if self.h == 1:
            return sum(map(operator.mul, u, v)) % self.p
        mul, acc = self._mul_table, 0
        if self.p == 2:
            for a, b in zip(u, v):
                acc ^= mul[a][b]
            return acc
        add = self._add
        for a, b in zip(u, v):
            acc = add[acc][mul[a][b]]
        return acc

    def col_dot(self, us, vs) -> list:
        """[Σ_i u_i[b]·v_i[b] for each position b] of r >= 1 pairs of
        equal-length columns u_i, v_i: one chain of C-level maps over the
        positions, over GF(p) of int products and sums, each position's
        sum reduced once (a comprehension: a map of p.__rmod__ is slower),
        over GF(2^h) of mul-table reads and XOR, else of the add and mul
        tables."""
        if self.h == 1:
            p, acc = self.p, map(operator.mul, us[0], vs[0])
            for u, v in zip(us[1:], vs[1:]):
                acc = map(operator.add, acc, map(operator.mul, u, v))
            return [x % p for x in acc]
        at, mul, add = list.__getitem__, self._mul_table.__getitem__, self._add.__getitem__
        acc = map(at, map(mul, us[0]), vs[0])
        for u, v in zip(us[1:], vs[1:]):
            terms = map(at, map(mul, u), v)
            acc = map(operator.xor, acc, terms) if self.p == 2 else map(at, map(add, acc), terms)
        return list(acc)

    def col_div(self, us, vs) -> list:
        """[u_b / v_b for each position b] of two equal-length columns, no
        v_b zero: over GF(p) a map of int products u·pow(v, -1, p), each
        reduced once, else of inv- and mul-table reads."""
        if self.h == 1:
            p = self.p
            return [x % p for x in map(operator.mul, us, map(pow, vs, repeat(-1), repeat(p)))]
        at, mul, inv = list.__getitem__, self._mul_table.__getitem__, self._inv_table.__getitem__
        return list(map(at, map(mul, us), map(inv, vs)))

    def add_scaled(self, x, c: int, y) -> list:
        """The new list x + c·y; x and y are left as they are."""
        if self.h == 1:
            p = self.p
            return [(a + c * b) % p for a, b in zip(x, y)]
        row = self._mul_table[c]
        if self.p == 2:
            return [a ^ row[b] for a, b in zip(x, y)]
        add = self._add
        return [add[a][row[b]] for a, b in zip(x, y)]

    def convolve(self, f, g, positions, size: int) -> list:
        """The list of length size holding at out[positions[i][j]] the sum
        of f_i·g_j: over GF(p) each term added and reduced at once, over
        GF(2^h) one mul-table row XORed in per nonzero f_i, else the add
        and mul tables."""
        out, terms = [0] * size, [(j, b) for j, b in enumerate(g) if b]
        rows = compress(zip(f, positions), f)  # the terms of nonzero f_i
        if self.h == 1:
            p = self.p
            for a, row in rows:
                for j, b in terms:
                    pos = row[j]
                    out[pos] = (out[pos] + a * b) % p
        elif self.p == 2:
            for a, row in rows:
                products = self._mul_table[a]
                for j, b in terms:
                    out[row[j]] ^= products[b]
        else:
            mul, add = self._mul_table, self._add
            for a, row in rows:
                products = mul[a]
                for j, b in terms:
                    pos = row[j]
                    out[pos] = add[out[pos]][products[b]]
        return out

    def vec_mat(self, matrix):
        """The map v ↦ v·matrix, each matrix row packed into one int with a
        lane per column.  Over GF(p) the lanes are the narrowest array code
        of H, I and Q that holds len(matrix)·(p-1)^2, so v·matrix is one int
        sum of the v_i·row_i, carrying no lane into the next, reduced once
        per lane.  Over GF(2^h), a byte per entry for q <= 256 and two bytes
        above, it is the XOR over the nonzero v_i of c·row_i, built the
        first time (i, c = v_i) is used from row_i's h bit planes, whose
        lanes hold 0 or 1: c·row_i is the XOR over b of plane_b times the
        one element c·x^b, so no lane carries into the next.  Else, or with
        lanes above 64 bits, one dot per column, the columns taken once and
        an all-zero column skipped."""
        # a lane's sum or product carries from its low bytes to its high
        # ones, so ints and arrays meet in the native byte order
        order, cols = sys.byteorder, len(matrix[0]) if matrix else 0
        if self.h == 1 or self.p != 2:
            bound = len(matrix) * (self.p - 1) ** 2
            if self.h > 1 or bound >> 64:
                columns, dot = [c if any(c) else None for c in zip(*matrix)], self.dot
                return lambda v: [0 if c is None else dot(v, c) for c in columns]
            code = next(c for c in "HIQ" if bound < 1 << 8 * array(c).itemsize)
            residue, width = self.p.__rmod__, cols * array(code).itemsize
            packed = [int.from_bytes(array(code, row).tobytes(), order) for row in matrix]

            def combine(v):
                acc = sum(map(operator.mul, v, packed))
                return list(map(residue, array(code, acc.to_bytes(width, order))))

            return combine
        mul, code, bits = self._mul_table, "B" if self.q <= 256 else "H", [1 << b for b in range(self.h)]
        width, ones = cols * array(code).itemsize, int.from_bytes(array(code, [1] * cols).tobytes(), order)
        rows = []  # each row's bit planes, and its multiples c·row by c
        for row in matrix:
            packed = int.from_bytes(array(code, row).tobytes(), order)
            rows.append(([packed >> b & ones for b in range(self.h)], [None] * self.q))

        def combine(v):
            acc = 0
            for c, (planes, scaled) in compress(zip(v, rows), v):
                if scaled[c] is None:  # XOR of planes times the elements c·x^b
                    scaled[c] = reduce(operator.xor, map(operator.mul, planes, map(mul[c].__getitem__, bits)))
                acc ^= scaled[c]
            return array(code, acc.to_bytes(width, order)).tolist()

        return combine

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.h == 1:
            return pow(a, self.p - 2, self.p)
        return self._inv_table[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 0 if e else 1
        e %= self.q - 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and (self.p, self.h, self.irreducible)
            == (other.p, other.h, other.irreducible)
        )

    def __hash__(self):
        return hash((self.p, self.h, self.irreducible))

    def __repr__(self):
        return f"GF({self.q})" if self.h == 1 else f"GF({self.p}^{self.h})"

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "h": self.h, "irreducible": list(self.irreducible)}

    def element_to_json(self, a: int):
        return a if self.h == 1 else list(self.coeffs(a))

    def element_from_json(self, obj) -> int:
        """Parse the canonical form element_to_json writes: a residue int
        for h = 1, else h coefficient ints, each in range(p)."""
        digits = [obj] if self.h == 1 else obj
        if not isinstance(digits, list) or len(digits) != self.h or not all(
            type(c) is int and 0 <= c < self.p for c in digits
        ):
            raise ValueError(f"not a canonical element of {self!r}: {obj!r}")
        return self.from_coeffs(digits)


def make_field(p: int, h: int = 1, irreducible=None) -> GF:
    """Build F_{p^h}, validating primality and irreducibility.

    With no polynomial supplied, h > 1 falls back to the built-in Conway
    table (all prime powers q <= 256).  For h > 1, q may be at most
    MAX_TABLE_Q, and the modulus is checked by GF's own tables.
    """
    if p < 2 or not is_prime(p):
        raise NotPrimeError(f"p = {p} is not prime")
    if h < 1:
        raise ValueError(f"extension degree must be positive, got {h}")
    if h == 1:
        residues = [0, 1] if irreducible is None else [c % p for c in irreducible]
        if residues[:2] != [0, 1] or any(residues[2:]):
            raise ValueError("h = 1 takes no modulus (placeholder [0, 1] only)")
        return GF(p, 1, (0, 1))
    if p ** min(h, MAX_TABLE_Q.bit_length()) > MAX_TABLE_Q:  # p^h, never raised to a huge h
        raise UnsupportedFieldError(f"q = {p}^{h} is above {MAX_TABLE_Q}, too large to tabulate")
    if irreducible is None:
        irreducible = CONWAY_POLYNOMIALS.get((p, h))
        if irreducible is None:
            raise UnsupportedFieldError(
                f"no built-in polynomial for q = {p}^{h}; supply one explicitly"
            )
    irreducible = [c % p for c in irreducible]
    if len(irreducible) != h + 1 or irreducible[-1] != 1:
        raise ReduciblePolynomialError(
            f"modulus must be monic of degree {h}, got {irreducible}"
        )
    return GF(p, h, irreducible)


def field_from_json(obj) -> GF:
    if not isinstance(obj, dict):
        raise ValueError(f"field must be a JSON object, got {obj!r}")
    missing = next((key for key in ("p", "h") if key not in obj), None)
    if missing:
        raise ValueError(f"field object has no key {missing!r}")
    irreducible = obj.get("irreducible")
    if not isinstance(irreducible, (list, type(None))) or not all(
        type(v) is int for v in [obj["p"], obj["h"], *(irreducible or [])]
    ):
        raise ValueError(f"malformed field {obj!r}")
    return make_field(obj["p"], obj["h"], irreducible)
