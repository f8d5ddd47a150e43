"""Tangent hyperplanes of an arc and the scaled system of tangent forms.

Every (k-2)-subset S of an arc of size q+k-1-t lies on exactly t
hyperplanes meeting the arc in S only.  The product of their linear forms
is the degree-t tangent form f_S, defined up to a scalar; this module
pins the scalars by a chain rule that walks each subset back to the base
subset E (the first k-2 arc points), and exposes the resulting signed
evaluation function on ordered (k-1)-tuples of arc points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, compress, permutations, product
from math import perm
from operator import ne

from . import forms, linalg
from .field import GF
from .geometry import IN_SPAN, Arc, normalize
from .report import Report


RANDOM_TRIALS = 100  # spot checks per randomized verifier check


class TangentCountError(RuntimeError):
    """A subset met an unexpected number of tangent hyperplanes."""


def perm_parity(seq) -> int:
    """Parity (0 or 1) of the permutation sorting seq ascending."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv ^= 1
    return inv


def _sign_power(gf: GF, parity_bits: int) -> int:
    return gf.neg(1) if parity_bits & 1 else 1


def tuple_position(tup, n: int) -> int:
    """Row-major position of tup in product(range(n), repeat=len(tup))."""
    return sum(i * n ** (len(tup) - 1 - s) for s, i in enumerate(tup))


def tuple_at(pos: int, n: int, m: int) -> list:
    """The tuple at row-major position pos of product(range(n), repeat=m)."""
    return [pos // n ** (m - 1 - i) % n for i in range(m)]


def tuple_positions(n: int, points, order) -> list:
    """For every a in product(points, repeat=m), in order, the row-major
    position in product(range(n), repeat=m) of (a[order[0]], ...,
    a[order[m-1]]), m = len(order)."""
    m, out = len(order), [0]
    for s in range(m):
        weight = n ** (m - 1 - order.index(s))  # that of a[s]
        out = [p + a * weight for p in out for a in points]
    return out


def repeat_positions(n: int, m: int) -> list:
    """The row-major positions in product(range(n), repeat=m), ascending, of
    the tuples with a repeated index: the union over i < j of the tuples
    with a_i = a_j, whose shared index carries both weights."""
    out = set()
    for i, j in combinations(range(m), 2):
        weights = [n ** (m - 1 - s) + (s == i) * n ** (m - 1 - j) for s in range(m) if s != j]
        positions = [0]
        for weight in weights:
            positions = [p + a * weight for p in positions for a in range(n)]
        out.update(positions)
    return sorted(out)


def signed_table(arc: Arc, rows, power: int) -> list:
    """A function on the ordered (k-1)-tuples of arc indices, row-major, from
    its rows on the sorted (k-2)-subsets S (combinations order, one entry
    per arc index): a prefix with a repeat has a zero row, any other the
    row of its sorted form times sgn(sort)^power."""
    rank = {S: r for r, S in enumerate(combinations(range(arc.n), arc.k - 2))}
    rows = [*rows, [0] * arc.n]  # rank -1, a prefix with a repeat
    odd = power % 2 and arc.gf.p != 2  # over GF(2^h), -1 = 1
    signed = (rows, [list(map(arc.gf.neg, row)) for row in rows] if odd else rows)
    prefixes = product(range(arc.n), repeat=arc.k - 2)
    return [v for p in prefixes for v in signed[perm_parity(p)][rank.get(tuple(sorted(p)), -1)]]


def _check_form_size(arc: Arc) -> None:
    if arc.t < 1:
        raise ValueError("arc has t = 0; tangent machinery undefined")
    N = forms.num_monomials(arc.k, arc.t)
    if N > forms.MAX_ENTRIES:
        raise ValueError(f"t = {arc.t}: tangent forms of N = {N} coefficients > {forms.MAX_ENTRIES}")


def check_buildable(arc: Arc) -> None:
    """Raise the ValueError that build_tangent_system raises before its
    first tangent form: t = 0, an arc too small for the scaling recursion,
    or tangent forms of more than forms.MAX_ENTRIES coefficients."""
    if arc.t >= 1 and arc.gf.q + 1 - arc.t < arc.k - 1:
        raise ValueError(
            f"arc too small for the scaling recursion: q+1-t = "
            f"{arc.gf.q + 1 - arc.t} < k-1 = {arc.k - 1}"
        )
    _check_form_size(arc)


def tangent_hyperplanes(arc: Arc, subset):
    """The t hyperplanes through the points of the index subset S that avoid
    the rest of the arc: the members of S's pencil (arc.pencil_at, taken
    once per Arc) that no other arc point lies on, none if one lies
    in S's span.  Raises TangentCountError if the count is off, which
    signals corrupted arc data, and ValueError if f_S would have more than
    forms.MAX_ENTRIES entries."""
    _check_form_size(arc)
    subset = tuple(sorted(subset))
    if len(set(subset)) != arc.k - 2:
        raise ValueError(f"subset must have k-2 = {arc.k - 2} distinct indices")
    gf = arc.gf
    u, v, keys = arc.pencil_at(subset)
    hit = {key for i, key in enumerate(keys) if i not in subset}  # S's own points are IN_SPAN
    tangents = [
        normalize(gf, u if lam is None else gf.add_scaled(v, lam, u))
        for lam in (None, *gf.elements())  # u is keyed None, v + λu by λ
        if lam not in hit and IN_SPAN not in hit
    ]
    if len(tangents) != arc.t:
        raise TangentCountError(
            f"subset {subset}: {len(tangents)} tangent hyperplanes, expected {arc.t}"
        )
    return tangents


@dataclass
class TangentSystem:
    """Scaled tangent forms for every (k-2)-subset of the arc.

    E is the base subset (first k-2 indices), anchor the first index
    outside E; the scaling fixes f_E(anchor) = 1 and chains every other
    subset to E, so all values below are fully deterministic.

    g is tabulated once, in g_table from the values f_S(x_j), and every
    tuple sweep reads that table.  socle_core and g_table are caches
    derived from fS on first use: to try other forms, build a fresh
    TangentSystem from them.  eval_fS reads fS directly.
    """

    arc: Arc
    E: tuple
    anchor: int
    fS: dict  # sorted index tuple -> Form of degree t

    @property
    def gf(self) -> GF:
        return self.arc.gf

    def form(self, subset) -> forms.Form:
        return self.fS[tuple(sorted(subset))]

    @cached_property
    def point_vectors(self) -> list:
        """The degree-t Veronese vector of every arc point, in arc order."""
        return [forms.monomial_vector(self.gf, x, self.arc.t) for x in self.arc.points]

    @cached_property
    def socle(self) -> tuple:
        """(soc, C) from one elimination of the N x n matrix of point_vectors:
        its pivot columns soc, the points raising the rank in arc order, are
        a basis of the arc's Veronese span, column j of the w x n reduced
        rows C is nu(x_j) in that basis, and N - w is dim phi_t."""
        red, pivots = linalg.rref(self.gf, list(zip(*self.point_vectors)))
        return tuple(pivots), red

    @cached_property
    def socle_core(self) -> list:
        """g on every tuple of socle points, row-major: the core whose modes
        the tensor form contracts."""
        soc, _ = self.socle
        positions = tuple_positions(self.arc.n, soc, range(self.arc.k - 1))
        return list(map(self.g_table.__getitem__, positions))

    @cached_property
    def veronese_map(self):
        """The GF.vec_mat map c ↦ [c·v for v in point_vectors]: a degree-t
        form's values at every arc point."""
        return self.gf.vec_mat(list(zip(*self.point_vectors)))

    @cached_property
    def g_table(self) -> list:
        """g on every ordered (k-1)-tuple of arc indices: the signed_table,
        with power t+1, of the rows f_S(x_j), one veronese_map call per S
        with 0 written on S."""
        rows = []
        for S in combinations(range(self.arc.n), self.arc.k - 2):
            rows.append(self.veronese_map(self.fS[S].coeffs))
            for j in S:
                rows[-1][j] = 0
        return signed_table(self.arc, rows, self.arc.t + 1)

    def eval_fS(self, subset, point_index: int) -> int:
        return linalg.dot(self.gf, self.form(subset).coeffs, self.point_vectors[point_index])

    def to_json(self) -> dict:
        gf = self.gf
        return {
            "E": list(self.E),
            "anchor": self.anchor,
            "fS": [
                {"S": list(S), "form": forms.form_to_json(gf, f)}
                for S, f in sorted(self.fS.items())
            ],
        }

    @classmethod
    def from_json(cls, arc: Arc, obj) -> "TangentSystem":
        fS, subsets = {}, set(combinations(range(arc.n), arc.k - 2))
        for entry in obj["fS"]:
            S, f = entry["S"], forms.form_from_json(arc.gf, entry["form"])
            if not (isinstance(S, list) and all(type(i) is int for i in S) and tuple(S) in subsets):
                raise ValueError(f"S = {S} is not a sorted {arc.k - 2}-subset of range({arc.n})")
            if (f.k, f.t) != (arc.k, arc.t):
                raise ValueError(f"the form of S = {S} needs (k, t) = ({arc.k}, {arc.t})")
            fS[tuple(S)] = f
        return cls(arc, tuple(obj["E"]), int(obj["anchor"]), fS)


def scaling_rule(ts: TangentSystem, subset):
    """The chain constraint for a subset S != E.

    Returns (e, a, parent, sign) where e is the first base index missing
    from S, a the last non-base index of S, parent = S u {e} \\ {a}, and
    sign the factor attached to the parity of appending e to sorted S.
    """
    arc, gf = ts.arc, ts.gf
    S = tuple(sorted(subset))
    e = next(i for i in ts.E if i not in S)
    a = max(i for i in S if i not in ts.E)
    parent = tuple(sorted(set(S) - {a} | {e}))
    s = sum(1 for i in S if i > e) & 1  # inversions of (sorted S, e)
    sign = _sign_power(gf, s * (arc.t + 1))
    return e, a, parent, sign


def build_tangent_system(arc: Arc) -> TangentSystem:
    """Compute every scaled tangent form of the arc.

    f_S = c_S·Π h over the tangent hyperplanes h at S, so each f_S(x) is
    c_S·Π h(x).  Subsets are taken by increasing distance r = |S \\ E|,
    so the chain rule only refers to scales already fixed: f_E(anchor) = 1
    and f_S(x_e) = sign·f_parent(x_a).  Then all C(n, k-2) products, each
    scale folded into its first hyperplane, are expanded in one batch.
    """
    check_buildable(arc)
    gf = arc.gf
    E = tuple(range(arc.k - 2))
    anchor = arc.k - 2
    ts = TangentSystem(arc, E, anchor, {})
    members, scale = {}, {}

    def value(S, i):  # Π h(x_i) over the tangent hyperplanes h at S
        return reduce(gf.mul, (linalg.dot(gf, h, arc.points[i]) for h in members[S]))

    order = sorted(combinations(range(arc.n), arc.k - 2), key=lambda S: len(set(S) - set(E)))
    for S in order:
        members[S] = tangent_hyperplanes(arc, S)
        if S == E:
            e, target = anchor, 1
        else:
            e, a, parent, sign = scaling_rule(ts, S)
            target = gf.mul(sign, gf.mul(scale[parent], value(parent, a)))
        # e is an arc point off S, hence on no tangent S-hyperplane
        scale[S] = gf.div(target, value(S, e))
    batch = [[[gf.mul(scale[S], c) for c in members[S][0]], *members[S][1:]] for S in order]
    ts.fS.update(zip(order, forms.product_linear_forms(gf, arc.k, batch)))
    return ts


def verify_scaling_chain(ts: TangentSystem, report: Report | None = None) -> Report:
    """Replay the chain constraint for every subset other than the base."""
    report = report or Report("tangents-scaling", {}, [])
    gf = ts.gf
    chk = report.check("scaling-chain")
    for S in ts.fS:
        if S == ts.E:
            continue
        e, a, parent, sign = scaling_rule(ts, S)
        lhs = ts.eval_fS(S, e)
        rhs = gf.mul(sign, ts.eval_fS(parent, a))
        chk.tally(lhs == rhs, {"S": list(S), "lhs": lhs, "rhs": rhs})
    norm = report.check("base-normalization")
    norm.tally(ts.eval_fS(ts.E, ts.anchor) == 1, {"anchor": ts.anchor})
    return report


def verify_lemma_of_tangents(ts: TangentSystem, seed: int = 0, report: Report | None = None) -> Report:
    """Exhaustive symmetry sweep of the signed evaluation function.

    Checks g(T with positions i, i+1 swapped) = (-1)^(t+1) g(T) for every
    ordered tuple of distinct arc indices and every adjacent transposition,
    then spot-checks full permutations with the sign (-1)^(s(t+1)).  Both
    checks read ts.g_table; a swap is one list of table positions.  g and
    its swaps vanish on every tuple with a repeat, so whole tables are
    compared and only the perm(n, k-1) distinct tuples are counted.
    """
    report = report or Report("tangents-lemma", {}, [])
    arc, gf, g = ts.arc, ts.gf, ts.g_table
    n, m = arc.n, arc.k - 1
    want = g if arc.t % 2 or gf.p == 2 else list(map(gf.neg, g))
    failing = []
    for i in range(m - 1):
        swapped = tuple_positions(n, range(n), (*range(i), i + 1, i, *range(i + 2, m)))
        got = list(map(g.__getitem__, swapped))
        failing += [(pos, i, got[pos]) for pos in compress(range(len(got)), map(ne, got, want))]
    report.check("adjacent-transpositions").tally_many(perm(n, m) * (m - 1), [
        {"tuple": tuple_at(pos, n, m), "swap": i, "got": other} for pos, i, other in sorted(failing)
    ])

    rng = random.Random(seed)
    rnd = report.check("random-permutations")
    tuples = list(combinations(range(n), m))
    perms = list(permutations(range(m)))
    for _ in range(RANDOM_TRIALS):
        T = rng.choice(tuples)
        sigma = rng.choice(perms)
        permuted = [T[s] for s in sigma]
        expected = gf.mul(_sign_power(gf, perm_parity(sigma) * (arc.t + 1)), g[tuple_position(T, n)])
        rnd.tally(g[tuple_position(permuted, n)] == expected, {"tuple": list(T), "sigma": list(sigma)})
    return report


def verify_tangent_counts(arc: Arc, report: Report | None = None) -> Report:
    """Tally that each (k-2)-subset meets t tangent hyperplanes, a dependent
    one failing; t = 0 and oversized forms are refused (ValueError)."""
    report = report or Report("tangent-counts", {}, [])
    chk = report.check("tangent-count")
    _check_form_size(arc)
    for S in combinations(range(arc.n), arc.k - 2):
        try:
            tangent_hyperplanes(arc, S)
            chk.tally(True)
        except (TangentCountError, ValueError) as exc:
            chk.tally(False, {"S": list(S), "error": str(exc)})
    return report
