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
from functools import cached_property
from itertools import combinations, permutations

from . import forms, linalg
from .field import GF
from .geometry import Arc, normalize
from .report import Report


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


def tangent_hyperplanes(arc: Arc, subset):
    """The t hyperplanes through the points of the index subset S that avoid
    the rest of the arc.  With {u, v} a kernel basis of S's points, they are
    the members of the pencil u, v + λu that no other arc point x lies on: x
    lies on u if u·x = 0, else on the one with λ = -(v·x)/(u·x), and on all
    of them if u·x = v·x = 0.  Raises TangentCountError if the count is off,
    which signals corrupted arc data."""
    if arc.t < 1:
        raise ValueError("arc has t = 0; tangent machinery undefined")
    subset = tuple(sorted(subset))
    if len(set(subset)) != arc.k - 2:
        raise ValueError(f"subset must have k-2 = {arc.k - 2} distinct indices")
    gf = arc.gf
    rk, basis = linalg.nullspace(gf, [arc.points[i] for i in subset], ncols=arc.k)
    if rk != arc.k - 2:
        raise ValueError("span points are linearly dependent")
    u, v = basis
    free = dict.fromkeys([None, *gf.elements()])  # u is keyed None, v + λu by λ
    for x in (x for i, x in enumerate(arc.points) if i not in subset):
        a, b = linalg.dot(gf, u, x), linalg.dot(gf, v, x)
        if not (a or b):
            free.clear()
        free.pop(gf.div(gf.neg(b), a) if a else None, None)
    tangents = [
        normalize(gf, u if lam is None else [gf.add(vc, gf.mul(lam, uc)) for vc, uc in zip(v, u)])
        for lam in free
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

    Subsets are processed by increasing distance r = |S \\ E| so the chain
    rule only ever refers to forms already scaled; the base form is
    normalized to take value 1 at the anchor point.
    """
    if arc.t < 1:
        raise ValueError("arc has t = 0; tangent machinery undefined")
    if arc.gf.q + 1 - arc.t < arc.k - 1:
        raise ValueError(
            f"arc too small for the scaling recursion: q+1-t = "
            f"{arc.gf.q + 1 - arc.t} < k-1 = {arc.k - 1}"
        )
    gf = arc.gf
    E = tuple(range(arc.k - 2))
    anchor = arc.k - 2
    ts = TangentSystem(arc, E, anchor, {})
    for S in sorted(combinations(range(arc.n), arc.k - 2), key=lambda S: len(set(S) - set(E))):
        p_S = forms.product_linear_forms(gf, arc.k, tangent_hyperplanes(arc, S))
        if S == E:
            e, target = anchor, 1
        else:
            e, a, parent, sign = scaling_rule(ts, S)
            target = gf.mul(sign, ts.eval_fS(parent, a))
        # e is an arc point off S, hence on no tangent S-hyperplane
        denom = linalg.dot(gf, p_S.coeffs, ts.point_vectors[e])
        ts.fS[S] = forms.form_scale(gf, gf.div(target, denom), p_S)
    return ts


def g_value(ts: TangentSystem, indices) -> int:
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


def verify_lemma_of_tangents(
    ts: TangentSystem,
    seed: int = 0,
    random_trials: int = 100,
    report: Report | None = None,
) -> Report:
    """Exhaustive symmetry sweep of the signed evaluation function.

    Checks g(T with positions i, i+1 swapped) = (-1)^(t+1) g(T) for every
    ordered tuple of distinct arc indices and every adjacent transposition,
    then spot-checks full permutations with the sign (-1)^(s(t+1)).  A
    permutation of a tuple of distinct indices is again one, so g is
    tabulated once over those tuples and both checks look values up.
    """
    report = report or Report("tangents-lemma", {}, [])
    arc, gf = ts.arc, ts.gf
    m = arc.k - 1
    swap_sign = _sign_power(gf, arc.t + 1)
    g = {tup: g_value(ts, tup) for tup in permutations(range(arc.n), m)}

    chk = report.check("adjacent-transpositions")
    for tup, base in g.items():
        for i in range(m - 1):
            other = g[tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2 :]]
            chk.tally(
                other == gf.mul(swap_sign, base),
                {"tuple": list(tup), "swap": i, "got": other},
            )

    rng = random.Random(seed)
    rnd = report.check("random-permutations")
    tuples = list(combinations(range(arc.n), m))
    perms = list(permutations(range(m)))
    for _ in range(random_trials):
        T = rng.choice(tuples)
        sigma = rng.choice(perms)
        permuted = tuple(T[sigma[i]] for i in range(m))
        expected = gf.mul(_sign_power(gf, perm_parity(sigma) * (arc.t + 1)), g[T])
        rnd.tally(
            g[permuted] == expected,
            {"tuple": list(T), "sigma": list(sigma)},
        )
    return report


def verify_tangent_counts(arc: Arc, report: Report | None = None) -> Report:
    report = report or Report("tangent-counts", {}, [])
    chk = report.check("tangent-count")
    for S in combinations(range(arc.n), arc.k - 2):
        try:
            tangent_hyperplanes(arc, S)
            chk.tally(True)
        except TangentCountError as exc:
            chk.tally(False, {"S": list(S), "error": str(exc)})
    return report
