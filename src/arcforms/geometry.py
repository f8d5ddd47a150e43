"""Projective points, hyperplanes and arcs over F_q.

An arc keeps the exact vector representative each point was constructed
with; all downstream scaling conventions are relative to those frozen
representatives, so arcs never renormalize their points.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .field import GF, field_from_json


def normalize(gf: GF, vec):
    """Scale so the first nonzero coordinate is 1 (canonical representative)."""
    lead = next((c for c in vec if c), None)
    if lead is None:
        raise ValueError("cannot normalize the zero vector")
    if lead == 1:
        return tuple(vec)
    inv = gf.inv(lead)
    return tuple(gf.mul(inv, c) for c in vec)


def projective_points(gf: GF, k: int):
    """All (q^k - 1)/(q - 1) canonical representatives in lexicographic
    order: the leading 1 from the last position to the first, any tail."""
    for i in reversed(range(k)):
        for tail in itertools.product(gf.elements(), repeat=k - 1 - i):
            yield (0,) * i + (1,) + tail


@dataclass(frozen=True)
class Arc:
    """Ordered point set of PG(k-1, q) with frozen representatives."""

    gf: GF
    k: int
    points: tuple  # tuple of length-k int tuples, order significant

    @cached_property
    def pencils(self) -> dict:
        """Sorted (k-2)-subset S ↦ its pencil (u, v, keys), or None if S is
        dependent: pencil_batch of every S at once, on first use."""
        return pencil_batch(self.gf, self.k, self.points)

    def pencil_at(self, S):
        """The pencil of the sorted (k-2)-subset S, off Arc.pencils;
        ValueError if S is dependent."""
        found = self.pencils[S]
        if found is None:
            raise ValueError("span points are linearly dependent")
        return found

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def t(self) -> int:
        return self.gf.q + self.k - 1 - self.n

    def to_json(self) -> dict:
        return {
            "field": self.gf.to_json(),
            "k": self.k,
            "points": [
                [self.gf.element_to_json(c) for c in p] for p in self.points
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "Arc":
        if not isinstance(obj, dict):
            raise ValueError(f"an arc must be a JSON object, got {type(obj).__name__}")
        missing = next((key for key in ("field", "k", "points") if key not in obj), None)
        if missing:
            raise ValueError(f"arc object has no key {missing!r}")
        gf = field_from_json(obj["field"])
        k, points = obj["k"], obj["points"]
        if type(k) is not int or not isinstance(points, list) or not all(
            isinstance(p, list) for p in points
        ):
            raise ValueError("k must be an int and points a list of coordinate lists")
        if k < 2:
            raise ValueError(f"an arc needs k >= 2 coordinates, got k = {k}")
        if any(len(p) != k for p in points):
            raise ValueError(f"every point of an arc with k = {k} needs {k} coordinates")
        pts = tuple(tuple(gf.element_from_json(c) for c in p) for p in points)
        return cls(gf, k, pts)


IN_SPAN = object()  # the pencil key of a point in the span: it is on every member


def pencil_batch(gf: GF, k: int, points) -> dict:
    """The pencil of every sorted (k-2)-subset S of the points, off one
    linalg._minors table: S ↦ (u, v, keys), or None if no (k-2)-minor of
    S is nonzero.  {u, v} is linalg.nullspace's reduced basis of S's
    kernel: its pivot set P is the Gale-largest column set with a nonzero
    minor (the greedy pick, from the last column, of nullspace's
    reversed-column rref), u has 1 at the lower free column and 0 at the
    other, v the reverse, and the pivot coordinate at P_j is a signed
    minor over minor(P) (Cramer's rule), one GF.col_dot over the subsets
    that share P.  keys[i] names the member the i-th point x lies on:
    None for u, λ = -(v·x)/(u·x) for v + λu, and IN_SPAN if u·x = v·x = 0,
    read off one GF.vec_mat map over every u and one over every -v,
    applied once per point, and one GF.col_div per point."""
    subsets = list(itertools.combinations(range(len(points)), k - 2))
    if not subsets:
        return {}
    minors = linalg._minors(gf, [[points[i] for i in S] for S in subsets], k)
    order = sorted(minors, key=lambda cols: cols[::-1], reverse=True)  # Gale-largest first
    groups = {}  # pivot set, None if S is dependent -> the subsets taking it
    for s, column in enumerate(zip(*(minors[cols] for cols in order))):
        groups.setdefault(next(itertools.compress(order, column), None), []).append(s)
    m, minus, dependent = len(subsets), gf.neg(1), set(groups.pop(None, ()))
    us, vs = [[0] * k] * m, [[0] * k] * m  # a dependent S keeps zero vectors
    for P, idx in groups.items():
        zeros, ones = [0] * len(idx), [1] * len(idx)
        inv = gf.col_div(ones, list(map(minors[P].__getitem__, idx)))
        signed = (gf.col_dot([inv], [[minus] * len(idx)]), inv)  # by the parity of i + j
        basis = []
        for f, other in itertools.permutations((c for c in range(k) if c not in P), 2):
            coords = [None] * k
            coords[f], coords[other] = ones, zeros
            for j, c in enumerate(P):
                Q = tuple(sorted(P[:j] + P[j + 1 :] + (f,)))  # column c of P replaced by f
                minor = list(map(minors[Q].__getitem__, idx))
                coords[c] = gf.col_dot([minor], [signed[(Q.index(f) + j) % 2]])
            basis.append(zip(*coords))
        for s, u, v in zip(idx, *basis):
            us[s], vs[s] = list(u), list(v)
    at_u = gf.vec_mat(list(zip(*us)))
    at_v = gf.vec_mat([gf.col_dot([c], [[minus] * m]) for c in zip(*vs)])  # c·x ↦ -(v·x)
    rows = []
    for x in points:
        a, b = at_u(x), at_v(x)
        zeros = list(itertools.compress(range(m), map(operator.not_, a)))
        for s in zeros:
            a[s] = 1
        rows.append(gf.col_div(b, a))
        for s in zeros:
            rows[-1][s] = None if b[s] else IN_SPAN
    return {
        S: None if s in dependent else (us[s], vs[s], list(keys))
        for s, (S, keys) in enumerate(zip(subsets, zip(*rows)))
    }


def is_arc(gf: GF, k: int, points):
    """arc_witness of the points as an Arc: (ok, witness)."""
    return arc_witness(Arc(gf, k, tuple(points)))


def arc_witness(arc: Arc):
    """(ok, witness): ok iff no k of the arc's points lie in a common
    hyperplane, the witness the first offending k-tuple of indices in
    combinations order (a repeated projective point shows up as a singular
    k-subset).  The k-subsets are S + (a, b), S a (k-2)-subset and a < b
    after it: S + (a, b) is singular iff S is dependent, or a or b lies in
    S's span, or both lie on the same member of S's pencil (arc.pencils).
    """
    k, n = arc.k, arc.n
    for p in arc.points:
        if len(p) != k:
            raise ValueError(f"point {p} does not have {k} coordinates")
        if not any(p):
            raise ValueError("the zero vector is not a projective point")
    if k < 2:  # a 1x1 minor is the point's one nonzero coordinate
        return True, None
    for S in itertools.combinations(range(n - 2), k - 2):
        start = S[-1] + 1 if S else 0
        pencil = arc.pencils[S]  # None if S is dependent: every S + (a, b) is singular
        keys = [IN_SPAN] * (n - start) if pencil is None else pencil[2][start:]
        if len({*keys, IN_SPAN}) <= len(keys):  # two keys equal, or one IN_SPAN
            pairs = itertools.combinations(range(len(keys)), 2)
            a, b = next((a, b) for a, b in pairs if len({keys[a], keys[b], IN_SPAN}) < 3)
            return False, S + (start + a, start + b)
    return True, None


def check_arc(arc: Arc) -> None:
    if arc.n < arc.k:
        raise ValueError(f"arc needs at least k = {arc.k} points, has {arc.n}")
    ok, witness = arc_witness(arc)
    if not ok:
        raise ValueError(f"points {witness} lie in a common hyperplane")


def arc_from_points(gf: GF, k: int, points, validate: bool = True) -> Arc:
    arc = Arc(gf, k, tuple(tuple(gf.check(c) for c in p) for p in points))
    if validate:
        check_arc(arc)
    return arc


def normal_rational_curve(gf: GF, k: int) -> Arc:
    """The size-(q+1) arc (1, s, ..., s^{k-1}) for s in F_q, plus (0,...,0,1).

    Field elements are taken in the canonical order 0, 1, ..., q-1 (for
    extensions: little-endian coefficient counting), so the arc is the same
    in every run.
    """
    if k < 2:
        raise ValueError("ambient dimension k must be at least 2")
    if k > gf.q + 1:
        raise ValueError(f"k = {k} exceeds q + 1 = {gf.q + 1}; no such arc")
    pts = [tuple(gf.pow(s, j) for j in range(k)) for s in gf.elements()]
    pts.append(tuple([0] * (k - 1) + [1]))
    return Arc(gf, k, tuple(pts))


def conic(gf: GF) -> Arc:
    return normal_rational_curve(gf, 3)


def hyperoval(gf: GF) -> Arc:
    """Conic plus nucleus (0, 1, 0); only exists for q even (t = 0)."""
    if gf.p != 2:
        raise ValueError("hyperovals require even q")
    base = normal_rational_curve(gf, 3)
    return Arc(gf, 3, base.points + ((0, 1, 0),))


def project(arc: Arc, idx: int) -> Arc:
    """Project the arc from its idx-th point into PG(k-2, q).

    Drops coordinate j, the first nonzero coordinate of the centre x, and
    maps every other point a to (a_i x_j - a_j x_i) for i != j.  Point
    order is preserved (centre removed); size drops by one and t is kept.
    An arc of PG(1, q) has no image: it would have k = 1 coordinates.
    """
    if arc.k < 3:
        raise ValueError(f"projection needs k >= 3, got k = {arc.k}: the image would not be an arc")
    if not 0 <= idx < arc.n:
        raise IndexError(f"arc index {idx} out of range")
    gf = arc.gf
    x = arc.points[idx]
    j = next((i for i, c in enumerate(x) if c), None)
    if j is None:
        raise ValueError("cannot project from the zero vector")
    imgs = []
    for pos, a in enumerate(arc.points):
        if pos == idx:
            continue
        imgs.append(
            tuple(
                gf.sub(gf.mul(a[i], x[j]), gf.mul(a[j], x[i]))
                for i in range(arc.k)
                if i != j
            )
        )
    return Arc(gf, arc.k - 1, tuple(imgs))


def mds_generator(arc: Arc):
    """The k x n generator matrix with arc representatives as columns."""
    return [[p[r] for p in arc.points] for r in range(arc.k)]


def mds_check(arc: Arc):
    """All-maximal-minors-nonzero test of the generator matrix: the minor on
    a column subset is the determinant of those points, so this is arc_witness.
    Returns (ok, generator, witness) where the witness names the column
    subset of the first vanishing k x k minor, if any.
    """
    ok, witness = arc_witness(arc)
    return ok, mds_generator(arc), witness
