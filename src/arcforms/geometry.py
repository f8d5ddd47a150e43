"""Projective points, hyperplanes and arcs over F_q.

An arc keeps the exact vector representative each point was constructed
with; all downstream scaling conventions are relative to those frozen
representatives, so arcs never renormalize their points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    """All (q^k - 1)/(q - 1) canonical representatives, deterministic order."""
    for vec in itertools.product(gf.elements(), repeat=k):
        lead = next((c for c in vec if c), None)
        if lead == 1:
            yield vec


@dataclass(frozen=True)
class Arc:
    """Ordered point set of PG(k-1, q) with frozen representatives."""

    gf: GF
    k: int
    points: tuple  # tuple of length-k int tuples, order significant

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
        gf = field_from_json(obj["field"])
        k, points = obj["k"], obj["points"]
        if type(k) is not int or not isinstance(points, list) or not all(
            isinstance(p, list) for p in points
        ):
            raise ValueError("k must be an int and points a list of coordinate lists")
        pts = tuple(tuple(gf.element_from_json(c) for c in p) for p in points)
        return cls(gf, k, pts)


def is_arc(gf: GF, k: int, points):
    """True iff no k of the points lie in a common hyperplane.

    Returns (ok, witness); the witness is the first offending k-tuple of
    indices (a repeated projective point shows up as a singular k-subset).
    """
    for p in points:
        if len(p) != k:
            raise ValueError(f"point {p} does not have {k} coordinates")
        if not any(p):
            raise ValueError("the zero vector is not a projective point")
    for combo in itertools.combinations(range(len(points)), k):
        if linalg.det(gf, [points[i] for i in combo]) == 0:
            return False, combo
    return True, None


def check_arc(arc: Arc) -> None:
    if arc.n < arc.k:
        raise ValueError(f"arc needs at least k = {arc.k} points, has {arc.n}")
    ok, witness = is_arc(arc.gf, arc.k, arc.points)
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
    """
    if not 0 <= idx < arc.n:
        raise IndexError(f"arc index {idx} out of range")
    gf = arc.gf
    x = arc.points[idx]
    j = next(i for i, c in enumerate(x) if c)
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
    """All-maximal-minors-nonzero test of the generator matrix.

    The minor on a column subset is the transpose of the matrix of those
    points, so it has the same determinant, and the is_arc sweep visits
    the subsets in the same order: its result is this test's result.
    Returns (ok, generator, witness) where the witness names the column
    subset of the first vanishing k x k minor, if any.
    """
    ok, witness = is_arc(arc.gf, arc.k, arc.points)
    return ok, mds_generator(arc), witness
