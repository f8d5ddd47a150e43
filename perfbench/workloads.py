"""Workload definitions and the seeded input generator.

Every workload runs the ``arcforms`` CLI in-process on one arc of PG(3, q)
(k = 4).  The arc is the normal rational curve mapped by a seeded random
matrix of GL(k, q), with every representative rescaled by a seeded nonzero
scalar and, when the workload asks for fewer than q + 1 points, seeded
points deleted.  All arcs of one workload are projectively equivalent, so
the work a pass does is the same for every seed up to data-dependent
shortcuts (zero skipping) in the field and linear-algebra loops.

Reference outputs are recorded for ``INSTANCES`` instances per workload;
``--seed n`` builds instance ``n % INSTANCES`` so that any seed can be
checked against a recorded reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from math import comb

INSTANCES = 100

# Where generated arcs and written artifacts live, relative to the
# checkout root (the benchmark runs with the root as working directory).
WORK_DIR = os.path.join("perfbench", ".work")


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    h: int
    k: int
    n: int
    # "suite" runs `arcforms suite`; "build" runs `tangents build -o` then
    # `tensor build -o`.
    mode: str

    @property
    def q(self) -> int:
        return self.p**self.h

    @property
    def t(self) -> int:
        return self.q + self.k - 1 - self.n

    @property
    def N(self) -> int:
        return comb(self.k + self.t - 1, self.t)

    def sizes(self) -> dict:
        return {"q": self.q, "k": self.k, "n": self.n, "t": self.t, "N": self.N}


# The cost of every object (tangent system, tensor form F, dual form phi)
# is driven by the field (prime or extension), by k and by t; the three
# workloads vary exactly those and stress different layers.  Why each was
# chosen is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # GF(2^4), t=2: det sweeps, extension-field neg/sub, dual-form verifier.
        Workload("suite-pg3-q16", 2, 4, 4, 17, "suite"),
        # GF(11), t=5, N=56: the dense tensor-form verifier; no dual form.
        Workload("suite-pg3-q11-t5", 11, 1, 4, 9, "suite"),
        # GF(11), t=6, N=84: the write path, basis extension and 4 MB JSON.
        Workload("build-pg3-q11-t6", 11, 1, 4, 8, "build"),
    )
}


def instance_of(seed: int) -> int:
    return seed % INSTANCES


def _random_frame(gf, linalg, points, rng: random.Random):
    """A seeded matrix of GL(k, q) whose rows vanish at none of the points.

    Mapped by it, no point has a zero coordinate.  Zero coordinates make
    the Veronese vectors sparse, and elimination work on them then varies
    from seed to seed by a quarter; with them excluded, every instance of
    a workload does nearly the same work.
    """
    k = len(points[0])
    while True:
        A = []
        while len(A) < k:
            row = [rng.randrange(gf.q) for _ in range(k)]
            if all(linalg.dot(gf, row, x) for x in points):
                A.append(row)
        if linalg.det(gf, A):
            return A


def generate_arc(arcforms, wl: Workload, seed: int):
    """Build the workload's arc for ``seed`` with the arcforms public API.

    Returns (gf, arc JSON object).  Validation with ``is_arc`` is left to
    the caller so that it can stay outside every timed region.
    """
    linalg = arcforms.linalg
    rng = random.Random(f"{wl.name}:{instance_of(seed)}")
    gf = arcforms.make_field(wl.p, wl.h)
    base = arcforms.normal_rational_curve(gf, wl.k).points
    A = _random_frame(gf, linalg, base, rng)
    points = []
    for x in base:
        lam = rng.randrange(1, gf.q)
        points.append([gf.mul(lam, c) for c in linalg.mat_vec(gf, A, x)])
    drop = set(rng.sample(range(len(points)), len(points) - wl.n))
    points = [pt for i, pt in enumerate(points) if i not in drop]
    arc = arcforms.arc_from_points(gf, wl.k, points, validate=False)
    return gf, arc.to_json()


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pass_argvs(wl: Workload, seed: int):
    """The CLI invocations of one pass: list of (argv, artifact path or None)."""
    arc_path = os.path.join(WORK_DIR, f"{wl.name}.arc.json")
    if wl.mode == "suite":
        return arc_path, [(["suite", arc_path, "--seed", str(seed)], None)]
    ts_path = os.path.join(WORK_DIR, f"{wl.name}.tangents.json")
    mf_path = os.path.join(WORK_DIR, f"{wl.name}.tensor.json")
    return arc_path, [
        (["tangents", "build", arc_path, "-o", ts_path], ts_path),
        (["tensor", "build", arc_path, "-o", mf_path], mf_path),
    ]
