"""The arcforms benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite-pg3-q16 --seed 3 --seconds 35 --trace 0

Runs from the root of a checkout and drives ``arcforms.cli.main``
in-process (one process, one thread) from the checkout's ``src/``.  Passes
of the workload run back to back (closed loop, one client) until
``--seconds`` have passed; every pass is checked against the reference
recorded in ``perfbench/reference/<workload>.json`` by ``record.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (median of several set-ups: import of arcforms, field
construction, input generation), ``wall_s`` (median wall time of one pass)
and ``peak_rss_mib``.  Both times are scaled to a reference CPU speed
measured by a fixed probe kernel (see ``speed_probe``); the raw times are
kept in the full record.  With ``--trace 1`` the untraced passes run for half
the time and are followed by a span pass and a field-count pass (see
``spans.py``); the last line then carries the per-layer metrics.  A full
record with provenance goes to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

import spans as spans_mod
from workloads import (
    WORK_DIR,
    WORKLOADS,
    INSTANCES,
    generate_arc,
    instance_of,
    pass_argvs,
    sha256_file,
    write_json,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")

SETUP_REPEATS = 15
# speed_probe() repeats its kernel PROBE_REPS times.  PROBE_REF_S is its
# median on the host the first baseline was measured on (2-vCPU Xeon VM,
# CPython 3.11); wall_s and setup_s are reported in seconds at that speed.
PROBE_REPS = 40
PROBE_REF_S = 0.057
FIELD_SAMPLE = 20000
FIELD_REPEATS = 5

# Per-layer metrics printed with --trace 1, in BENCHMARK.json order.
FIELD_CALLS = ("add", "sub", "neg", "mul", "inv", "pow")
FIELD_NS = ("add", "sub", "neg", "mul", "inv")
DET_SIZES = (2, 3, 4)
SPAN_TIMES = (
    "linalg.det", "linalg.rref", "linalg.inverse",
    "forms.evaluate", "forms.vanishing_subspace",
    "geometry.is_arc", "geometry.mds_check",
    "tangents.build_tangent_system", "tangents.verify_tangent_counts",
    "tangents.verify_scaling_chain", "tangents.verify_lemma_of_tangents",
    "tensorform.build_tensor_form", "tensorform.socle",
    "tensorform.extend_basis", "tensorform.verify_tensor_form",
    "tensorform.permute_blocks", "tensorform.evaluation_table",
    "tensorform.partial_evaluate", "tensorform.MultiForm.to_json",
    "sbbt.build_sbbt", "sbbt.verify_sbbt", "sbbt.classify_hyperplanes",
    "sbbt.residual_form",
    "cli.main",
)
CALL_COUNTS = (
    "linalg.det", "linalg.rref", "linalg.dot",
    "forms.evaluate", "forms.monomial_vector", "forms.form_mul",
    "geometry.hyperplanes_through",
    "tangents.tangent_hyperplanes", "tangents.g_value",
    "tensorform.evaluation_table", "tensorform.partial_evaluate",
    "sbbt.evaluate_G",
)


def load_arcforms():
    """Import arcforms afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "arcforms" or m.startswith("arcforms.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("arcforms")
    importlib.import_module("arcforms.cli")
    return pkg


def matches_reference(rep: dict, ref: dict) -> bool:
    """Every field recorded in the reference must be reproduced exactly;
    fields added to the report later are ignored.  ``inputs`` may gain
    keys, but the recorded ones must keep their values."""
    for key, want in ref.items():
        got = rep.get(key)
        if key == "inputs" and isinstance(got, dict):
            got = {k: got.get(k) for k in want}
        if got != want:
            return False
    return True


def run_pass(cli, argvs):
    """Run the CLI calls of one pass.  Returns (wall seconds, outputs)."""
    outputs, wall = [], 0.0
    for argv, _ in argvs:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
        except Exception:  # a crash is a failed pass, not a failed run
            traceback.print_exc(file=sys.stderr)
            code = None
        wall += time.perf_counter() - start
        outputs.append((code, out.getvalue()))
    return wall, outputs


def check_pass(argvs, outputs, ref_reports, ref_artifacts):
    """Problems with one pass's outputs (empty when it is correct).

    Returns (problems, reports)."""
    problems, reports = [], []
    for i, ((argv, artifact), (code, text)) in enumerate(zip(argvs, outputs)):
        label = " ".join(argv[:2])
        if code != 0:
            problems.append(f"{label}: exit code {code}")
            continue
        try:
            rep = json.loads(text)
        except json.JSONDecodeError:
            problems.append(f"{label}: stdout is not a JSON report")
            continue
        reports.append(rep)
        if rep.get("passed") is not True:
            problems.append(f"{label}: report not passed")
        if not matches_reference(rep, ref_reports[i]):
            problems.append(f"{label}: report differs from the reference")
        if artifact is not None and sha256_file(artifact) != ref_artifacts[i]:
            problems.append(f"{label}: artifact digest differs from the reference")
    return problems, reports


def _probe_kernel(p=251, n=48):
    """Gaussian elimination mod p on a fixed n x n matrix through small
    function calls: the instruction mix of the field and linalg loops."""

    def mul(a, b):
        return a * b % p

    def sub(a, b):
        return (a - b) % p

    m = [[(i * 31 + j * 17 + i * j + 1) % p for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            continue
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = mul(m[r][col], inv)
            if f:
                m[r] = [sub(x, mul(f, y)) for x, y in zip(m[r], m[col])]


def speed_probe() -> float:
    """Seconds a fixed kernel takes at the host's current CPU speed.

    On a shared host the speed of one vCPU drifts by a quarter or more
    over tens of seconds, and every pass of a run slows with it.  The
    probe runs between passes, never inside one, and takes about 60 ms.
    A pass is scaled by the mean of the probes just before and after it.
    """
    start = time.perf_counter()
    for _ in range(PROBE_REPS):
        _probe_kernel()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` converted to the reference speed of ``PROBE_REF_S``."""
    return seconds * 2 * PROBE_REF_S / (before + after)


def field_microbench(gf, rng: random.Random):
    """ns per call of each GF op over a seeded operand sample."""
    a = [rng.randrange(gf.q) for _ in range(FIELD_SAMPLE)]
    b = [rng.randrange(gf.q) for _ in range(FIELD_SAMPLE)]
    nz = [rng.randrange(1, gf.q) for _ in range(FIELD_SAMPLE)]
    out = {}
    for op in FIELD_NS:
        fn = getattr(gf, op)
        samples = []
        for _ in range(FIELD_REPEATS):
            if op == "inv":
                start = time.perf_counter()
                for x in nz:
                    fn(x)
            elif op == "neg":
                start = time.perf_counter()
                for x in a:
                    fn(x)
            else:
                start = time.perf_counter()
                for x, y in zip(a, b):
                    fn(x, y)
            samples.append(time.perf_counter() - start)
        out[op] = statistics.median(samples) / FIELD_SAMPLE * 1e9
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "arcforms")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def trace_metrics(pkg, cli, argvs, field_ns, untraced_wall):
    """Run the span pass and the field-count pass.

    ``untraced_wall`` is the untraced ``wall_s``, at reference speed.
    Returns (metrics, pass records, tracer of the span pass)."""
    tracer = spans_mod.Tracer()
    tracer.install(pkg)
    before = speed_probe()
    try:
        span_wall, span_out = run_pass(cli, argvs)
    finally:
        tracer.restore()
    after = speed_probe()
    counter = spans_mod.Tracer()
    counter.install(pkg, field_ops=True)
    try:
        count_wall, count_out = run_pass(cli, argvs)
    finally:
        counter.restore()

    inclusive, self_time = tracer.times()
    c = tracer.counts
    m = {}
    for op in FIELD_CALLS:
        m[f"field.{op}.calls"] = metric(counter.counts[f"field.{op}"], "count")
    for op in FIELD_NS:
        m[f"field.{op}.ns"] = metric(field_ns[op], "ns")
    for n in DET_SIZES:
        m[f"linalg.det.calls.{n}x{n}"] = metric(c[f"linalg.det.calls.{n}x{n}"], "count")
    m["linalg.rref.cells"] = metric(c["linalg.rref.cells"], "count")
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = metric(c[name], "count")
    for name in SPAN_TIMES:
        m[f"{name}.s"] = metric(inclusive[name], "s")
    m["cli.self.s"] = metric(self_time["cli.main"], "s")
    overhead = scaled(inclusive["cli.main"], before, after) - untraced_wall
    m["trace.overhead_s"] = metric(overhead, "s")
    return m, [(span_wall, span_out), (count_wall, count_out)], tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arcforms", "cli.py")):
        print(f"error: no arcforms sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(REFERENCE_DIR, f"{args.workload}.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read the reference outputs: {exc}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    wl = WORKLOADS[args.workload]
    instance = instance_of(args.seed)
    load_before = os.getloadavg()

    # -- set-up, repeated; the median is the metric -------------------------
    arc_path, argvs = pass_argvs(wl, args.seed)
    setup = []
    setup_probe = speed_probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = load_arcforms()
        gf, arc_json = generate_arc(pkg, wl, args.seed)
        write_json(arc_path, arc_json)
        setup.append(time.perf_counter() - start)
    if not os.path.realpath(pkg.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: arcforms imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cli = pkg.cli

    # -- input validation, outside every timed region -----------------------
    problems = []
    arc = pkg.Arc.from_json(arc_json)
    ok, witness = pkg.is_arc(arc.gf, arc.k, arc.points)
    if not ok:
        problems.append(f"generated points {witness} lie in a common hyperplane")
    if (arc.gf.q, arc.k, arc.n, arc.t) != (wl.q, wl.k, wl.n, wl.t):
        problems.append("generated arc has the wrong size")
    ref_reports = reference["reports"]
    ref_inst = reference["instances"].get(str(instance), {})
    if len(reference["instances"]) != INSTANCES:
        problems.append("the reference does not cover every instance")
    if sha256_file(arc_path) != ref_inst.get("arc"):
        problems.append("generated arc differs from the recorded input")
    ref_artifacts = ref_inst.get("artifacts", [None] * len(argvs))

    # -- timed passes --------------------------------------------------------
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, failed, pass_problems = [], 0, []
    probes = [speed_probe()]
    setup_s = scaled(statistics.median(setup), setup_probe, probes[0])
    begin = time.perf_counter()
    while True:
        wall, outputs = run_pass(cli, argvs)
        walls.append(wall)
        probes.append(speed_probe())
        bad, _ = check_pass(argvs, outputs, ref_reports, ref_artifacts)
        if bad:
            failed += 1
            pass_problems.extend(bad)
        # Stop at the pass boundary nearest the end of the budget.
        if time.perf_counter() - begin + statistics.median(walls) / 2 >= budget:
            break
    attempted = len(walls)
    # Each pass is scaled by the probes taken just before and after it.
    scaled_walls = [scaled(w, a, b) for w, a, b in zip(walls, probes, probes[1:])]
    wall_s = statistics.median(scaled_walls)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "instance": instance,
        "sizes": wl.sizes(),
        "trace": args.trace,
        "seconds": args.seconds,
        "pass_walls_s": walls,
        "probes_s": probes,
        "scaled_walls_s": scaled_walls,
        "setup_probe_s": setup_probe,
        "setup_samples_s": setup,
    }
    if args.trace:
        field_ns = field_microbench(gf, random.Random(f"field:{wl.name}:{instance}"))
        metrics, traced, tracer = trace_metrics(pkg, cli, argvs, field_ns, wall_s)
        tallies = None
        for wall, outputs in traced:
            attempted += 1
            bad, reports = check_pass(argvs, outputs, ref_reports, ref_artifacts)
            if bad:
                failed += 1
                pass_problems.extend(bad)
            tallies = sum(ch["total"] for rep in reports for ch in rep.get("checks", []))
        metrics["report.tallies"] = metric(tallies or 0, "count")
        span_path = os.path.join(WORK_DIR, "results", f"{wl.name}.spans.jsonl")
        tracer.write_spans(span_path)
        record["span_file"] = span_path
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mib": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
            ),
        }

    problems.extend(pass_problems[:20])
    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    record.update({
        "provenance": {
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "passes": attempted,
            "seed": args.seed,
        },
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    })
    out_path = os.path.join(
        WORK_DIR, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    )
    write_json(out_path, record)
    print(json.dumps({"provenance": record["provenance"], "sizes": record["sizes"]}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
