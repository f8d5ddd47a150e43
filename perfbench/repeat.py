"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 0-9 [--workload NAME ...]
        [--seconds 35] [--trace-seed 0] [--out FILE]

Each run is a separate ``run.py`` process, one after another.  For every
end-to-end metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  With
``--trace-seed`` one traced run per workload is added, together with the
share of ``cli.main.s`` taken by the layer each workload is meant to
stress (expected above one half).  ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
from workloads import WORKLOADS

# The spans (none nested in another) of the layer each workload stresses;
# together they are expected to take more than half of cli.main.s.
DOMINANT = {
    "suite-pg3-q16": (
        "geometry.is_arc.s", "geometry.mds_check.s", "sbbt.build_sbbt.s", "sbbt.verify_sbbt.s",
    ),
    "suite-pg3-q11-t5": ("tensorform.verify_tensor_form.s",),
    "build-pg3-q11-t6": ("tensorform.build_tensor_form.s", "tensorform.MultiForm.to_json.s"),
}


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    *_, provenance, result = proc.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(provenance)}


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    out = {"commit": run.git_commit(), "source_sha256": run.source_digest(),
           "seconds": args.seconds, "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        runs = [one_run(name, s, args.seconds, 0) for s in parse_seeds(args.seeds)]
        entry = {
            "seeds": parse_seeds(args.seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                m: summarise([r["metrics"][m]["value"] for r in runs])
                for m in runs[0]["metrics"]
            },
            "provenance": [r["provenance"] for r in runs],
        }
        for m, s in entry["metrics"].items():
            print(f"{name:18s} {m:14s} median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}",
                  flush=True)
        if args.trace_seed is not None:
            traced = one_run(name, args.trace_seed, args.seconds, 1)
            layers = {m: v["value"] for m, v in traced["metrics"].items()}
            share = sum(layers[k] for k in DOMINANT[name]) / layers["cli.main.s"]
            entry["trace"] = {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "provenance": traced["provenance"],
                "metrics": layers,
                "dominant_share": {"spans": list(DOMINANT[name]), "share": share},
            }
            print(f"{name:18s} dominant share {share:.3f}, "
                  f"trace overhead {layers['trace.overhead_s']:.3f} s", flush=True)
        out["workloads"][name] = entry
    if args.out:
        run.write_json(args.out, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
