"""Self-test of the benchmark: layer counts repeat exactly.

    python3 perfbench/selftest.py [--workload suite-pg3-q16] [--seed 0]

Makes two traced runs and one untraced run of one workload with the same
seed, each in its own process.  Checks that all are correct, that every
``.calls`` and ``.cells`` metric, and ``report.tallies``, is identical in
the two traced runs, and that the runs print exactly the metrics that
``BENCHMARK.json`` declares.  Exits with 1 and names what differs
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from repeat import one_run
from workloads import WORKLOADS


def deterministic(name: str) -> bool:
    return name.endswith((".calls", ".cells")) or ".calls." in name or name == "report.tallies"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="suite-pg3-q16", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    first, second = (one_run(args.workload, args.seed, 1, 1) for _ in range(2))
    plain = one_run(args.workload, args.seed, 1, 0)
    runs = (first, second, plain)
    problems = [f"run {i} not correct" for i, r in enumerate(runs) if not r["correct"]]
    for r, key in ((first, "per_layer"), (plain, "end_to_end")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {m: v["unit"] for m, v in r["metrics"].items()}
        if got != want:
            problems.append(f"{key} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(want.items()))}")
    names = sorted(m for m in first["metrics"] if deterministic(m))
    if not names:
        problems.append("no count metrics in the traced output")
    for m in names:
        a, b = first["metrics"][m]["value"], second["metrics"].get(m, {}).get("value")
        if a != b:
            problems.append(f"{m}: {a} != {b}")
    for line in problems:
        print(f"FAIL {line}")
    if problems:
        return 1
    print(f"ok: {len(names)} count metrics identical across two traced runs "
          f"of {args.workload}, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
