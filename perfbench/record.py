"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/record.py [--workload NAME ...]

For each workload and each of its ``INSTANCES`` seeded inputs this
generates the arc, checks it with ``is_arc``, runs one pass and stores the
digest of the arc file, the SHA-256 of every written artifact and the
reports without their timing field, in ``perfbench/reference/<name>.json``.
The arcs of one workload are projectively equivalent, so their reports
must be identical; they are stored once and recording stops if they
differ.  Record only at a commit whose outputs are known to be right: a
change that claims a speed-up must reproduce these outputs, not re-record
them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from workloads import INSTANCES, WORKLOADS, generate_arc, pass_argvs, sha256_file, write_json


def record(pkg, wl) -> dict:
    reports, instances = None, {}
    for inst in range(INSTANCES):
        arc_path, argvs = pass_argvs(wl, inst)
        _, arc_json = generate_arc(pkg, wl, inst)
        write_json(arc_path, arc_json)
        arc = pkg.Arc.from_json(arc_json)
        ok, witness = pkg.is_arc(arc.gf, arc.k, arc.points)
        if not ok or arc.n != wl.n:
            raise SystemExit(f"{wl.name} instance {inst}: bad arc ({witness})")
        _, outputs = run.run_pass(pkg.cli, argvs)
        got = []
        for (argv, _), (code, text) in zip(argvs, outputs):
            rep = json.loads(text) if code == 0 else None
            if rep is None or rep.get("passed") is not True:
                raise SystemExit(f"{wl.name} instance {inst}: {argv[:2]} did not pass")
            got.append({k: v for k, v in rep.items() if k != "elapsed_ms"})
        if reports is None:
            reports = got
        elif got != reports:
            raise SystemExit(f"{wl.name} instance {inst}: reports differ from instance 0")
        instances[str(inst)] = {
            "arc": sha256_file(arc_path),
            "artifacts": [sha256_file(a) if a else None for _, a in argvs],
        }
        print(f"{wl.name} instance {inst}: ok", file=sys.stderr, flush=True)
    return {
        "workload": wl.name,
        "sizes": wl.sizes(),
        "commit": run.git_commit(),
        "source_sha256": run.source_digest(),
        "reports": reports,
        "instances": instances,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record benchmark reference outputs")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    pkg = run.load_arcforms()
    for name in args.workload or sorted(WORKLOADS):
        ref = record(pkg, WORKLOADS[name])
        write_json(os.path.join(run.REFERENCE_DIR, f"{name}.json"), ref)
    return 0


if __name__ == "__main__":
    sys.exit(main())
