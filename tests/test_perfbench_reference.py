"""The benchmark's recorded outputs, reproduced in tier-1.

Generates instance 0 of every workload in ``perfbench/workloads.py``, runs
its CLI invocations in-process and checks each report against
``perfbench/reference/<workload>.json`` with ``run.py``'s own
``matches_reference`` rule, and the arc and artifact SHA-256 digests
against the recorded ones.  ``perfbench/`` is only read.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import arcforms
from arcforms import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_run():
    """``perfbench/run.py`` as a module, imported without writing bytecode."""
    names = ("run", "spans", "workloads")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import run
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    yield run
    for name in names:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


@pytest.mark.parametrize("workload", ["suite-pg3-q16", "suite-pg3-q11-t5", "build-pg3-q11-t6"])
def test_workload_instance_0_matches_reference(perfbench_run, workload, tmp_path, monkeypatch):
    run = perfbench_run
    wl = run.WORKLOADS[workload]
    with open(PERFBENCH / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    recorded = reference["instances"]["0"]

    monkeypatch.chdir(tmp_path)
    Path(run.WORK_DIR).mkdir(parents=True)
    arc_path, argvs = run.pass_argvs(wl, 0)
    _, arc_json = run.generate_arc(arcforms, wl, 0)
    run.write_json(arc_path, arc_json)
    assert run.sha256_file(arc_path) == recorded["arc"]

    for i, (argv, artifact) in enumerate(argvs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        assert code == 0, argv
        assert run.matches_reference(json.loads(out.getvalue()), reference["reports"][i]), argv
        if artifact is not None:
            assert run.sha256_file(artifact) == recorded["artifacts"][i], argv
