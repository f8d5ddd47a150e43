"""Every subcommand and flag, replayed against recorded outputs.

For each invocation in ``CASES``, run on the twisted cubic of PG(3, 7) and
the conic of PG(2, 9), ``tests/data/golden.json`` holds the exit code, the
report (JSON without ``elapsed_ms``; a human rendering with its ``(N ms)``
blanked) and the SHA-256 of the ``-o`` artifact.  Record it again with

    PYTHONPATH=src python tests/test_golden_replay.py

only after checking that a change of output is intended.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from arcforms import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"

ARCS = {
    "tc7": ["arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", "tc7.json"],
    "conic9": ["arc", "new", "--type", "conic", "--q", "9", "-o", "conic9.json"],
}
# "ARC" stands for the arc file; exponents are k-2 tuples of total <= t
EXPONENTS = {"tc7": "[[1, 0, 0, 1], [0, 1, 0, 0]]", "conic9": "[[0, 1, 0]]"}
CASES = [
    ["arc", "verify", "ARC"],
    ["arc", "project", "ARC", "--index", "0", "-o", "proj.json"],
    ["arc", "project", "ARC", "--index", "-1", "-o", "proj.json"],
    ["arc", "mds", "ARC"],
    ["phi", "ARC", "--t", "2"],
    ["phi", "ARC", "--t", "3"],
    ["tangents", "build", "ARC", "-o", "ts.json"],
    ["tangents", "lemma-check", "ARC"],
    ["tangents", "lemma-check", "ARC", "--seed", "5"],
    ["tensor", "build", "ARC", "-o", "F.json"],
    ["tensor", "verify", "ARC"],
    ["tensor", "verify", "ARC", "--search-exact"],
    ["tensor", "extract", "ARC", "--exponents", "EXPONENTS"],
    ["tensor", "quadric-check", "ARC"],
    ["sbbt", "build", "ARC", "-o", "sb.json"],
    ["sbbt", "verify", "ARC"],
    ["sbbt", "verify", "ARC", "--seed", "3", "--dump-duals"],
    ["suite", "ARC"],
    ["suite", "ARC", "--seed", "2"],
    ["--format", "human", "suite", "ARC"],
]


def invocations(name):
    """(key, argv) for the arc's `arc new` and then every case on it."""
    yield " ".join(ARCS[name]), ARCS[name]
    for case in CASES:
        subst = {"ARC": f"{name}.json", "EXPONENTS": EXPONENTS[name]}
        argv = [subst.get(a, a) for a in case]
        yield " ".join(argv), argv


def replay(argv):
    """Run one invocation in the working directory; return its record."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    if text.startswith("{"):
        report = json.loads(text)
        report.pop("elapsed_ms")
    else:
        report = re.sub(r"\(\d+ ms\)", "(- ms)", text)
    record = {"code": code, "report": report}
    if "-o" in argv and code != 2:
        path = Path(argv[argv.index("-o") + 1])
        record["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return record


def record_all(directory):
    with contextlib.chdir(directory):
        return {name: dict((key, replay(argv)) for key, argv in invocations(name)) for name in ARCS}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(ARCS))
def test_every_subcommand_matches_golden(golden, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = golden[name]
    keys = [key for key, _ in invocations(name)]
    assert keys == list(recorded)
    for key, argv in invocations(name):
        assert replay(argv) == recorded[key], key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = record_all(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
