import json
import time
from pathlib import Path

import pytest

from arcforms.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_arc_new_and_verify(tmp_path, capsys):
    arc_path = str(tmp_path / "tc7.json")
    code, rep = run(capsys, "arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", arc_path)
    assert code == 0 and rep["passed"]
    blob = json.loads(Path(arc_path).read_text())
    assert blob["k"] == 4 and len(blob["points"]) == 8

    code, rep = run(capsys, "arc", "verify", arc_path)
    assert code == 0
    assert {c["name"]: c["failed"] for c in rep["checks"]} == {"is-arc": 0, "spans": 0}


def test_arc_verify_fails_on_corrupt_data(tmp_path, capsys):
    arc_path = str(tmp_path / "bad.json")
    blob = {
        "field": {"p": 5, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
    }
    arc_path_f = open(arc_path, "w")
    json.dump(blob, arc_path_f)
    arc_path_f.close()
    code, rep = run(capsys, "arc", "verify", arc_path)
    assert code == 1
    assert not rep["passed"]
    assert rep["checks"][0]["witnesses"]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["arc", "new", "--type", "nrc", "--q", "6", "--k", "3", "-o", str(tmp_path / "x.json")]) == 2
    assert main(["arc", "verify", str(tmp_path / "missing.json")]) == 2
    zero_path = tmp_path / "zero.json"
    zero_path.write_text(json.dumps({
        "field": {"p": 5, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
    }))
    assert main(["arc", "mds", str(zero_path)]) == 2
    gf7 = {"p": 7, "h": 1, "irreducible": [0, 1]}
    gf9 = {"p": 3, "h": 2, "irreducible": [2, 2, 1]}
    o, z = [1, 0], [0, 0]
    malformed = [
        [1, 2, 3],  # not an object
        {"field": [7, 1], "k": 3, "points": [[1, 0, 0]]},  # field not an object
        {"field": gf7, "k": "3", "points": [[1, 0, 0]]},  # k not an int
        {"field": gf7, "k": 3, "points": {"0": [1, 0, 0]}},  # points not a list
        {"field": gf7, "k": 3, "points": [1, 0, 0]},  # a point not a list
        # non-canonical elements: out of range, a bool, an unreduced digit
        {"field": gf7, "k": 3, "points": [[8, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]},
        {"field": gf7, "k": 3, "points": [[True, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]},
        {"field": gf9, "k": 3, "points": [[[5, 7], z, z], [z, o, z], [z, z, o], [o, o, o]]},
    ]
    for i, blob in enumerate(malformed):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(blob))
        assert main(["arc", "verify", str(path)]) == 2, blob
    # a custom points file goes through the same validated parse
    for i, blob in enumerate([[1, 2, 3], {"points": 5}]):
        path = tmp_path / f"points{i}.json"
        path.write_text(json.dumps(blob))
        argv = ["arc", "new", "--type", "custom", "--q", "7", "--k", "3",
                "--points", str(path), "-o", str(tmp_path / "custom.json")]
        assert main(argv) == 2, blob
    # flags that contradict the arc type
    pts_path = tmp_path / "points0.json"
    for flags in (
        ["--type", "conic", "--q", "5", "--k", "4"],
        ["--type", "hyperoval", "--q", "4", "--k", "5"],
        ["--type", "nrc", "--q", "5", "--points", str(pts_path)],
    ):
        assert main(["arc", "new", *flags, "-o", str(tmp_path / "contra.json")]) == 2, flags
    # malformed exponents for the k=4, q=7 NRC (2 tuples of 4 ints, total <= t)
    nrc_path = str(tmp_path / "nrc7.json")
    assert main(["arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", nrc_path]) == 0
    for exps in ("5", "null", "[5,6]", "[[1.5,0,0,0],[0,0,0,0]]", "[[true,0,0,0],[0,0,0,0]]"):
        assert main(["tensor", "extract", nrc_path, "--exponents", exps]) == 2, exps
    # phi refuses a basis of (N - n)·N = 12,341 · 12,333 entries before building it
    start = time.monotonic()
    assert main(["phi", nrc_path, "--t", "40"]) == 2
    assert time.monotonic() - start < 1
    with pytest.raises(SystemExit) as exc:
        main(["arc", "new", "--badflag"])
    assert exc.value.code == 2


def test_arc_project_and_mds(tmp_path, capsys):
    arc_path = str(tmp_path / "tc5.json")
    out_path = str(tmp_path / "proj.json")
    run(capsys, "arc", "new", "--type", "nrc", "--q", "5", "--k", "4", "-o", arc_path)
    code, rep = run(capsys, "arc", "project", arc_path, "--index", "5", "-o", out_path)
    assert code == 0 and rep["passed"]
    img = json.loads(Path(out_path).read_text())
    assert img["k"] == 3 and len(img["points"]) == 5

    code, rep = run(capsys, "arc", "mds", arc_path)
    assert code == 0 and "generator" in rep["result"]


def test_phi_command(tmp_path, capsys):
    arc_path = str(tmp_path / "conic5.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "5", "-o", arc_path)
    code, rep = run(capsys, "phi", arc_path, "--t", "2")
    assert code == 0
    assert rep["result"]["dim"] == 1
    assert len(rep["result"]["basis"]) == 1


def test_tangents_and_tensor_roundtrip(tmp_path, capsys):
    arc_path = str(tmp_path / "conic4.json")
    ts_path = str(tmp_path / "ts.json")
    mf_path = str(tmp_path / "mf.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "4", "-o", arc_path)

    code, _ = run(capsys, "tangents", "build", arc_path, "-o", ts_path)
    assert code == 0
    code, _ = run(capsys, "tangents", "lemma-check", arc_path)
    assert code == 0

    code, _ = run(capsys, "tensor", "build", arc_path, "-o", mf_path)
    assert code == 0
    mf = json.loads(Path(mf_path).read_text())
    assert mf["blocks"] == 2 and mf["t"] == 1
    code, rep = run(capsys, "tensor", "verify", arc_path)
    assert code == 0 and rep["passed"]


def test_tensor_extract(tmp_path, capsys):
    arc_path = str(tmp_path / "conic7.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "7", "-o", arc_path)
    code, rep = run(capsys, "tensor", "extract", arc_path, "--exponents", "[[0,0,0]]")
    assert code == 0
    assert rep["result"]["form"]["t"] == 2
    assert rep["checks"][0]["name"] == "extracted-form-vanishes-on-arc"


def test_tensor_quadric_check(tmp_path, capsys):
    arc_path = str(tmp_path / "tc7.json")
    run(capsys, "arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", arc_path)
    code, rep = run(capsys, "tensor", "quadric-check", arc_path)
    assert code == 0 and rep["result"]["quadric"]["t"] == 2


def test_sbbt_commands(tmp_path, capsys):
    arc_path = str(tmp_path / "conic5.json")
    sb_path = str(tmp_path / "sb.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "5", "-o", arc_path)
    code, _ = run(capsys, "sbbt", "build", arc_path, "-o", sb_path)
    assert code == 0
    sb = json.loads(Path(sb_path).read_text())
    assert sb["m"] == 2 and sb["phi"]["t"] == 2
    code, rep = run(capsys, "sbbt", "verify", arc_path, "--dump-duals")
    assert code == 0
    assert len(rep["result"]["duals"]) == (5**3 - 1) // 4


def test_suite_and_lemma_fail_gracefully_on_corrupt_arc(tmp_path, capsys):
    arc_path = str(tmp_path / "corrupt.json")
    blob = {
        "field": {"p": 5, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 2, 3]],
    }
    with open(arc_path, "w") as fh:
        json.dump(blob, fh)
    code, rep = run(capsys, "suite", arc_path)
    assert code == 1 and not rep["passed"]
    assert any("skipped" in n for n in rep["notes"])
    code, rep = run(capsys, "tangents", "lemma-check", arc_path)
    assert code == 1 and not rep["passed"]
    # a direct build on corrupted data is an input error
    assert main(["tangents", "build", arc_path, "-o", str(tmp_path / "x.json")]) == 2
    capsys.readouterr()


def test_suite_reference_arcs(tmp_path, capsys):
    for typ, q, k in [("conic", "5", "3"), ("nrc", "7", "4"), ("hyperoval", "4", "3")]:
        arc_path = str(tmp_path / f"{typ}{q}.json")
        run(capsys, "arc", "new", "--type", typ, "--q", q, "--k", k, "-o", arc_path)
        code, rep = run(capsys, "suite", arc_path)
        assert code == 0, rep
        assert rep["passed"]


def test_artifact_roundtrip_byte_stable(tmp_path, capsys):
    arc_path = str(tmp_path / "a.json")
    run(capsys, "arc", "new", "--type", "nrc", "--q", "9", "--k", "3", "-o", arc_path)
    first = Path(arc_path).read_text()
    # rebuilding the same arc reproduces the same bytes
    run(capsys, "arc", "new", "--type", "nrc", "--q", "9", "--k", "3", "-o", arc_path)
    assert Path(arc_path).read_text() == first


def test_derived_artifacts_reload_byte_stable(tmp_path, capsys):
    from arcforms.geometry import Arc
    from arcforms.tangents import TangentSystem
    from arcforms.tensorform import MultiForm
    from arcforms.sbbt import SBBTForm

    arc_path = str(tmp_path / "conic5.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "5", "-o", arc_path)
    arc = Arc.from_json(json.loads(Path(arc_path).read_text()))

    ts_path = str(tmp_path / "ts.json")
    run(capsys, "tangents", "build", arc_path, "-o", ts_path)
    blob = Path(ts_path).read_text()
    ts = TangentSystem.from_json(arc, json.loads(blob))
    assert json.dumps(ts.to_json(), indent=2) + "\n" == blob

    mf_path = str(tmp_path / "mf.json")
    run(capsys, "tensor", "build", arc_path, "-o", mf_path)
    blob = Path(mf_path).read_text()
    mf = MultiForm.from_json(arc.gf, json.loads(blob))
    assert json.dumps(mf.to_json(arc.gf), indent=2) + "\n" == blob

    sb_path = str(tmp_path / "sb.json")
    run(capsys, "sbbt", "build", arc_path, "-o", sb_path)
    blob = Path(sb_path).read_text()
    sb = SBBTForm.from_json(arc.gf, json.loads(blob))
    assert json.dumps(sb.to_json(arc.gf), indent=2) + "\n" == blob


def test_golden_conic5_artifacts(tmp_path, capsys):
    # frozen serializations: any representational drift shows up here
    arc_path = str(tmp_path / "conic5.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "5", "-o", arc_path)
    assert json.loads(Path(arc_path).read_text()) == {
        "field": {"p": 5, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [
            [1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 4], [1, 4, 1], [0, 0, 1],
        ],
    }
    sb_path = str(tmp_path / "sb.json")
    run(capsys, "sbbt", "build", arc_path, "-o", sb_path)
    sb = json.loads(Path(sb_path).read_text())
    assert sb["phi"]["coeffs"] == [0, 0, 1, 1, 0, 0]  # Z2^2 - 4 Z1 Z3 mod 5


def test_human_format(tmp_path, capsys):
    arc_path = str(tmp_path / "c.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "5", "-o", arc_path)
    code = main(["--format", "human", "arc", "verify", arc_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "is-arc" in out and not out.strip().startswith("{")


def test_custom_arc_from_points(tmp_path, capsys):
    pts_path = str(tmp_path / "pts.json")
    with open(pts_path, "w") as fh:
        json.dump([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], fh)
    arc_path = str(tmp_path / "custom.json")
    code, rep = run(
        capsys, "arc", "new", "--type", "custom", "--q", "5", "--k", "3",
        "--points", pts_path, "-o", arc_path,
    )
    assert code == 0 and rep["passed"]


# Every subcommand's report shape, pinned: command, inputs, the check names
# with their totals, and notes ("{out}" is the artifact path).  Arcs: the
# q=7, k=4 normal rational curve, and the q=5 conic for the dual form.
NRC7_INPUTS = {"q": 7, "k": 4, "n": 8, "t": 2}
CONIC5_INPUTS = {"q": 5, "k": 3, "n": 6, "t": 1}
TENSOR_CHECKS = [
    ("matches-signed-tangent-evaluations", 512),
    ("partial-eval-is-tangent-form-mod-vanishing", 28),
    ("repeated-points-vanish", 184),
    ("block-permutation-antisymmetry", 5),
    ("unique-modulo-block-vanishing", 1),
]
LEMMA_CHECKS = [
    ("tangent-count", 28),
    ("scaling-chain", 27),
    ("base-normalization", 1),
    ("adjacent-transpositions", 672),
    ("random-permutations", 100),
]
REPORT_SHAPES = [
    (
        ["arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", "{out}"],
        "arc new", NRC7_INPUTS, [("is-arc", 1)], ["wrote {out}"],
    ),
    (
        ["arc", "verify", "{nrc}"],
        "arc verify", NRC7_INPUTS, [("is-arc", 1), ("spans", 1)], [],
    ),
    (
        ["arc", "project", "{nrc}", "--index", "7", "-o", "{out}"],
        "arc project", NRC7_INPUTS, [("image-is-arc", 1), ("t-preserved", 1)],
        ["wrote {out}"],
    ),
    (
        ["arc", "mds", "{nrc}"],
        "arc mds", NRC7_INPUTS, [("all-maximal-minors-nonzero", 1)], [],
    ),
    (
        ["phi", "{nrc}", "--t", "2"],
        "phi", {**NRC7_INPUTS, "deg": 2}, [("basis-vanishes-on-arc", 3)], [],
    ),
    (
        ["tangents", "build", "{nrc}", "-o", "{out}"],
        "tangents build", NRC7_INPUTS,
        [("scaling-chain", 27), ("base-normalization", 1)], ["wrote {out}"],
    ),
    (
        ["tangents", "lemma-check", "{nrc}"],
        "tangents lemma-check", NRC7_INPUTS, LEMMA_CHECKS, [],
    ),
    (
        ["tensor", "build", "{nrc}", "-o", "{out}"],
        "tensor build", NRC7_INPUTS, [("matches-signed-tangent-evaluations", 512)],
        ["wrote {out}"],
    ),
    (
        ["tensor", "verify", "{nrc}", "--search-exact"],
        "tensor verify", NRC7_INPUTS, TENSOR_CHECKS,
        ["a correction by block-vanishing terms making the partial "
         "evaluations exactly equal the tangent forms exists"],
    ),
    (
        ["tensor", "extract", "{nrc}", "--exponents", "[[0,0,0,0],[1,0,0,0]]"],
        "tensor extract",
        {**NRC7_INPUTS, "exponents": [[0, 0, 0, 0], [1, 0, 0, 0]]}, [],
        ["arc lies on a degree-2 hypersurface (dim 3); "
         "vanishing of extracted forms is not asserted"],
    ),
    (
        ["tensor", "quadric-check", "{nrc}"],
        "tensor quadric-check", NRC7_INPUTS,
        [("quadric-found", 1), ("quadric-vanishes-on-arc", 1)], [],
    ),
    (
        ["sbbt", "build", "{conic}", "-o", "{out}"],
        "sbbt build", {**CONIC5_INPUTS, "m": 2}, [("degree", 1)], ["wrote {out}"],
    ),
    (
        ["sbbt", "verify", "{conic}"],
        "sbbt verify", {**CONIC5_INPUTS, "m": 2},
        [
            ("residual-equals-tangent-form-power", 6),
            ("vanishes-on-tangent-hyperplane-duals", 6),
            ("nonzero-on-secant-hyperplane-duals", 15),
            ("agrees-with-signed-evaluations-powered", 36),
            ("symmetric-under-row-permutations", 100),
        ],
        ["10 hyperplanes meet the arc in fewer than k-2 points; "
         "phi vanishes on 0 of them (recorded, not asserted)"],
    ),
    (
        ["suite", "{nrc}"],
        "suite", NRC7_INPUTS,
        [("is-arc", 1), ("mds-generator", 1)] + LEMMA_CHECKS + TENSOR_CHECKS + [
            ("quadric-through-arc", 1),
            ("residual-equals-tangent-form-power", 28),
            ("vanishes-on-tangent-hyperplane-duals", 56),
            ("nonzero-on-secant-hyperplane-duals", 56),
            ("agrees-with-signed-evaluations-powered", 512),
            ("symmetric-under-row-permutations", 100),
        ],
        ["arc lies on a degree-2 hypersurface (dim 3); "
         "shift-extract vanishing not asserted",
         "288 hyperplanes meet the arc in fewer than k-2 points; "
         "phi vanishes on 8 of them (recorded, not asserted)"],
    ),
]


@pytest.fixture(scope="module")
def shape_arcs(tmp_path_factory):
    d = tmp_path_factory.mktemp("shapes")
    paths = {"nrc": str(d / "nrc7.json"), "conic": str(d / "conic5.json")}
    assert main(["arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", paths["nrc"]]) == 0
    assert main(["arc", "new", "--type", "conic", "--q", "5", "-o", paths["conic"]]) == 0
    return paths


@pytest.mark.parametrize(
    "argv,command,inputs,checks,notes", REPORT_SHAPES, ids=[s[1] for s in REPORT_SHAPES]
)
def test_report_shape(shape_arcs, tmp_path, capsys, argv, command, inputs, checks, notes):
    capsys.readouterr()
    paths = {**shape_arcs, "out": str(tmp_path / "out.json")}
    code, rep = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 0
    assert rep["command"] == command
    assert rep["inputs"] == inputs
    assert [(c["name"], c["total"]) for c in rep["checks"]] == checks
    assert rep["notes"] == [n.format(**paths) for n in notes]
