import json

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
    blob = json.loads(open(arc_path).read())
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
    with pytest.raises(SystemExit) as exc:
        main(["arc", "new", "--badflag"])
    assert exc.value.code == 2


def test_arc_project_and_mds(tmp_path, capsys):
    arc_path = str(tmp_path / "tc5.json")
    out_path = str(tmp_path / "proj.json")
    run(capsys, "arc", "new", "--type", "nrc", "--q", "5", "--k", "4", "-o", arc_path)
    code, rep = run(capsys, "arc", "project", arc_path, "--index", "5", "-o", out_path)
    assert code == 0 and rep["passed"]
    img = json.loads(open(out_path).read())
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
    mf = json.loads(open(mf_path).read())
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
    sb = json.loads(open(sb_path).read())
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
    first = open(arc_path).read()
    # rebuilding the same arc reproduces the same bytes
    run(capsys, "arc", "new", "--type", "nrc", "--q", "9", "--k", "3", "-o", arc_path)
    assert open(arc_path).read() == first


def test_derived_artifacts_reload_byte_stable(tmp_path, capsys):
    from arcforms.geometry import Arc
    from arcforms.tangents import TangentSystem
    from arcforms.tensorform import MultiForm
    from arcforms.sbbt import SBBTForm

    arc_path = str(tmp_path / "conic5.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "5", "-o", arc_path)
    arc = Arc.from_json(json.loads(open(arc_path).read()))

    ts_path = str(tmp_path / "ts.json")
    run(capsys, "tangents", "build", arc_path, "-o", ts_path)
    blob = open(ts_path).read()
    ts = TangentSystem.from_json(arc, json.loads(blob))
    assert json.dumps(ts.to_json(), indent=2) + "\n" == blob

    mf_path = str(tmp_path / "mf.json")
    run(capsys, "tensor", "build", arc_path, "-o", mf_path)
    blob = open(mf_path).read()
    mf = MultiForm.from_json(arc.gf, json.loads(blob))
    assert json.dumps(mf.to_json(arc.gf), indent=2) + "\n" == blob

    sb_path = str(tmp_path / "sb.json")
    run(capsys, "sbbt", "build", arc_path, "-o", sb_path)
    blob = open(sb_path).read()
    sb = SBBTForm.from_json(arc.gf, json.loads(blob))
    assert json.dumps(sb.to_json(arc.gf), indent=2) + "\n" == blob


def test_golden_conic5_artifacts(tmp_path, capsys):
    # frozen serializations: any representational drift shows up here
    arc_path = str(tmp_path / "conic5.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "5", "-o", arc_path)
    assert json.loads(open(arc_path).read()) == {
        "field": {"p": 5, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [
            [1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 4], [1, 4, 1], [0, 0, 1],
        ],
    }
    sb_path = str(tmp_path / "sb.json")
    run(capsys, "sbbt", "build", arc_path, "-o", sb_path)
    sb = json.loads(open(sb_path).read())
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
