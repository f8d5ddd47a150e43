import json
import time
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from arcforms import geometry, linalg, sbbt, tangents, tensorform
from arcforms.cli import _factor_prime_power, build_parser, main
from arcforms.field import GF, make_field
from arcforms.geometry import Arc, normal_rational_curve

from conftest import dense_json, glynn_arc


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


@pytest.mark.parametrize("site", ["arc-file", "points-file", "exponents"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, site):
    # json's parser raises RecursionError on such input; it is an input error
    deep, arc_path = tmp_path / "deep.json", tmp_path / "arc.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    assert main(["arc", "new", "--type", "nrc", "--q", "5", "--k", "3", "-o", str(arc_path)]) == 0
    capsys.readouterr()
    argv = {
        "arc-file": ["arc", "verify", str(deep)],
        "points-file": ["arc", "new", "--type", "custom", "--q", "5", "--k", "3",
                        "--points", str(deep), "-o", str(tmp_path / "custom.json")],
        "exponents": ["tensor", "extract", str(arc_path), "--exponents", "[" * 100000],
    }[site]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("missing", ["p", "h", "field", "k", "points", "points-file"])
def test_missing_json_key_is_named(tmp_path, capsys, missing):
    # a field object without p or h, an arc without field, k or points, and
    # a custom points object without points: exit 2 naming the key
    field = {"p": 7, "h": 1, "irreducible": [0, 1]}
    blob = {"field": field, "k": 3, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}
    path = tmp_path / "in.json"
    if missing == "points-file":
        path.write_text(json.dumps({"pts": blob["points"]}))
        argv = ["arc", "new", "--type", "custom", "--q", "7", "--k", "3",
                "--points", str(path), "-o", str(tmp_path / "custom.json")]
        missing = "points"
    else:
        del (field if missing in field else blob)[missing]
        path.write_text(json.dumps(blob))
        argv = ["arc", "verify", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"has no key {missing!r}" in err and "Traceback" not in err


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
    assert main(["arc", "project", str(zero_path), "--index", "3", "-o", str(tmp_path / "p.json")]) == 2
    gf7 = {"p": 7, "h": 1, "irreducible": [0, 1]}
    gf9 = {"p": 3, "h": 2, "irreducible": [2, 2, 1]}
    o, z = [1, 0], [0, 0]
    malformed = [
        [1, 2, 3],  # not an object
        {"field": [7, 1], "k": 3, "points": [[1, 0, 0]]},  # field not an object
        {"field": gf7, "k": "3", "points": [[1, 0, 0]]},  # k not an int
        # k < 2
        {"field": gf7, "k": 0, "points": []},
        {"field": gf7, "k": 1, "points": [[1], [2]]},
        {"field": gf7, "k": -2, "points": []},
        {"field": gf7, "k": 3, "points": {"0": [1, 0, 0]}},  # points not a list
        {"field": gf7, "k": 3, "points": [1, 0, 0]},  # a point not a list
        # non-canonical elements: out of range, a bool, an unreduced digit
        {"field": gf7, "k": 3, "points": [[8, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]},
        {"field": gf7, "k": 3, "points": [[True, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]},
        {"field": gf9, "k": 3, "points": [[[5, 7], z, z], [z, o, z], [z, z, o], [o, o, o]]},
        # GF(2^40), too large to tabulate, refused before its modulus is read
        {
            "field": {"p": 2, "h": 40, "irreducible": [1, 1] + [0] * 38 + [1]},
            "k": 3,
            "points": [[[1] + [0] * 39, [0] * 40, [0] * 40]],
        },
    ]
    for i, blob in enumerate(malformed):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(blob))
        assert main(["arc", "verify", str(path)]) == 2, blob
    # a point with too few or too many coordinates
    for i, bad in enumerate([[0, 1], [0, 1, 0, 0]]):
        path = tmp_path / f"coords{i}.json"
        path.write_text(json.dumps({"field": gf7, "k": 3, "points": [[1, 0, 0], bad, [0, 0, 1], [1, 1, 1]]}))
        assert main(["tangents", "build", str(path), "-o", str(tmp_path / "ts.json")]) == 2, bad
        assert main(["sbbt", "verify", str(path)]) == 2, bad
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


def test_factor_prime_power():
    assert _factor_prime_power(10**18 + 3) == (10**18 + 3, 1)
    assert _factor_prime_power((10**9 + 7) ** 2) == (10**9 + 7, 2)
    assert _factor_prime_power(3**40) == (3, 40)
    assert [_factor_prime_power(q) for q in (2, 4, 9, 256, 257)] == [
        (2, 1), (2, 2), (3, 2), (2, 8), (257, 1)
    ]
    for q in (1, 6, 36, 10**18 + 4):
        with pytest.raises(ValueError):
            _factor_prime_power(q)


def test_arc_verify_over_a_large_prime_field(tmp_path, capsys):
    # primality of p = 10^18 + 3 is decided without trial division
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "field": {"p": 10**18 + 3, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }))
    code, rep = run(capsys, "arc", "verify", str(path))
    assert code == 0 and rep["passed"]
    # and `arc new` factors q = 10^18 + 3 without trial division
    pts_path = tmp_path / "pts.json"
    pts_path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]))
    code, rep = run(capsys, "arc", "new", "--type", "custom", "--q", str(10**18 + 3), "--k", "3",
                    "--points", str(pts_path), "-o", str(tmp_path / "custom.json"))
    assert code == 0 and rep["passed"]


def test_tangent_stages_refuse_oversized_forms(tmp_path, capsys):
    # over GF(10^18 + 3) the 4-point set has t = q - 2: every stage that
    # builds tangent forms refuses them before enumerating the field
    path = str(tmp_path / "big.json")
    Path(path).write_text(json.dumps({
        "field": {"p": 10**18 + 3, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    }))
    out = str(tmp_path / "out.json")
    for argv in (
        ["tangents", "build", path, "-o", out],
        ["tangents", "lemma-check", path],
        ["tensor", "build", path, "-o", out],
        ["tensor", "verify", path],
        ["sbbt", "build", path, "-o", out],
        ["sbbt", "verify", path],
        ["suite", path],
    ):
        start = time.monotonic()
        assert main(argv) == 2, argv
        assert time.monotonic() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: t = ") and "coefficients > 250000" in err and err.count("\n") == 1, err


def test_sbbt_refuses_a_too_small_arc_before_the_tangent_system(tmp_path, capsys, monkeypatch):
    # the frame of PG(2, 101) has t = 99, so phi needs mt+k-1 = 200 points:
    # both subcommands refuse it without building the tangent system
    path = str(tmp_path / "frame.json")
    Path(path).write_text(json.dumps({
        "field": {"p": 101, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    }))
    builds, build = [], tangents.build_tangent_system
    monkeypatch.setattr(tangents, "build_tangent_system", lambda arc: builds.append(1) or build(arc))
    for argv in (["sbbt", "build", path, "-o", str(tmp_path / "sb.json")], ["sbbt", "verify", path]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: arc of size 4 too small: interpolation needs mt+k-1 = 200\n"
    assert builds == []


def test_search_exact_refuses_an_oversized_vanishing_basis(tmp_path, capsys, monkeypatch):
    # the frame of PG(2, 101) has t = 99 and N = 5,050: the search's basis
    # of (N - n)·N entries is refused before the tangent system is built
    path = str(tmp_path / "frame.json")
    Path(path).write_text(json.dumps({
        "field": {"p": 101, "h": 1, "irreducible": [0, 1]},
        "k": 3,
        "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    }))
    builds, build = [], tangents.build_tangent_system
    monkeypatch.setattr(tangents, "build_tangent_system", lambda arc: builds.append(1) or build(arc))
    start = time.monotonic()
    assert main(["tensor", "verify", path, "--search-exact"]) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert err == (
        "error: tensor verify --search-exact: (N - n)·N = 25482300 basis entries > 250000\n"
    ), err
    assert builds == []


def test_dump_duals_sweeps_the_hyperplanes_once(tmp_path, capsys, monkeypatch):
    arc_path = str(tmp_path / "conic7.json")
    run(capsys, "arc", "new", "--type", "conic", "--q", "7", "-o", arc_path)
    code, plain = run(capsys, "sbbt", "verify", arc_path)
    sweeps, classify = [], sbbt.classify_hyperplanes
    monkeypatch.setattr(sbbt, "classify_hyperplanes", lambda *a: sweeps.append(1) or classify(*a))
    code, rep = run(capsys, "sbbt", "verify", arc_path, "--dump-duals")
    assert code == 0 and sweeps == [1]
    assert rep["checks"] == plain["checks"] and rep["notes"] == plain["notes"]
    assert len(rep["result"]["duals"]) == 7**2 + 7 + 1


@pytest.mark.parametrize("name", ["nrc", "glynn"])
def test_search_exact_at_k5(tmp_path, capsys, name):
    # beyond the paper: the NRC of PG(4, 9) and Glynn's arc (k = 5, t = 3,
    # dim phi_3 = 25) both have an exact block-vanishing correction
    arc = normal_rational_curve(make_field(3, 2), 5) if name == "nrc" else glynn_arc()
    path = tmp_path / "arc.json"
    path.write_text(json.dumps(arc.to_json()))
    code, rep = run(capsys, "tensor", "verify", str(path), "--search-exact")
    assert code == 0 and rep["passed"]
    assert rep["notes"] == [
        "a correction by block-vanishing terms making the partial evaluations "
        "exactly equal the tangent forms exists"
    ]


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


def test_arc_project_refuses_an_arc_of_the_line(tmp_path, capsys):
    # the image of an arc of PG(1, 7) would have k = 1: exit 2, no file
    arc_path, out = str(tmp_path / "a2.json"), tmp_path / "a1.json"
    run(capsys, "arc", "new", "--type", "nrc", "--q", "7", "--k", "2", "-o", arc_path)
    assert main(["arc", "project", arc_path, "--index", "0", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k >= 3" in err and "Traceback" not in err
    assert not out.exists()


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


def test_lemma_check_fails_on_a_dependent_subset(tmp_path, capsys):
    # the NRC of PG(3, 7) with point 3 replaced by point 0: the span of
    # S = (0, 3) is a point, so S has no pencil and fails its count
    arc = normal_rational_curve(make_field(7), 4)
    points = list(arc.points)
    points[3] = points[0]
    arc_path = tmp_path / "dependent.json"
    arc_path.write_text(json.dumps(Arc(arc.gf, 4, tuple(points)).to_json()))
    code, rep = run(capsys, "tangents", "lemma-check", str(arc_path))
    assert code == 1 and not rep["passed"]
    [chk] = rep["checks"]
    assert chk["name"] == "tangent-count" and chk["failed"] == chk["total"] == 28
    assert {"S": [0, 3], "error": "span points are linearly dependent"} in chk["witnesses"]


def test_suite_reference_arcs(tmp_path, capsys):
    for typ, q, k in [("conic", "5", "3"), ("nrc", "7", "4"), ("hyperoval", "4", "3")]:
        arc_path = str(tmp_path / f"{typ}{q}.json")
        run(capsys, "arc", "new", "--type", typ, "--q", q, "--k", k, "-o", arc_path)
        code, rep = run(capsys, "suite", arc_path)
        assert code == 0, rep
        assert rep["passed"]


def test_suite_on_a_k5_arc_keeps_only_the_support_block(tmp_path, capsys):
    # NRC of PG(4, 11) minus 2 points: n = 10, t = 5, N = 126.  A dense F
    # would hold 126^4 = 2.5·10^8 entries (3.86 GiB); the built F keeps the
    # w^4 = 10^4 entries of its support block
    gf = make_field(11)
    nrc = normal_rational_curve(gf, 5)
    arc_path = tmp_path / "arc.json"
    arc_path.write_text(json.dumps(Arc(gf, 5, nrc.points[:-2]).to_json()))
    tracemalloc.start()
    try:
        code, rep = run(capsys, "suite", str(arc_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and rep["passed"]
    assert rep["inputs"] == {"q": 11, "k": 5, "n": 10, "t": 5}
    assert peak < 64 << 20, peak


def test_suite_builds_tensor_form_once(tmp_path, capsys, monkeypatch):
    # one tangent system, one F, one coordinate map and one elimination of
    # the N x n Veronese matrix (N = 10, n = 8) serve every stage of the
    # suite.  The verifiers take no dot product: the tuple sweeps read one
    # table of g, whose rows f_S(x_j) are C(n, 2)
    # calls, one per 2-subset S, of one vec_mat map over the 10 x 8 matrix
    # of the points' Veronese vectors.
    arc_path = str(tmp_path / "tc7.json")
    run(capsys, "arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", arc_path)
    calls, stage = Counter(), ["other"]

    def counted(name, fn, when=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls[name] += when(*args)
            return fn(*args, **kwargs)
        return wrapper

    def staged(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            stage.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stage.pop()
        monkeypatch.setattr(module, name, wrapper)

    for name in ("build_tensor_form", "coordinate_map"):
        monkeypatch.setattr(tensorform, name, counted(name, getattr(tensorform, name)))
    for name in ("tangent_hyperplanes", "build_tangent_system"):
        monkeypatch.setattr(tangents, name, counted(name, getattr(tangents, name)))
    monkeypatch.setattr(linalg, "rref", counted(
        "veronese rref", linalg.rref, lambda gf, rows: (len(rows), len(rows[0])) == (10, 8)
    ))
    staged(tangents, "verify_lemma_of_tangents")
    staged(tensorform, "verify_tensor_form")
    dots, dot = Counter(), linalg.dot

    def staged_dot(*args):
        dots[stage[-1]] += 1
        return dot(*args)
    monkeypatch.setattr(linalg, "dot", staged_dot)
    vec_mat = GF.vec_mat

    def counted_vec_mat(gf, matrix):
        combine = vec_mat(gf, matrix)
        if (len(matrix), len(matrix[0])) != (10, 8):
            return combine
        calls["veronese map"] += 1

        def staged_combine(v):
            dots[stage[-1], "veronese map"] += 1
            return combine(v)
        return staged_combine
    monkeypatch.setattr(GF, "vec_mat", counted_vec_mat)
    code, rep = run(capsys, "suite", arc_path)
    assert code == 0 and rep["passed"]
    n = 8
    assert calls == Counter({
        "build_tensor_form": 1, "coordinate_map": 1, "veronese rref": 1,
        "build_tangent_system": 1, "tangent_hyperplanes": comb(n, 2), "veronese map": 1,
    })
    assert dots["verify_lemma_of_tangents"] + dots["verify_tensor_form"] == 0
    tabulated = dots["verify_lemma_of_tangents", "veronese map"] + dots["verify_tensor_form", "veronese map"]
    assert tabulated == comb(n, 2)


def test_suite_runs_no_full_determinant_sweep(tmp_path, capsys, monkeypatch):
    # is_arc reads pencils off one nullspace per subset, the G sweep reads
    # determinants off linalg.minor_forms_batch and build_sbbt's
    # interpolation denominators off batched minor coordinates, both
    # expanded by linalg._minors, so linalg.det is never called; phi is
    # evaluated at minor coordinates only by the random-row symmetry
    # check, at its two row sets per trial, in one batch
    arc_path = str(tmp_path / "tc7.json")
    run(capsys, "arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", arc_path)
    dets, evaluations, evaluate_G_batch = [], [], sbbt.evaluate_G_batch
    monkeypatch.setattr(linalg, "det", lambda *a: dets.append(1))
    monkeypatch.setattr(
        sbbt, "evaluate_G_batch", lambda *a: evaluations.append(len(a[2])) or evaluate_G_batch(*a)
    )
    code, rep = run(capsys, "suite", arc_path)
    assert code == 0 and rep["passed"]
    assert dets == []
    assert evaluations == [2 * 100]


@pytest.mark.parametrize("p,h,k", [(7, 1, 4), (2, 4, 4), (2, 3, 5), (3, 2, 5)])
def test_suite_takes_each_pencil_once(tmp_path, capsys, monkeypatch, p, h, k):
    # is_arc, the tangent hyperplanes and the dual-form residuals read the
    # pencil of each sorted (k-2)-subset off the one Arc the suite loads
    arc_path = tmp_path / "arc.json"
    arc = normal_rational_curve(make_field(p, h), k)
    arc_path.write_text(json.dumps(arc.to_json()))
    calls, pencil = [], geometry.pencil
    monkeypatch.setattr(geometry, "pencil", lambda *a: calls.append(1) or pencil(*a))
    code, rep = run(capsys, "suite", str(arc_path))
    assert code == 0 and rep["passed"]
    assert "residual-equals-tangent-form-power" in [c["name"] for c in rep["checks"]]
    assert len(calls) == comb(arc.n, k - 2)


def test_repeated_main_calls_give_identical_reports(tmp_path, capsys):
    assert build_parser() is build_parser()
    arc_path = str(tmp_path / "tc7.json")
    run(capsys, "arc", "new", "--type", "nrc", "--q", "7", "--k", "4", "-o", arc_path)
    argvs = [["suite", arc_path], ["tensor", "verify", arc_path], ["arc", "mds", arc_path]]
    reports = []
    for _ in range(2):
        for argv in argvs:
            code, rep = run(capsys, *argv)
            rep.pop("elapsed_ms")
            reports.append((code, rep))
    assert reports[:3] == reports[3:]


def test_artifact_roundtrip_byte_stable(tmp_path, capsys):
    arc_path = str(tmp_path / "a.json")
    run(capsys, "arc", "new", "--type", "nrc", "--q", "9", "--k", "3", "-o", arc_path)
    first = Path(arc_path).read_text()
    # rebuilding the same arc reproduces the same bytes
    run(capsys, "arc", "new", "--type", "nrc", "--q", "9", "--k", "3", "-o", arc_path)
    assert Path(arc_path).read_text() == first


def test_derived_artifacts_reload_byte_stable(tmp_path, capsys):
    from arcforms.geometry import Arc
    from arcforms.tangents import TangentSystem, build_tangent_system
    from arcforms.tensorform import build_tensor_form
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
    F = build_tensor_form(arc, build_tangent_system(arc))
    assert json.dumps(dense_json(arc.gf, F), indent=2) + "\n" == blob

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
