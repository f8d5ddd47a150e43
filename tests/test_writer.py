"""The -o writer: every artifact is json.dumps(obj, indent=2) plus a newline,
written by json.dump, and the coefficient runs of a tensor artifact one
slice of field elements at a time."""

import hashlib
import itertools
import json
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforms import cli
from arcforms.cli import WRITE_SLICE, Runs, _write_json, main
from arcforms.field import GF, make_field
from arcforms.forms import num_monomials
from arcforms.geometry import Arc, normal_rational_curve, project
from arcforms.sbbt import build_sbbt
from arcforms.tangents import build_tangent_system
from arcforms.tensorform import MultiForm, build_tensor_form
from conftest import field

EDGE_CASES = {
    "empty": [[], {}, (), [[], {}, ()], {"a": [], "b": {}, "c": ()}],
    "nested": [[1, [2, [3, []]], [[[]]]], {"a": {"b": {"c": [{"d": []}]}}}],
    "tuples": (1, (2, (3,)), ((),), {"t": (4, 5)}),
    "non-ascii": ["héllo", "✓ π", {"ключ": "значение", "☃": ["\n\t\"\\"]}],
    "scalars": [None, True, False, 0, -1, 1.5],
    "ints-above-256": [257, 1000, -300, 2**70, 257, 1000],
    "top-level-scalar": None,
    "equal-values-of-other-types": [1, True, 1.0, 0, False, 0.0, -0.0, None],
    "bools-among-ints": [1, True, 0, False, 2, True],
    "non-str-keys": {1: "a", None: [2], 2.5: {3: 4}, False: 0},
    "ints-across-slices": list(range(WRITE_SLICE * 2 + 5)),
    "shared-lists-across-slices": [[0, 1], [1, 0]] * (WRITE_SLICE + 3),
    "fresh-lists-across-slices": [[i % 3, 1] for i in range(WRITE_SLICE + 7)],
    "types-changing-between-slices": [True] * WRITE_SLICE + [1] * WRITE_SLICE + [1.0, 1],
    "dicts-in-a-list": [{"S": [0, 1], "form": {"coeffs": [1, 2, 300]}}] * 3,
}


@pytest.mark.parametrize("obj", EDGE_CASES.values(), ids=EDGE_CASES)
def test_writer_matches_json_dumps(tmp_path, obj):
    path = tmp_path / "obj.json"
    _write_json(str(path), obj)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2) + "\n"


# lists of one repeated item, alone or next to equal items of other types
UNIFORM_CASES = {
    "zeros-across-slices": (0,) * (2 * WRITE_SLICE + 3),
    # 28^3 = 21,952 entries, each the one element list of GF(4)'s zero
    "shared-gf4-zero-across-slices": MultiForm(3, 3, 6, (0,) * 8, (3, 17)).to_json(make_field(2, 2))["coeffs"],
    "one-true-1-and-1.0-slice": [1] * 100 + [True] + [1] * 100 + [1.0] + [1] * 100,
    "uniform-then-mixed": [0] * WRITE_SLICE + [0, False, 0.0, 0, -0.0, 0] * 10,
    "uniform-bools-then-ints": [True] * WRITE_SLICE + [1] * WRITE_SLICE,
}


@pytest.mark.parametrize("obj", UNIFORM_CASES.values(), ids=UNIFORM_CASES)
def test_uniform_slices_match_json_dumps(tmp_path, obj):
    path = tmp_path / "obj.json"
    _write_json(str(path), obj)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, indent=2) + "\n"


def test_writer_rejects_what_json_rejects(tmp_path):
    for bad in ({(1, 2): 0}, [object()], {1, 2}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            _write_json(str(tmp_path / "bad.json"), bad)


# (q, k): NRCs over a prime field, GF(2^3) and GF(3^2), and the conic of
# PG(2, 257), whose coordinates go past the ints CPython caches
ARTIFACT_ARCS = [(7, 4), (8, 4), (9, 3), (257, 3)]


def _arc_file(tmp_path, capsys, q, k):
    """The arc file `arc new --type nrc` writes, and its bytes checked."""
    p, h = cli._factor_prime_power(q)
    arc = normal_rational_curve(make_field(p, h), k)
    path = tmp_path / "arc.json"
    argv = ["arc", "new", "--type", "nrc", "--q", str(q), "--k", str(k), "-o", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert path.read_text(encoding="utf-8") == json.dumps(arc.to_json(), indent=2) + "\n"
    return arc, str(path)


@pytest.mark.parametrize("q,k", ARTIFACT_ARCS)
def test_every_artifact_is_json_dumps_of_its_object(tmp_path, capsys, q, k):
    arc, arc_path = _arc_file(tmp_path, capsys, q, k)
    gf, ts = arc.gf, build_tangent_system(arc)
    expected = {
        ("arc", "project", "--index", "0"): project(arc, 0).to_json(),
        ("tangents", "build"): ts.to_json(),
        ("tensor", "build"): build_tensor_form(arc, ts).to_json(gf),
        ("sbbt", "build"): build_sbbt(arc, ts).to_json(gf),
    }
    for command, obj in expected.items():
        out = tmp_path / "out.json"
        assert main([*command[:2], arc_path, *command[2:], "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8") == json.dumps(obj, indent=2) + "\n", command


# SHA-256 of the `tensor build -o` files of the corpus twisted cubics,
# recorded before the streaming writer replaced json.dump
TENSOR_FILE_SHA256 = {
    (7, 4): "d487fe9491c4accd674351f58027041610927700e7cfa03f08cf4b76a022a265",
    (8, 4): "f1fe0f80332904b6bc3960be95a98a1db8f19684aeffa8dda988831345789ecb",
}


@pytest.mark.parametrize("q,k", sorted(TENSOR_FILE_SHA256))
def test_tensor_build_file_bytes_are_stable(tmp_path, capsys, q, k):
    _, arc_path = _arc_file(tmp_path, capsys, q, k)
    out = tmp_path / "F.json"
    assert main(["tensor", "build", arc_path, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TENSOR_FILE_SHA256[q, k]


def test_long_tensor_artifact_streams(tmp_path):
    # 84^3 = 592,704 coefficients over GF(11): a list of them alone takes
    # 4.7 MB, and the writer holds one slice of their texts at a time
    gf, rng = make_field(11), random.Random(0)
    F = MultiForm(4, 3, 6, tuple(rng.randrange(11) for _ in range(84**3)))
    tracemalloc.start()
    try:
        _write_json(str(tmp_path / "F.json"), F.to_json(gf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert MultiForm.from_json(gf, json.loads((tmp_path / "F.json").read_text())) == F


@pytest.mark.parametrize("q,k", [(4, 3), (7, 4), (8, 4)])
def test_tensor_artifact_renders_each_element_once(tmp_path, capsys, monkeypatch, q, k):
    _, arc_path = _arc_file(tmp_path, capsys, q, k)
    calls = []

    def counted(self, a):
        calls.append(a)
        return original(self, a)

    original = GF.element_to_json
    monkeypatch.setattr(GF, "element_to_json", counted)
    assert main(["tensor", "build", arc_path, "-o", str(tmp_path / "F.json")]) == 0
    F = json.loads((tmp_path / "F.json").read_text())
    assert len(F["coeffs"]) > q and len(calls) <= q


def _expanded(pairs):
    return [item for item, count in pairs for _ in range(count)]


# GF(11), GF(9) and GF(2^4): elements written as ints, and as lists of 2 and 4
RUNS_FIELDS = [make_field(11), make_field(3, 2), make_field(2, 4)]
RUNS_SLICE = 4  # WRITE_SLICE while the runs are written
RUNS_CASES = {
    "empty": [],
    "one-run-across-slices": [(0, 2 * RUNS_SLICE + 3)],
    "runs-ending-on-slice-edges": [(7, RUNS_SLICE - 1), (0, 1), (8, RUNS_SLICE), (0, 2), (3, RUNS_SLICE - 2)],
    "empty-runs": [(5, 0), (6, 1), (5, 0)],
}


@pytest.mark.parametrize("pairs", RUNS_CASES.values(), ids=RUNS_CASES)
def test_runs_match_json_dumps(tmp_path, pairs):
    path = tmp_path / "obj.json"
    for gf in RUNS_FIELDS:
        with mock.patch.object(cli, "WRITE_SLICE", RUNS_SLICE):
            _write_json(str(path), {"k": 4, "coeffs": Runs(gf, iter(pairs))})
        want = {"k": 4, "coeffs": [gf.element_to_json(a) for a in _expanded(pairs)]}
        assert path.read_text(encoding="utf-8") == json.dumps(want, indent=2) + "\n", gf


def test_fresh_items_are_dropped_with_their_piece(tmp_path):
    # json.dump holds no text of the whole list
    obj = [[i % 3, 1] for i in range(5000)]
    with mock.patch.object(cli, "WRITE_SLICE", 256):
        tracemalloc.start()
        try:
            _write_json(str(tmp_path / "obj.json"), obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 19, peak
    assert (tmp_path / "obj.json").read_text(encoding="utf-8") == json.dumps(obj, indent=2) + "\n"


@st.composite
def supported_forms(draw):
    """(field, a form on a random support, its dense coefficients, a slice
    length): supports of one position, touching both ends, or any sorted
    set; entries often zero."""
    gf = draw(st.sampled_from([field(4), field(5), field(7), field(9), *RUNS_FIELDS]))
    k, blocks, t = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    N = num_monomials(k, t)
    support = draw(st.one_of(
        st.sampled_from([[0], [N - 1], [0, N - 1], [N - 2]]),
        st.sets(st.integers(0, N - 1), min_size=1).map(sorted),
    ))
    entry = st.one_of(st.just(0), st.integers(0, gf.q - 1))
    size = len(support) ** blocks
    block = draw(st.lists(entry, min_size=size, max_size=size))
    dense = [0] * N**blocks
    for J, v in zip(itertools.product(support, repeat=blocks), block):
        dense[sum(j * N ** (blocks - 1 - m) for m, j in enumerate(J))] = v
    mf = MultiForm(k, blocks, t, tuple(block), tuple(support))
    return gf, mf, dense, draw(st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(case=supported_forms())
def test_form_runs_match_dense_and_json_dumps(tmp_path_factory, case):
    gf, mf, dense, piece = case
    runs = list(mf.runs())
    assert all(count > 0 for _, count in runs)
    assert _expanded(runs) == list(mf.dense()) == dense
    want = json.dumps({
        "k": mf.k, "blocks": mf.blocks, "t": mf.t, "coeffs": [gf.element_to_json(c) for c in dense],
    }, indent=2) + "\n"
    assert json.dumps(mf.to_json(gf), indent=2) + "\n" == want
    path = tmp_path_factory.getbasetemp() / "form.json"
    with mock.patch.object(cli, "WRITE_SLICE", piece):
        _write_json(str(path), mf.to_json(gf, runs=Runs))
    assert path.read_text(encoding="utf-8") == want


def test_tensor_build_writes_from_the_support_block(tmp_path, capsys, monkeypatch):
    # 8 points of PG(3, 11): t = 6 and N = 84, so F has 84^3 = 592,704
    # coefficients, of which only its 8^3 block entries can be nonzero
    gf = make_field(11)
    arc = Arc(gf, 4, normal_rational_curve(gf, 4).points[:8])
    arc_path, out = tmp_path / "arc.json", tmp_path / "F.json"
    arc_path.write_text(json.dumps(arc.to_json()), encoding="utf-8")
    F = build_tensor_form(arc, build_tangent_system(arc))
    assert arc.t == 6 and len(F.support) == 8
    want = json.dumps(F.to_json(gf), indent=2) + "\n"

    def never(self, table=None):
        raise AssertionError("the dense tensor was expanded")

    monkeypatch.setattr(MultiForm, "dense", never)
    tracemalloc.start()
    try:
        assert main(["tensor", "build", str(arc_path), "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 1 << 20, peak
    assert hashlib.sha256(out.read_bytes()).digest() == hashlib.sha256(want.encode()).digest()
