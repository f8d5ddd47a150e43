import hashlib
import itertools
import json
import random
import tracemalloc
from collections import defaultdict
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcforms.forms import (
    Form,
    form_sub,
    monomial_basis,
    monomial_vector,
    num_monomials,
    vanishes_on,
    vanishing_subspace,
    veronese,
)
from arcforms.field import make_field
from arcforms.geometry import Arc, normal_rational_curve, normalize
from arcforms import linalg, tensorform
from arcforms.cli import _write_json
from arcforms.linalg import identity, mat_mul
from arcforms.report import MAX_WITNESSES
from arcforms.tangents import (
    TangentSystem,
    build_tangent_system,
    perm_parity,
    tangent_hyperplanes,
)
from arcforms.tensorform import (
    MultiForm,
    _contract_mode,
    _contract_modes,
    build_tensor_form,
    coordinate_map,
    evaluation_table,
    partial_evaluate,
    quadric_check,
    search_exact_tangent_match,
    shift_extract,
    verify_tensor_form,
)

from conftest import (
    CORPUS,
    CountingField,
    corpus_arc,
    corpus_system,
    corpus_tensor,
    dense,
    dense_json,
    evaluate,
    field,
    form_add,
    g_value,
    glynn_arc,
    inverse,
    is_block_congruent,
    rank,
)


def greedy_socle(arc, t):
    """Reference socle: keep each arc point that raises the Veronese rank."""
    chosen, rows = [], []
    for i, p in enumerate(arc.points):
        v = veronese(arc.gf, p, t)
        if rank(arc.gf, rows + [v]) > len(rows):
            chosen.append(i)
            rows.append(v)
    return tuple(chosen)


def greedy_left_inverse(gf, columns, dim, reverse):
    """Reference coordinate map: complete the columns to a basis B of F^dim
    by unit vectors tried in order, invert B and keep its first w rows."""
    cols = [list(c) for c in columns]
    for j in range(dim - 1, -1, -1) if reverse else range(dim):
        unit = [int(i == j) for i in range(dim)]
        if rank(gf, cols + [unit]) > len(cols):
            cols.append(unit)
    assert len(cols) == dim
    return inverse(gf, [list(row) for row in zip(*cols)])[: len(columns)]


def padded(P, inv, dim):
    """The w x dim left inverse that coordinate_map's (P, V[P, :]^-1)
    describes: the columns of the inverse at P, zero elsewhere."""
    M = [[0] * dim for _ in inv]
    for row, M_row in zip(inv, M):
        for j, v in zip(P, row):
            M_row[j] = v
    return M


def test_socle_sizes():
    arc5, ts5 = corpus_system(5, 3)
    assert ts5.socle[0] == (0, 1, 2)  # t = 1
    ts = build_tangent_system(Arc(arc5.gf, 3, arc5.points[:5]))
    assert len(ts.socle[0]) == 5  # t = 2: dim Phi_2 = 1 of 6
    _, ts7 = corpus_system(7, 4)
    assert len(ts7.socle[0]) == 7  # t = 2: dim Phi_2 = 3 of 10


def truncations(arc):
    """The arc with its last d points dropped, d = 0..3: t grows by d."""
    return [Arc(arc.gf, arc.k, arc.points[: arc.n - d]) for d in range(min(3, arc.n - arc.k) + 1)]


def socle_of(arc):
    """The socle of a tangent system on the arc, which reads only the
    arc's points; small arcs have no scaled system to build."""
    return TangentSystem(arc, (), 0, {}).socle


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_socle_is_greedy_and_coordinate_map_is_basis_inverse(q, p, h, k):
    for arc in truncations(corpus_arc(q, k)):
        gf, t = arc.gf, arc.t
        soc = socle_of(arc)[0]
        assert soc == greedy_socle(arc, t), t
        V = [veronese(gf, arc.points[i], t) for i in soc]
        N = num_monomials(k, t)
        P, inv = coordinate_map(gf, V, N)
        assert P == sorted(P) and len(P) == len(V)
        M = padded(P, inv, N)
        assert M == greedy_left_inverse(gf, V, N, reverse=False), t
        assert mat_mul(gf, M, [list(r) for r in zip(*V)]) == identity(len(V))


@pytest.mark.parametrize("arc", [corpus_arc(q, k) for q, p, h, k in CORPUS] + [glynn_arc()],
                         ids=[f"q{q}-k{k}" for q, p, h, k in CORPUS] + ["glynn"])
def test_socle_rows_are_point_coordinates(arc):
    # one elimination gives the greedy socle, each point's coordinates in
    # its basis and, through N - w, the dimension of phi_t
    gf, t = arc.gf, arc.t
    soc, C = build_tangent_system(arc).socle
    assert soc == greedy_socle(arc, t)
    basis = [veronese(gf, arc.points[i], t) for i in soc]
    for j, x in enumerate(arc.points):
        combo = [0] * len(basis[0])
        for i, v in enumerate(basis):
            combo = [gf.add(a, gf.mul(C[i][j], b)) for a, b in zip(combo, v)]
        assert combo == veronese(gf, x, t), j
    N = num_monomials(arc.k, t)
    assert N - len(soc) == vanishing_subspace(gf, arc.k, arc.points, t).dim


def test_coordinate_map_tiebreaks_differ():
    gf = field(5)
    cols = [(1, 1, 0, 0), (0, 1, 1, 0)]
    # ascending completion adds e_0, e_3: last nonzero coordinates are 1, 2
    assert coordinate_map(gf, cols, 4) == ([1, 2], [[1, 4], [0, 1]])
    assert padded(*coordinate_map(gf, cols, 4), 4) == [[0, 1, 4, 0], [0, 0, 1, 0]]
    # a descending completion gives another left inverse, so the check that
    # F is unique modulo block-vanishing terms compares distinct builds
    arc = Arc(gf, 3, corpus_arc(5, 3).points[:5])  # t = 2
    V = [veronese(gf, arc.points[i], 2) for i in socle_of(arc)[0]]
    assert padded(*coordinate_map(gf, V, 6), 6) != greedy_left_inverse(gf, V, 6, reverse=True)


def test_coordinate_map_rejects_dependent_columns():
    with pytest.raises(ValueError):
        coordinate_map(field(5), [(1, 2, 0), (2, 4, 0)], 3)


@pytest.fixture
def rref_widths(monkeypatch):
    """The column count of every matrix linalg.rref reduces, in call order."""
    widths, rref = [], linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda gf, rows: widths.append(len(rows[0]) if rows else 0) or rref(gf, rows))
    return widths


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_coordinate_map_reduces_once(q, p, h, k, rref_widths):
    # P and V[P, :]^-1 come off one elimination of [V^T reversed | I_w]
    arc, ts = corpus_system(q, k)
    V = [ts.point_vectors[i] for i in ts.socle[0]]
    N = num_monomials(k, arc.t)
    rref_widths.clear()
    P, inv = coordinate_map(arc.gf, V, N)
    assert rref_widths == [N + len(V)]
    assert padded(P, inv, N) == greedy_left_inverse(arc.gf, V, N, reverse=False)


# SHA-256 of json.dumps of F's artifact object with its dense coefficients, recorded before the basis
# completion was derived from pivots; the artifacts must stay byte-stable.
ARTIFACT_SHA256 = {
    (7, 4): "52d288b817302921ccd5fcf228e14e8ff37fbcac92249ea22b37dacf27e236ac",
    (8, 4): "903939f8b03ec132a385062ff0daca84ec7e1d525e985844e55b4dfb63be8111",
}


# the ids keep the suffix they had while a reversed build was pinned too
@pytest.mark.parametrize("q,k", sorted(ARTIFACT_SHA256), ids=[f"{q}-{k}-False" for q, k in sorted(ARTIFACT_SHA256)])
def test_tensor_form_bytes_are_stable(q, k):
    arc, ts = corpus_system(q, k)
    F = build_tensor_form(arc, ts)
    blob = json.dumps(dense_json(arc.gf, F)).encode()
    assert hashlib.sha256(blob).hexdigest() == ARTIFACT_SHA256[q, k]


# -- the support block -------------------------------------------------------


def dense_contraction(gf, core, M, blocks):
    """The w^blocks core, row-major, with every mode contracted by the
    w x N matrix M: a dense row-major list of N^blocks entries."""
    w, N = len(M), len(M[0])
    data = {J: v for J, v in zip(itertools.product(range(w), repeat=blocks), core) if v}
    for mode in range(blocks):
        out = defaultdict(int)
        for J, v in data.items():
            for j, m in enumerate(M[J[mode]]):
                if m:
                    K = J[:mode] + (j,) + J[mode + 1 :]
                    out[K] = gf.add(out[K], gf.mul(v, m))
        data = {J: v for J, v in out.items() if v}
    return [data.get(J, 0) for J in itertools.product(range(N), repeat=blocks)]


@pytest.mark.parametrize("arc", [corpus_arc(q, k) for q, p, h, k in CORPUS] + [glynn_arc()],
                         ids=[f"q{q}-k{k}" for q, p, h, k in CORPUS] + ["glynn"])
def test_built_form_is_core_contracted_by_greedy_inverse(arc):
    # the built F keeps only its w^(k-1) block; its dense coefficients are
    # those of the reference socle core contracted by the full w x N
    # reference left inverse
    gf, t, blocks = arc.gf, arc.t, arc.k - 1
    ts = build_tangent_system(arc)
    soc = greedy_socle(arc, t)
    V = [veronese(gf, arc.points[i], t) for i in soc]
    M = greedy_left_inverse(gf, V, num_monomials(arc.k, t), reverse=False)
    core = [g_value(ts, a) for a in itertools.product(soc, repeat=blocks)]
    F = build_tensor_form(arc, ts)
    assert len(F.block) == len(soc) ** blocks
    assert dense(F) == dense_contraction(gf, core, M, blocks)


@st.composite
def partial_forms(draw):
    """(q, a form on a random support, its dense coefficients, points, and
    prefix exponents for shift_extract)."""
    q = draw(st.sampled_from([4, 5, 7]))
    k, blocks, t = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    N = num_monomials(k, t)
    support = sorted(draw(st.sets(st.integers(0, N - 1), min_size=1)))
    size = len(support) ** blocks
    block = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    coeffs = [0] * N**blocks
    for J, v in zip(itertools.product(support, repeat=blocks), block):
        coeffs[sum(j * N ** (blocks - 1 - m) for m, j in enumerate(J))] = v
    coordinate = st.integers(0, q - 1)
    points = draw(st.lists(st.tuples(*[coordinate] * k), min_size=1, max_size=3))
    prefix_monomials = [m for d in range(t + 1) for m in monomial_basis(k, d)]
    exponents = [draw(st.sampled_from(prefix_monomials)) for _ in range(blocks - 1)]
    return q, MultiForm(k, blocks, t, tuple(block), tuple(support)), coeffs, points, exponents


@settings(max_examples=150, deadline=None)
@given(partial_forms())
def test_partial_support_matches_dense_twin(case):
    q, mf, coeffs, points, exponents = case
    gf = field(q)
    twin = MultiForm(mf.k, mf.blocks, mf.t, tuple(coeffs))
    assert dense(mf) == coeffs == dense(twin)
    table = evaluation_table(gf, mf, points)
    assert table == evaluation_table(gf, twin, points)
    for tup, value in zip(itertools.product(points, repeat=mf.blocks), table):
        assert evaluate(gf, mf, list(tup)) == value == direct_value(gf, twin, tup)[0]
    for prefix in itertools.product(points, repeat=mf.blocks - 1):
        assert partial_evaluate(gf, mf, list(prefix)) == partial_evaluate(gf, twin, list(prefix))
    assert shift_extract(gf, mf, exponents) == shift_extract(gf, twin, exponents)
    elements = [gf.element_to_json(a) for a in gf.elements()]
    want = {"k": mf.k, "blocks": mf.blocks, "t": mf.t, "coeffs": [elements[c] for c in coeffs]}
    assert json.dumps(dense_json(gf, mf)) == json.dumps(dense_json(gf, twin)) == json.dumps(want)


def test_support_must_be_sorted_distinct_and_in_range():
    for support in [(), (2, 1), (1, 1), (0, 3)]:  # N = 3 for k = 3, t = 1
        with pytest.raises(ValueError):
            MultiForm(3, 1, 1, (0,) * len(support), support)
    with pytest.raises(ValueError):
        MultiForm(3, 2, 1, (0,) * 3, (0, 2))  # 2^2 entries needed


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_defining_contract_all_tuples(q, p, h, k):
    arc, ts, F = corpus_tensor(q, k)
    table = evaluation_table(arc.gf, F, arc.points)
    for pos, tup in enumerate(itertools.product(range(arc.n), repeat=k - 1)):
        assert table[pos] == g_value(ts, tup), tup


def test_bilinear_form_on_conic():
    arc, ts, F = corpus_tensor(5, 3)
    assert F.blocks == 2 and F.t == 1 and F.mode_dim == 3
    for a, b in itertools.product(range(arc.n), repeat=2):
        got = evaluate(arc.gf, F, [arc.points[a], arc.points[b]])
        assert got == g_value(ts, (a, b))
        if a == b:
            assert got == 0


def test_partial_evaluation_recovers_tangent_line():
    # the residual degree-1 form at a conic point is the tangent line there
    arc, ts, F = corpus_tensor(5, 3)
    gf = arc.gf
    for i in range(arc.n):
        f = partial_evaluate(gf, F, [arc.points[i]])
        dual = tangent_hyperplanes(arc, (i,))[0]
        assert normalize(gf, f.coeffs) == normalize(gf, dual)


def test_partial_evaluate_prefix_length(gf5):
    _, _, F = corpus_tensor(5, 3)
    with pytest.raises(ValueError):
        partial_evaluate(gf5, F, [])


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_verify_tensor_form_corpus(q, p, h, k):
    arc, ts, F = corpus_tensor(q, k)
    report = verify_tensor_form(arc, ts, F)
    assert report.passed, [c.to_json() for c in report.checks if not c.passed]


def test_block_congruence_examples():
    arc, ts, F = corpus_tensor(7, 4)
    gf = arc.gf
    N = F.mode_dim
    zero = MultiForm(4, 3, 2, (0,) * N**3)
    assert is_block_congruent(zero, arc)
    # a vanishing form in block 1 times a monomial elsewhere
    phi = vanishing_subspace(gf, 4, arc.points, 2).basis[0]
    coeffs = [0] * N**3
    for j, c in enumerate(phi):
        coeffs[j * N * N + 0 * N + 3] = c
    assert is_block_congruent(MultiForm(4, 3, 2, tuple(coeffs)), arc)
    # the tensor form itself is not congruent to zero
    assert not is_block_congruent(F, arc)


def test_block_permutation_sign():
    # odd q, t = 2: permuting the blocks by sigma multiplies every value on
    # arc points by (-1)^(parity(sigma)(t+1)), computed by direct evaluation
    arc, ts, F = corpus_tensor(5, 4)
    gf = arc.gf
    tuples = list(itertools.product(range(arc.n), repeat=F.blocks))
    value = {a: evaluate(gf, F, [arc.points[i] for i in a]) for a in tuples}
    unsigned_fails = False
    for sigma in itertools.permutations(range(F.blocks)):
        sign = gf.neg(1) if perm_parity(sigma) * (F.t + 1) % 2 else 1
        for a in tuples:
            permuted = tuple(a[s] for s in sigma)
            assert value[permuted] == gf.mul(sign, value[a]), (sigma, a)
            unsigned_fails |= value[permuted] != value[a]
    assert unsigned_fails


def reversed_build(arc, ts):
    """F from the socle core and the left inverse that completes the socle's
    Veronese matrix by unit vectors tried in descending order."""
    gf, t, blocks = arc.gf, arc.t, arc.k - 1
    soc = greedy_socle(arc, t)
    V = [veronese(gf, arc.points[i], t) for i in soc]
    M = greedy_left_inverse(gf, V, num_monomials(arc.k, t), reverse=True)
    shape, data = [len(soc)] * blocks, [g_value(ts, a) for a in itertools.product(soc, repeat=blocks)]
    for mode in range(blocks):
        shape, data = _contract_mode(gf, shape, data, mode, M)
    return MultiForm(arc.k, blocks, t, tuple(data))


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_uniqueness_check_matches_reversed_build(q, p, h, k):
    # the check compares F's table with the core contracted by the socle's
    # reduced rows; that is the table of the build from any other left
    # inverse, also when a scaled tangent form is off by a factor
    arc, ts = corpus_system(q, k)
    gf = arc.gf
    S = max(ts.fS)
    rescaled = dict(ts.fS)
    rescaled[S] = Form(k, arc.t, tuple(gf.mul(2, c) for c in ts.fS[S].coeffs))
    for system in (ts, TangentSystem(arc, ts.E, ts.anchor, rescaled)):
        F = build_tensor_form(arc, system)
        table = evaluation_table(gf, F, arc.points)
        assert evaluation_table(gf, reversed_build(arc, system), arc.points) == table
        failed = {c.name: c.failed for c in verify_tensor_form(arc, system, F).checks}
        assert failed["unique-modulo-block-vanishing"] == 0


@pytest.mark.parametrize(
    "q,k,failed",
    [
        # t = 1: g is symmetric and the corrupted x0*y0 entry is too
        (5, 3, {
            "matches-signed-tangent-evaluations": 25,
            "partial-eval-is-tangent-form-mod-vanishing": 5,
            "repeated-points-vanish": 5,
            "block-permutation-antisymmetry": 0,
            "unique-modulo-block-vanishing": 1,
        }),
        (7, 4, {
            "matches-signed-tangent-evaluations": 343,
            "partial-eval-is-tangent-form-mod-vanishing": 21,
            "repeated-points-vanish": 140,
            "block-permutation-antisymmetry": 3,
            "unique-modulo-block-vanishing": 1,
        }),
    ],
    ids=["q5-k3", "q7-k4"],
)
def test_corrupted_tensor_entry_is_caught(q, k, failed):
    arc, ts, F = corpus_tensor(q, k)
    gf, bad = arc.gf, dense(F)
    for pos in range(len(bad)):
        delta = [0] * len(bad)
        delta[pos] = 1
        if not is_block_congruent(MultiForm(F.k, F.blocks, F.t, tuple(delta)), arc):
            break
    bad[pos] = gf.add(bad[pos], 1)
    report = verify_tensor_form(arc, ts, MultiForm(F.k, F.blocks, F.t, tuple(bad)))
    assert {c.name: c.failed for c in report.checks} == failed


def test_repeated_point_witnesses_stay_in_tuple_order():
    # one corrupted entry: the witnesses of repeated-points-vanish are the
    # failing prefixes, then the failing tuples, each in ascending
    # row-major order, as the per-tuple set filter lists them
    arc, ts, F = corpus_tensor(7, 4)
    gf, n, blocks = arc.gf, arc.n, F.blocks
    bad = dense(F)
    bad[0] = gf.add(bad[0], 1)
    bad = MultiForm(F.k, blocks, F.t, tuple(bad))
    table = evaluation_table(gf, bad, arc.points)
    prefixes = itertools.product(range(n), repeat=blocks - 1)
    want = [
        {"prefix": list(a)} for pos, a in enumerate(prefixes)
        if len(set(a)) < blocks - 1 and any(table[pos * n : (pos + 1) * n])
    ] + [
        {"tuple": list(a)} for pos, a in enumerate(itertools.product(range(n), repeat=blocks))
        if len(set(a)) < blocks and table[pos]
    ]
    check = next(c for c in verify_tensor_form(arc, ts, bad).checks if c.name == "repeated-points-vanish")
    assert any("tuple" in w for w in check.witnesses)
    assert (check.failed, check.witnesses) == (len(want), want[:MAX_WITNESSES])


def test_rescaled_representative_rebuild():
    # scaling one representative changes the system but not its contracts
    gf = field(7)
    base = corpus_arc(7, 3)
    pts = list(base.points)
    pts[4] = tuple(gf.mul(3, c) for c in pts[4])
    arc = Arc(gf, 3, tuple(pts))
    ts = build_tangent_system(arc)
    F = build_tensor_form(arc, ts)
    table = evaluation_table(gf, F, arc.points)
    for pos, tup in enumerate(itertools.product(range(arc.n), repeat=2)):
        assert table[pos] == g_value(ts, tup)
    assert verify_tensor_form(arc, ts, F).passed


# -- contraction oracles -----------------------------------------------------


def direct_value(gf, mf, points):
    """sum_J F[J] prod_m nu(x_m)_{J_m} over the leading len(points) modes,
    as a flat list over the remaining modes; no tensor contraction used."""
    vecs = [monomial_vector(gf, x, mf.t) for x in points]
    rest = mf.mode_dim ** (mf.blocks - len(points))
    out = [0] * rest
    for pos, c in enumerate(dense(mf)):
        lead, tail = divmod(pos, rest)
        J = []
        for _ in points:
            lead, j = divmod(lead, mf.mode_dim)
            J.append(j)
        term = c
        for v, j in zip(vecs, reversed(J)):
            term = gf.mul(term, v[j])
        out[tail] = gf.add(out[tail], term)
    return out


def oracle_tensors(gf, k, blocks, t, rng):
    """A fully dense tensor (every entry nonzero), the zero tensor and a
    single-entry tensor of the given shape."""
    size = num_monomials(k, t) ** blocks
    dense = tuple(rng.randrange(1, gf.q) for _ in range(size))
    single = [0] * size
    single[rng.randrange(size)] = rng.randrange(1, gf.q)
    return [
        MultiForm(k, blocks, t, dense),
        MultiForm(k, blocks, t, (0,) * size),
        MultiForm(k, blocks, t, tuple(single)),
    ]


@pytest.mark.parametrize("q", [7, 8, 9])
@pytest.mark.parametrize("blocks", [2, 3])
def test_contractions_match_direct_sum(q, blocks):
    gf = field(q)
    rng = random.Random(q * 10 + blocks)
    k, t = 3, 2
    points = [tuple(rng.randrange(gf.q) for _ in range(k)) for _ in range(3)]
    points.append((0, 0, 1))
    for mf in oracle_tensors(gf, k, blocks, t, rng):
        table = evaluation_table(gf, mf, points)
        tuples = list(itertools.product(points, repeat=blocks))
        assert table == [direct_value(gf, mf, tup)[0] for tup in tuples]
        for tup in tuples:
            assert evaluate(gf, mf, list(tup)) == direct_value(gf, mf, tup)[0]
        for prefix in itertools.product(points, repeat=blocks - 1):
            got = partial_evaluate(gf, mf, list(prefix))
            assert list(got.coeffs) == direct_value(gf, mf, prefix)


class CountingList(list):
    """A list that counts its indexed reads (a slice is one read)."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_contraction_work_follows_nonzeros(mode):
    # one slice read per fiber along the mode, one vec_mat per contraction,
    # and one call of its map for each fiber that is not all zero,
    # whatever the entries
    gf = field(7)
    rng = random.Random(mode)
    shape, new_dim = [6, 6, 6], 5
    fibers = prod(shape) // shape[mode]
    matrix = [
        [rng.randrange(7) if rng.random() < 0.5 else 0 for _ in range(new_dim)]
        for _ in range(6)
    ]
    for J in itertools.product(range(6), repeat=3):
        pos = (J[0] * 6 + J[1]) * 6 + J[2]
        data = CountingList([0] * 216)
        data[pos] = 3
        counting = CountingField(gf)
        new_shape, out = _contract_mode(counting, list(shape), data, mode, matrix)
        row = matrix[J[mode]]
        assert data.reads == fibers
        assert (counting.kernel_calls, counting.combine_calls) == (1, 1)
        assert new_shape == shape[:mode] + [new_dim] + shape[mode + 1 :]
        want = [0] * len(out)
        for j, m in enumerate(row):
            K = J[:mode] + (j,) + J[mode + 1 :]
            want[(K[0] * new_shape[1] + K[1]) * new_shape[2] + K[2]] = gf.mul(3, m)
        assert out == want
    # several nonzero entries: one map call per fiber holding one of them
    data = CountingList(rng.randrange(1, 7) if rng.random() < 0.1 else 0 for _ in range(216))
    nonzero_fibers = {
        J[:mode] + J[mode + 1 :] for J, v in zip(itertools.product(range(6), repeat=3), data) if v
    }
    counting = CountingField(gf)
    _contract_mode(counting, list(shape), data, mode, matrix)
    assert data.reads == fibers and counting.kernel_calls == 1
    assert counting.combine_calls == len(nonzero_fibers)


def contract_mode_by_definition(gf, shape, data, mode, matrix):
    """out[o, j, r] = sum_i data[o, i, r] * matrix[i][j], by gf.add and gf.mul."""
    outer, dim, inner, new_dim = prod(shape[:mode]), shape[mode], prod(shape[mode + 1 :]), len(matrix[0])
    out = []
    for o in range(outer):
        for j in range(new_dim):
            for r in range(inner):
                acc = 0
                for i in range(dim):
                    acc = gf.add(acc, gf.mul(data[(o * dim + i) * inner + r], matrix[i][j]))
                out.append(acc)
    return shape[:mode] + [new_dim] + shape[mode + 1 :], out


@pytest.mark.parametrize("p,h", [(11, 1), (2, 4), (3, 2), (2, 8), (2, 9)])
def test_contractions_match_definition(p, h):
    # every mode of a 3-mode tensor, 6 -> 5 and 6 -> 9 (with a zero
    # column), on all-zero, dense, 10%-sparse and tuple data; GF(2^8) is
    # the last field packed a byte per entry, GF(2^9) packs two
    gf = make_field(p, h, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1] if (p, h) == (2, 9) else None)
    rng = random.Random(p * 100 + h)
    matrices = [[[rng.randrange(gf.q) for _ in range(new_dim)] for _ in range(6)] for new_dim in (5, 9)]
    for row in matrices[1]:
        row[4] = 0
    for mode, matrix in itertools.product(range(3), matrices):
        shape = [3, 4, 2]
        shape[mode] = 6
        size = prod(shape)
        dense = [rng.randrange(gf.q) for _ in range(size)]
        sparse = [rng.randrange(1, gf.q) if rng.random() < 0.1 else 0 for _ in range(size)]
        for data in ([0] * size, dense, sparse, tuple(dense)):
            want = contract_mode_by_definition(gf, shape, data, mode, matrix)
            assert _contract_mode(gf, list(shape), data, mode, matrix) == want
    # every mode of a 6 x 6 x 6 tensor, in turn
    dense = [rng.randrange(gf.q) for _ in range(216)]
    sparse = [rng.randrange(1, gf.q) if rng.random() < 0.1 else 0 for _ in range(216)]
    for matrix, data in itertools.product(matrices, ([0] * 216, dense, sparse, tuple(sparse))):
        assert _contract_modes(gf, data, matrix, 3) == dense_contraction(gf, data, matrix, 3)


@pytest.mark.parametrize("p,h", [(3, 2), (2, 4)])
def test_evaluations_match_dense_brute_force(p, h):
    # a random form on a random support, evaluated in full and partially at
    # random points of PG(3, q), against the sum over its dense coefficients
    gf, k, blocks, t = make_field(p, h), 4, 3, 2
    rng = random.Random(p * 100 + h)
    N = num_monomials(k, t)
    support = sorted(rng.sample(range(N), 6))
    block = tuple(rng.randrange(gf.q) if rng.random() < 0.7 else 0 for _ in range(6**blocks))
    mf = MultiForm(k, blocks, t, block, tuple(support))
    points = [tuple(rng.randrange(gf.q) for _ in range(k)) for _ in range(4)]
    for tup in itertools.product(points, repeat=blocks):
        assert evaluate(gf, mf, list(tup)) == direct_value(gf, mf, tup)[0]
    for prefix in itertools.product(points, repeat=blocks - 1):
        got = partial_evaluate(gf, mf, list(prefix))
        assert list(got.coeffs) == direct_value(gf, mf, prefix)


# -- shift extraction --------------------------------------------------------


def brute_force_shift_coefficient(gf, F, exponents):
    """Symbolic oracle: expand F(Y_1+X, ..., Y_{k-2}+X, X) - F(Y_1, ..., X)
    over 2k(k-2)-ish variables and read off one Y-coefficient."""
    k, blocks, t = F.k, F.blocks, F.t
    basis = monomial_basis(k, t)
    acc = defaultdict(int)  # X exponent tuple -> coefficient

    def binom(n, m):
        return comb(n, m) % gf.p

    coeffs = dense(F)
    for pos, J in enumerate(itertools.product(range(len(basis)), repeat=blocks)):
        c = coeffs[pos]
        if not c:
            continue
        jm = [basis[j] for j in J]
        # expand each prefix block (Y+X)^{J_m}; collect terms with Y^{i_m}
        # coefficient binom(J_m, i_m) X^{J_m - i_m}; subtract the unshifted
        # polynomial, whose Y-coefficient comes from J_m == i_m exactly.
        coef = c
        xtotal = list(jm[-1])
        ok = True
        for m in range(blocks - 1):
            im = exponents[m]
            for var in range(k):
                if jm[m][var] < im[var]:
                    ok = False
                    break
                coef = gf.mul(coef, binom(jm[m][var], im[var]))
                xtotal[var] += jm[m][var] - im[var]
            if not ok:
                break
        if not ok or not coef:
            continue
        if all(jm[m] == tuple(exponents[m]) for m in range(blocks - 1)):
            continue  # cancelled by the unshifted polynomial
        acc[tuple(xtotal)] = gf.add(acc[tuple(xtotal)], coef)
    return acc


def test_shift_extract_matches_symbolic_oracle():
    arc, ts, F = corpus_tensor(5, 3)
    gf = arc.gf
    all_exps = [m for d in (0, 1) for m in monomial_basis(3, d)]
    for i1 in all_exps:
        got = shift_extract(gf, F, [i1])
        want = brute_force_shift_coefficient(gf, F, [i1])
        deg = got.t
        for pos, mono in enumerate(monomial_basis(3, deg)):
            assert got.coeffs[pos] == want.get(mono, 0), (i1, mono)


def test_shift_extract_diagonal_on_conic():
    for q in (5, 7):
        arc, ts, F = corpus_tensor(q, 3)
        gf = arc.gf
        f = shift_extract(gf, F, [(0, 0, 0)])
        assert f.t == 2
        assert any(f.coeffs)
        assert vanishes_on(gf, f, arc.points)
        # and it is proportional to the conic: dim Phi_2 = 1
        sub = vanishing_subspace(gf, 3, arc.points, 2)
        assert sub.dim == 1


def test_shift_extract_full_degree_is_zero():
    arc, ts, F = corpus_tensor(5, 3)
    gf = arc.gf
    for i1 in monomial_basis(3, 1):
        f = shift_extract(gf, F, [i1])
        assert f.t == 1
        assert not any(f.coeffs)  # the excluded diagonal removes every term
        assert vanishes_on(gf, f, arc.points)


def test_shift_extract_zero_tensor():
    gf = field(5)
    zero = MultiForm(3, 2, 1, (0,) * 9)
    f = shift_extract(gf, zero, [(0, 0, 0)])
    assert not any(f.coeffs) and f.t == 2


def test_shift_extract_degree_formula():
    arc, ts, F = corpus_tensor(7, 4)
    gf = arc.gf
    rng = random.Random(7)
    exps = [m for d in (0, 1, 2) for m in monomial_basis(4, d)]
    for _ in range(10):
        i1, i2 = rng.choice(exps), rng.choice(exps)
        f = shift_extract(gf, F, [i1, i2])
        assert f.t == 3 * 2 - sum(i1) - sum(i2)


def test_shift_extract_rejects_oversized_exponents():
    arc, ts, F = corpus_tensor(5, 3)
    with pytest.raises(ValueError):
        shift_extract(arc.gf, F, [(2, 0, 0)])  # total 2 > t = 1
    with pytest.raises(ValueError):
        shift_extract(arc.gf, F, [(0, 0, 0), (0, 0, 0)])  # wrong count


# -- quadrics ----------------------------------------------------------------


def test_quadric_check_twisted_cubics():
    for q in (5, 7):
        arc = corpus_arc(q, 4)
        quad = quadric_check(arc)
        assert quad is not None and any(quad.coeffs)
        assert quad.t == 2
        assert vanishes_on(arc.gf, quad, arc.points)


def test_quadric_check_preconditions():
    with pytest.raises(ValueError):
        quadric_check(corpus_arc(8, 4))  # even q
    with pytest.raises(ValueError):
        quadric_check(corpus_arc(5, 3))  # wrong k
    gf = field(7)
    small = Arc(gf, 4, corpus_arc(7, 4).points[:6])
    with pytest.raises(ValueError):
        quadric_check(small)  # wrong size


# -- exact-correction search --------------------------------------------------


def expand_correction(gf, F, terms):
    """F - sum_b U_b (x) phi_b as a dense MultiForm: the corrected form that
    search_exact_tangent_match returns as its factors (U_b, phi_b)."""
    coeffs, N = dense(F), F.mode_dim
    for U, f in terms:
        for pos, u in enumerate(dense(U)):
            for j, c in enumerate(f.coeffs):
                coeffs[pos * N + j] = gf.sub(coeffs[pos * N + j], gf.mul(u, c))
    return MultiForm(F.k, F.blocks, F.t, tuple(coeffs))


def test_search_exact_trivial_when_no_vanishing_forms():
    arc, ts, F = corpus_tensor(5, 3)
    found, terms = search_exact_tangent_match(arc, ts, F)
    assert (found, terms) == (True, [])  # t = 1: residuals are already zero
    assert dense(expand_correction(arc.gf, F, terms)) == dense(F)


def test_search_exact_twisted_cubic():
    arc, ts, F = corpus_tensor(7, 4)
    found, terms = search_exact_tangent_match(arc, ts, F)
    assert found
    corrected = expand_correction(arc.gf, F, terms)
    for S in itertools.combinations(range(arc.n), 2):
        got = partial_evaluate(arc.gf, corrected, [arc.points[i] for i in S])
        assert got == ts.form(S)
    # the correction stays within the contract
    table = evaluation_table(arc.gf, corrected, arc.points)
    for pos, tup in enumerate(itertools.product(range(arc.n), repeat=3)):
        assert table[pos] == g_value(ts, tup)


@pytest.mark.parametrize("q,p,h,k", CORPUS)
def test_search_exact_reduces_prefix_system_once(q, p, h, k, rref_widths):
    # after the vanishing forms (width N), every basis form's correction
    # comes off one elimination of [socle rows | residual coordinates],
    # w^(k-2) + dim phi_t wide, and its lift off coordinate_map's one
    # elimination, N + w wide; with no vanishing forms there is nothing to
    # solve
    arc, ts, F = corpus_tensor(q, k)
    N, w = F.mode_dim, len(ts.socle[0])
    dim = N - w
    rref_widths.clear()
    found, _ = search_exact_tangent_match(arc, ts, F)
    assert found
    assert rref_widths == [N] + ([w ** (k - 2) + dim, N + w] if dim else [])


def test_search_exact_terms_on_glynn_arc():
    # each U_b is evaluated here as its support block against the Kronecker
    # product of the Veronese vectors at S, read at U_b's support: F - D
    # then gives every tangent form exactly
    arc = glynn_arc()
    ts = build_tangent_system(arc)
    F = build_tensor_form(arc, ts)
    gf = arc.gf
    found, terms = search_exact_tangent_match(arc, ts, F)
    assert found and len(terms) == num_monomials(5, 3) - len(ts.socle[0]) == 25
    support = terms[0][0].support
    assert all(U.support == support for U, _ in terms)
    for S in itertools.combinations(range(arc.n), 3):
        kron = [1]
        for i in S:
            ver = veronese(gf, arc.points[i], 3)
            kron = [gf.mul(a, ver[j]) for a in kron for j in support]
        got = partial_evaluate(gf, F, [arc.points[i] for i in S]).coeffs
        for U, f in terms:
            u = linalg.dot(gf, U.block, kron)
            got = [gf.sub(c, gf.mul(u, d)) for c, d in zip(got, f.coeffs)]
        assert tuple(got) == ts.form(S).coeffs


def test_search_exact_memory_at_k5():
    # NRC of PG(4, 7): n = 8, t = 3, N = 35, w = 8.  The socle system is
    # 56 x (8^3 + 27) and each U_b a 512-entry block; a system N^3 = 42,875
    # wide or a dense N^4-entry corrected form would take tens of MiB
    arc = normal_rational_curve(field(7), 5)
    ts = build_tangent_system(arc)
    F = build_tensor_form(arc, ts)
    tracemalloc.start()
    try:
        found, terms = search_exact_tangent_match(arc, ts, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found and len(terms) == 27
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("q", [5, 7, 8])
def test_search_exact_stops_at_a_residual_off_the_vanishing_forms(q, rref_widths):
    # one corrupted entry puts a residual outside the span of the vanishing
    # forms: the search returns after the one elimination of the Veronese
    # matrix (vanishing_subspace), before it builds the prefix system
    arc, ts, F = corpus_tensor(q, 4)
    coeffs = dense(F)
    coeffs[0] = arc.gf.add(coeffs[0], 1)
    rref_widths.clear()
    assert search_exact_tangent_match(arc, ts, MultiForm(F.k, F.blocks, F.t, tuple(coeffs))) == (False, None)
    assert rref_widths == [F.mode_dim]


def test_search_exact_stops_when_the_prefix_system_is_inconsistent(rref_widths, monkeypatch):
    # on PG(3, 8) the 36 prefix rows have rank 34, and the row of the last
    # pair lies in the span of the others; shifting that pair's tangent form
    # by a vanishing form keeps every residual in the span of phi but leaves
    # the prefix system without a solution, so the search returns after its
    # one elimination, in the socle coordinates of the shifted system (which
    # takes its own socle), and never lifts a solution
    arc, ts, F = corpus_tensor(8, 4)
    last = (arc.n - 2, arc.n - 1)
    fS = dict(ts.fS)
    fS[last] = form_add(arc.gf, fS[last], vanishing_subspace(arc.gf, 4, arc.points, arc.t).forms()[0])
    shifted = TangentSystem(arc, ts.E, ts.anchor, fS)
    evaluations, evaluate = [], tensorform.partial_evaluate
    monkeypatch.setattr(tensorform, "partial_evaluate", lambda *a: evaluations.append(1) or evaluate(*a))
    rref_widths.clear()
    assert search_exact_tangent_match(arc, shifted, F) == (False, None)
    N, w = F.mode_dim, len(ts.socle[0])
    assert rref_widths == [N, arc.n, w**2 + N - w]
    assert evaluations == []  # the residuals are read off one table


@pytest.mark.parametrize("arc", [corpus_arc(q, k) for q, p, h, k in CORPUS] + [glynn_arc()],
                         ids=[f"q{q}-k{k}" for q, p, h, k in CORPUS] + ["glynn"])
def test_search_exact_reads_each_residual_off_the_leading_table(arc, monkeypatch):
    # the search contracts F's leading modes once, at the arc's points, and
    # reads F(x_S, ·) for every sorted S off that table; each form it reads
    # is partial_evaluate at x_S, so each residual is partial_evaluate - f_S
    ts = build_tangent_system(arc)
    F = build_tensor_form(arc, ts)
    gf, calls, partial_forms = arc.gf, [], tensorform._partial_forms

    def spy(*args):
        forms = list(partial_forms(*args))
        calls.append((args, forms))
        return iter(forms)

    monkeypatch.setattr(tensorform, "_partial_forms", spy)
    found, _ = search_exact_tangent_match(arc, ts, F)
    assert found
    subsets = list(itertools.combinations(range(arc.n), arc.k - 2))
    [((_, mf, vectors, tuples), read)] = calls
    assert mf is F and vectors == arc.points and list(tuples) == subsets
    for S, f in zip(subsets, read, strict=True):
        want = partial_evaluate(gf, F, [arc.points[i] for i in S])
        assert form_sub(gf, f, ts.form(S)) == form_sub(gf, want, ts.form(S)), S


def test_multiform_json_roundtrip(tmp_path):
    # the written coefficients, read back on full support, are F's own
    arc, ts, F = corpus_tensor(4, 3)
    _write_json(str(tmp_path / "F.json"), F.to_json(arc.gf))
    obj = json.loads((tmp_path / "F.json").read_text())
    again = MultiForm(obj["k"], obj["blocks"], obj["t"], tuple(map(arc.gf.element_from_json, obj["coeffs"])))
    assert (again.k, again.blocks, again.t, dense(again)) == (F.k, F.blocks, F.t, dense(F))
