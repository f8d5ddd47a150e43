import itertools
import random
from collections import defaultdict
from math import comb

import pytest

from arcforms.forms import (
    monomial_basis,
    vanishes_on,
    vanishing_subspace,
)
from arcforms.geometry import Arc, normalize
from arcforms.tangents import (
    build_tangent_system,
    g_value,
    perm_parity,
    tangent_hyperplanes,
)
from arcforms.tensorform import (
    MultiForm,
    build_tensor_form,
    evaluate,
    evaluation_table,
    extend_basis,
    is_block_congruent,
    partial_evaluate,
    quadric_check,
    search_exact_tangent_match,
    shift_extract,
    socle,
    verify_tensor_form,
)

from conftest import CORPUS, corpus_arc, corpus_tensor, field


def test_socle_sizes():
    arc5 = corpus_arc(5, 3)
    assert socle(arc5, 1).indices == (0, 1, 2)
    assert socle(arc5, 2).w == 5  # dim Phi_2 = 1 of 6
    arc7 = corpus_arc(7, 4)
    assert socle(arc7, 2).w == 7  # dim Phi_2 = 3 of 10


def test_extend_basis_tiebreaks_differ():
    gf = field(5)
    cols = [(1, 0, 0, 0), (0, 1, 0, 0)]
    fwd = extend_basis(gf, cols, 4)
    rev = extend_basis(gf, cols, 4, reverse=True)
    assert fwd.B != rev.B
    # both are genuine inverses
    for ext in (fwd, rev):
        n = 4
        prod = [
            [
                sum(ext.B[i][l] * ext.Binv[l][j] for l in range(n)) % 5
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    gf = arc.gf
    for pos in range(len(F.coeffs)):
        delta = [0] * len(F.coeffs)
        delta[pos] = 1
        if not is_block_congruent(MultiForm(F.k, F.blocks, F.t, tuple(delta)), arc):
            break
    bad = list(F.coeffs)
    bad[pos] = gf.add(bad[pos], 1)
    report = verify_tensor_form(arc, ts, MultiForm(F.k, F.blocks, F.t, tuple(bad)))
    assert {c.name: c.failed for c in report.checks} == failed


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


# -- shift extraction --------------------------------------------------------


def brute_force_shift_coefficient(gf, F, exponents):
    """Symbolic oracle: expand F(Y_1+X, ..., Y_{k-2}+X, X) - F(Y_1, ..., X)
    over 2k(k-2)-ish variables and read off one Y-coefficient."""
    k, blocks, t = F.k, F.blocks, F.t
    basis = monomial_basis(k, t)
    acc = defaultdict(int)  # X exponent tuple -> coefficient

    def binom(n, m):
        return comb(n, m) % gf.p

    for pos, J in enumerate(itertools.product(range(len(basis)), repeat=blocks)):
        c = F.coeffs[pos]
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
        assert not f.is_zero
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
        assert f.is_zero  # the excluded diagonal removes every term
        assert vanishes_on(gf, f, arc.points)


def test_shift_extract_zero_tensor():
    gf = field(5)
    zero = MultiForm(3, 2, 1, (0,) * 9)
    f = shift_extract(gf, zero, [(0, 0, 0)])
    assert f.is_zero and f.t == 2


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
        assert quad is not None and not quad.is_zero
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


def test_search_exact_trivial_when_no_vanishing_forms():
    arc, ts, F = corpus_tensor(5, 3)
    found, corrected = search_exact_tangent_match(arc, ts, F)
    assert found and corrected == F  # t = 1: residuals are already zero


def test_search_exact_twisted_cubic():
    arc, ts, F = corpus_tensor(7, 4)
    found, corrected = search_exact_tangent_match(arc, ts, F)
    assert found
    for S in itertools.combinations(range(arc.n), 2):
        got = partial_evaluate(arc.gf, corrected, [arc.points[i] for i in S])
        assert got == ts.form(S)
    # the correction stays within the contract
    table = evaluation_table(arc.gf, corrected, arc.points)
    for pos, tup in enumerate(itertools.product(range(arc.n), repeat=3)):
        assert table[pos] == g_value(ts, tup)


def test_multiform_json_roundtrip():
    arc, ts, F = corpus_tensor(4, 3)
    blob = F.to_json(arc.gf)
    assert MultiForm.from_json(arc.gf, blob) == F
