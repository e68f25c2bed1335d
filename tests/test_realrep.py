"""The generalized inverses against the real-representation oracle: pinv,
pinv_solve, outer_right/left/both, the W-prescribed ones, and the Drazin and
group inverses.

The oracle (tests/realrep.py) shares no code with either route, so it can
catch a fault that both routes share, which route parity cannot see.
"""

import numpy as np
import pytest

from quatinv.factor import full_rank_decompose, rank
from quatinv.geninv import (
    drazin,
    group_inverse,
    outer_both,
    outer_left,
    outer_right,
    outer_w_left,
    outer_w_right,
    pinv,
    pinv_report,
    pinv_solve,
)
from quatinv.qcore import QMatrix, conj_transpose, mat_mul, random_qmat
from realrep import chi, from_chi
from test_factor import with_spectrum

EPS = np.finfo(float).eps


def real_rank(c):
    # the SVD rule on a real matrix: singular values above max(m, n) eps s_1
    s = np.linalg.svd(c, compute_uv=False)
    return int(np.count_nonzero(s > max(c.shape) * EPS * s[0]))


def test_chi_is_an_injective_star_homomorphism():
    rng = np.random.default_rng(70)
    a, b = random_qmat(5, 3, rng), random_qmat(3, 4, rng)
    np.testing.assert_allclose(chi(mat_mul(a, b)), chi(a) @ chi(b),
                               atol=1e-13)
    np.testing.assert_array_equal(chi(conj_transpose(a)), chi(a).T)
    back = from_chi(chi(a))
    np.testing.assert_array_equal(back.q1, a.q1)
    np.testing.assert_array_equal(back.q2, a.q2)
    assert real_rank(chi(mat_mul(a, b))) == 4 * 3


def oracle_w_inverse(a, w):
    # chi(X) = U_r (V_r^T chi(A) U_r)^-1 V_r^T from chi(W) = U_r S V_r^T, the
    # compact real SVD: F = U_r and G = S V_r^T are a full rank
    # decomposition of chi(W), and S cancels in F (G chi(A) F)^-1 G
    cw = chi(w)
    k = real_rank(cw)
    u, _, vt = np.linalg.svd(cw, full_matrices=False)
    ur, vrt = u[:, :k], vt[:k]
    return ur @ np.linalg.solve(vrt @ chi(a) @ ur, vrt), k


# (m, n, r): A is m-by-n and W n-by-m of rank r; (20, 30, 20) gives W full
# column rank, so G = I
SHAPES = [(12, 8, 4), (8, 12, 5), (20, 30, 20), (40, 30, 12), (30, 40, 20)]


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("ctor", [outer_w_right, outer_w_left],
                         ids=["right", "left"])
@pytest.mark.parametrize("m, n, r", SHAPES)
def test_w_inverse_matches_the_real_representation(m, n, r, ctor, route):
    # W has singular values in [1, 2], as the benchmark's do.  The bound is
    # c max(m, n) eps ||A|| ||X||, Frobenius norms of the quaternion
    # matrices (||chi(A)||_F = 2 ||A||_F); the largest c measured over these
    # cases was 0.026, on both routes
    rng = np.random.default_rng(700 + 10 * m + n)
    a = random_qmat(m, n, rng)
    w = with_spectrum(n, m, rng.uniform(1.0, 2.0, r), rng)
    want, k = oracle_w_inverse(a, w)
    assert k == 4 * r
    assert full_rank_decompose(w, route=route).r == k // 4
    rep = ctor(a, w, route=route)
    assert rep.exists
    assert rep.ranks == {"nu": real_rank(chi(a)) // 4, "s": r, "t": r,
                         "w": r}
    cls = rep.classification
    assert cls["range_matches"] and cls["nullspace_matches"]
    got = chi(rep.x)
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    kappa = np.linalg.norm(chi(a)) * np.linalg.norm(want) / 4
    assert err <= 0.5 * max(m, n) * EPS * kappa


def with_rank(m, n, r, rng, cond=2.0):
    # U diag(sigma) V* of rank r (r = min(m, n) gives full rank), with r
    # singular values graded from 2 down to 2 / cond
    return with_spectrum(m, n, np.geomspace(2.0, 2.0 / cond, r), rng)


def oracle_pinv(c):
    # numpy's pseudo-inverse of a real matrix, cut at the SVD rule's
    # threshold max(rows, cols) eps s_1
    return np.linalg.pinv(c, max(c.shape) * EPS)


def relative_error(got, want):
    return np.linalg.norm(chi(got) - want) / np.linalg.norm(want)


def quaternion_cond(a, want):
    # ||A||_F ||X||_F from chi (each Frobenius norm doubles under chi)
    return np.linalg.norm(chi(a)) * np.linalg.norm(want) / 4


def flags_of(ranks):
    # the Urquhart rank conditions, written out here rather than read from
    # the library's classifier
    nu, s, t, w = ranks["nu"], ranks["s"], ranks["t"], ranks["w"]
    return {"is_one_inverse": w == nu, "is_outer": w == s or w == t,
            "range_matches": w == s, "nullspace_matches": w == t,
            "is_12_unique": w == s == t == nu}


# (m, n, r, cond): A is m-by-n of rank r, with singular values graded
# from 2 down to 2 / cond
PINV_CASES = [(12, 8, 8, 2.0), (8, 12, 8, 2.0), (10, 10, 10, 2.0),
              (10, 10, 6, 2.0), (40, 30, 30, 1e4), (40, 30, 12, 2.0),
              (30, 40, 20, 1e4), (30, 40, 30, 2.0)]


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("m, n, r, cond", PINV_CASES)
def test_pinv_matches_the_real_representation(m, n, r, cond, route):
    # pinv(A) against numpy's pseudo-inverse of chi(A), and pinv_solve(A, B)
    # against it times chi(B); the report's four ranks are rank(chi(A))/4.
    # The bound is c max(m, n) eps ||A|| ||X||; the largest c measured over
    # these cases was 0.11, on both routes and for both functions
    rng = np.random.default_rng(800 + 10 * m + n + r)
    a = with_rank(m, n, r, rng, cond)
    want = oracle_pinv(chi(a))
    k = real_rank(chi(a)) // 4
    assert k == r
    kappa = quaternion_cond(a, want)
    rep = pinv_report(a, route=route)
    assert rep.ranks == {"nu": k, "s": k, "t": k, "w": k}
    assert rep.classification == flags_of(rep.ranks)
    assert relative_error(rep.x, want) <= 0.5 * max(m, n) * EPS * kappa
    assert relative_error(pinv(a, route=route), want) <= (
        0.5 * max(m, n) * EPS * kappa)
    b = random_qmat(m, 3, rng)
    got = pinv_solve(a, b, route=route)
    assert relative_error(got, want @ chi(b)) <= 0.5 * max(m, n) * EPS * kappa


# (m, n, p, q, ra, rs, rt): A is m-by-n of rank ra, and the core's S is
# n-by-p of rank rs and its T q-by-m of rank rt, so W = T A S is q-by-p
OUTER_CASES = [(12, 8, 5, 6, 8, 5, 6), (8, 12, 6, 5, 8, 6, 5),
               (10, 10, 6, 6, 10, 6, 6), (40, 30, 12, 10, 20, 12, 10),
               (30, 40, 10, 12, 30, 7, 12), (20, 20, 8, 10, 15, 8, 5),
               (30, 40, 20, 20, 30, 20, 20)]


def oracle_outer(a, s, t):
    # chi(X) = chi(S) pinv(chi(T) chi(A) chi(S)) chi(T): the Urquhart
    # expression with the Moore-Penrose {1}-inverse (z = None)
    cs, ct = chi(s), chi(t)
    cw = ct @ chi(a) @ cs
    return cs @ oracle_pinv(cw) @ ct, real_rank(cw) // 4


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("m, n, p, q, ra, rs, rt", OUTER_CASES)
def test_outer_inverse_matches_the_real_representation(m, n, p, q, ra, rs,
                                                       rt, side, route):
    # outer_right(A, S, T) and outer_left(A, T, S) both build
    # X = S (T A S)^+ T; X against the oracle, and nu, s, t and w against
    # rank(chi(.))/4, within c max(m, n) eps ||A|| ||X|| (the largest c
    # measured over these cases was 0.062)
    rng = np.random.default_rng(900 + 10 * m + n + p + q)
    a = with_rank(m, n, ra, rng)
    s = with_rank(n, p, rs, rng)
    t = with_rank(q, m, rt, rng)
    want, w = oracle_outer(a, s, t)
    if side == "right":
        rep = outer_right(a, s, t, route=route)
        ranks = {"nu": ra, "s": rs, "t": rt, "w": w}
    else:
        rep = outer_left(a, t, s, route=route)
        ranks = {"nu": ra, "s": rt, "t": rs, "w": w}
    assert [real_rank(chi(v)) // 4 for v in (a, s, t)] == [ra, rs, rt]
    assert rep.exists
    assert rep.ranks == ranks
    assert rep.classification == flags_of(ranks)
    kappa = quaternion_cond(a, want)
    assert relative_error(rep.x, want) <= 0.5 * max(m, n) * EPS * kappa


# (m, n, ra, rs, rt): S and T are both n-by-m
BOTH_CASES = [(12, 8, 8, 8, 8), (8, 12, 8, 8, 5), (10, 10, 10, 6, 6),
              (40, 30, 20, 30, 30), (30, 40, 30, 15, 30)]


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("m, n, ra, rs, rt", BOTH_CASES)
def test_outer_both_matches_the_real_representation(m, n, ra, rs, rt, route):
    # outer_both(A, S, T) against the same oracle; each side's flags against
    # the rank conditions with S and T in their own roles and swapped (the
    # largest c measured over these cases was 0.075)
    rng = np.random.default_rng(950 + 10 * m + n + rs + rt)
    a = with_rank(m, n, ra, rng)
    s = with_rank(n, m, rs, rng)
    t = with_rank(n, m, rt, rng)
    want, w = oracle_outer(a, s, t)
    assert [real_rank(chi(v)) // 4 for v in (a, s, t)] == [ra, rs, rt]
    ranks = {"nu": ra, "s": rs, "t": rt, "w": w}
    rep = outer_both(a, s, t, route=route)
    assert rep.ranks == ranks
    right = flags_of(ranks)
    left = flags_of(dict(ranks, s=rt, t=rs))
    cls = rep.classification
    assert (cls["right_range_matches"], cls["right_nullspace_matches"],
            cls["left_range_matches"], cls["left_nullspace_matches"]) == (
        right["range_matches"], right["nullspace_matches"],
        left["range_matches"], left["nullspace_matches"])
    kappa = quaternion_cond(a, want)
    assert relative_error(rep.x, want) <= 0.5 * max(m, n) * EPS * kappa


def direct_sum(blocks):
    # the quaternion direct sum of square blocks, plane by plane with numpy
    n = sum(b.nrows for b in blocks)
    planes = np.zeros((4, n, n))
    i = 0
    for b in blocks:
        planes[:, i:i + b.nrows, i:i + b.nrows] = b.components()
        i += b.nrows
    return QMatrix.from_components(*planes)


def strictly_upper(k, rng):
    # a random strictly upper triangular quaternion matrix of order k:
    # nilpotent of index k
    return QMatrix.from_components(
        *(np.triu(p, 1) for p in random_qmat(k, k, rng).components()))


def core_nilpotent(c, nil, rng):
    # (A, chi(A^D)) for A = P (C + N) P^-1: P = U diag(d) V* with d in
    # [1, 2], C of order c with singular values from 2 down to 1, and N the
    # direct sum of the nilpotent blocks nil.  A and A^D = P (C^-1 + 0) P^-1
    # are formed on chi, with numpy alone
    n = c + sum(b.nrows for b in nil)
    p = with_spectrum(n, n, rng.uniform(1.0, 2.0, n), rng)
    cc = with_rank(c, c, c, rng)
    cp, cp_inv = chi(p), np.linalg.inv(chi(p))
    a = from_chi(cp @ chi(direct_sum([cc, *nil])) @ cp_inv)
    c_inv = from_chi(np.linalg.inv(chi(cc)))
    want = cp @ chi(direct_sum([c_inv, QMatrix.zeros(n - c, n - c)])) @ cp_inv
    return a, want


# (c, orders): C of order c and N the direct sum of one block per order,
# strictly upper triangular for drazin (index max(orders), 2 or 3) and zero
# for group_inverse (index 1, or 0 with no block)
SPECTRAL_CASES = [(drazin, 6, (2,)), (drazin, 10, (3,)),
                  (drazin, 12, (2, 3)), (drazin, 24, (3, 3)),
                  (drazin, 34, (2, 2, 2)), (group_inverse, 8, ()),
                  (group_inverse, 12, (4,)), (group_inverse, 30, (10,))]


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize(
    "ctor, c, orders", SPECTRAL_CASES,
    ids=[f"{f.__name__}-{c}-{'+'.join(map(str, o)) or 'invertible'}"
         for f, c, o in SPECTRAL_CASES])
def test_spectral_inverse_matches_the_real_representation(ctor, c, orders,
                                                          route):
    # X against P (C^-1 + 0) P^-1 within 0.5 n eps ||A|| ||X||, and rank(X)
    # against rank(chi(X))/4 and the order of C.  The largest error measured
    # was 0.075 n eps ||A|| ||X|| over these cases, and 0.092 over seeds
    # 0-59 of each, on both routes, with no index misjudged.  P and C are
    # kept well conditioned, inside the range where the walk by powers
    # judges the index right (ROADMAP items 6-7 own the ill-conditioned
    # rest)
    rng = np.random.default_rng(1000 + 10 * c + sum(orders))
    nil = [strictly_upper(k, rng) if ctor is drazin else QMatrix.zeros(k, k)
           for k in orders]
    a, want = core_nilpotent(c, nil, rng)
    x = ctor(a, route=route)
    assert rank(x) == real_rank(chi(x)) // 4 == c
    kappa = quaternion_cond(a, want)
    assert relative_error(x, want) <= 0.5 * a.nrows * EPS * kappa


# ------------------------------------------------ at the workloads' sizes
#
# The benchmark's inputs (perfbench/workloads.py, full size), built the same
# way with this module's helpers, and inputs of the same size for the
# constructors no workload runs.  Each oracle is formed once per module and
# checked on both routes.  Each row has its own constant c in the bound
# c max(m, n) eps ||A|| ||X||: 4 times the largest c measured over ten
# seeds of its family (the fixture's seed and the nine after it), on both
# routes, with one BLAS thread and with the default threads, rounded up to
# two significant digits.


@pytest.fixture(scope="module")
def pinv_workload():
    # the pinv workload's family: a 120x80 product of uniform factors,
    # 120x60 and 60x80, of rank 60
    rng = np.random.default_rng(1200)
    a = mat_mul(random_qmat(120, 60, rng), random_qmat(60, 80, rng))
    c = chi(a)
    return a, oracle_pinv(c), real_rank(c) // 4


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_report_matches_the_real_representation_at_workload_size(
        pinv_workload, route):
    # the largest c measured was 0.00203 (crep, seed 1209; direct 0.00161)
    a, want, k = pinv_workload
    assert k == 60
    rep = pinv_report(a, route=route)
    assert rep.ranks == {"nu": k, "s": k, "t": k, "w": k}
    assert rep.classification == flags_of(rep.ranks)
    kappa = quaternion_cond(a, want)
    assert relative_error(rep.x, want) <= 0.0082 * 120 * EPS * kappa


@pytest.fixture(scope="module")
def w_workload():
    # the prescribed workload's outer_w_* inputs: a uniform 120x80 A and an
    # 80x120 W of rank 40 with singular values in [1, 2]
    rng = np.random.default_rng(1210)
    a = random_qmat(120, 80, rng)
    w = with_spectrum(80, 120, rng.uniform(1.0, 2.0, 40), rng)
    return a, w, *oracle_w_inverse(a, w)


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("ctor", [outer_w_right, outer_w_left],
                         ids=["right", "left"])
def test_w_inverse_matches_the_real_representation_at_workload_size(
        w_workload, ctor, route):
    # the largest c measured was 0.00067 (crep; direct 0.00061), the same
    # on both sides
    a, w, want, k = w_workload
    assert k == 4 * 40
    rep = ctor(a, w, route=route)
    assert rep.exists
    assert rep.ranks == {"nu": 80, "s": 40, "t": 40, "w": 40}
    assert rep.classification == flags_of(rep.ranks)
    kappa = quaternion_cond(a, want)
    assert relative_error(rep.x, want) <= 0.0027 * 120 * EPS * kappa


def shift(k):
    # the k-by-k shift block, ones on the superdiagonal: nilpotent of index k
    return QMatrix.from_real(np.eye(k, k, 1))


@pytest.fixture(scope="module")
def drazin_workload():
    # the prescribed workload's Drazin input: a 60x60 P (C + N) P^-1 with C
    # of order 48 and N four 3x3 shift blocks, so Ind(A) = 3
    return core_nilpotent(48, [shift(3)] * 4, np.random.default_rng(1220))


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_drazin_matches_the_real_representation_at_workload_size(
        drazin_workload, route):
    # the largest c measured was 0.0070 (crep; direct 0.0067)
    a, want = drazin_workload
    x = drazin(a, route=route)
    assert rank(x) == real_rank(chi(x)) // 4 == 48
    kappa = quaternion_cond(a, want)
    assert relative_error(x, want) <= 0.028 * 60 * EPS * kappa


@pytest.fixture(scope="module")
def outer_workload():
    # a uniform 120x80 A; for outer_right/left an 80x48 S and a 40x120 T,
    # and for outer_both an 80x120 S and T, each of rank 40 with singular
    # values in [1, 2], so that every W = T A S is rectangular and of rank
    # 40 and goes to its compact SVD
    rng = np.random.default_rng(1230)
    a = random_qmat(120, 80, rng)
    gens = {"one": (with_spectrum(80, 48, rng.uniform(1.0, 2.0, 40), rng),
                    with_spectrum(40, 120, rng.uniform(1.0, 2.0, 40), rng)),
            "both": (with_spectrum(80, 120, rng.uniform(1.0, 2.0, 40), rng),
                     with_spectrum(80, 120, rng.uniform(1.0, 2.0, 40), rng))}
    return a, {key: (s, t, *oracle_outer(a, s, t))
               for key, (s, t) in gens.items()}


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("side", ["right", "left", "both"])
def test_outer_inverse_matches_the_real_representation_at_workload_size(
        outer_workload, side, route):
    # outer_right(A, S, T), outer_left(A, T, S) and outer_both(A, S, T) all
    # build X = S (T A S)^+ T.  The largest c measured was 0.00086 over
    # the three sides (crep; direct 0.00082)
    a, gens = outer_workload
    s, t, want, w = gens["both" if side == "both" else "one"]
    assert w == 40
    if side == "right":
        rep = outer_right(a, s, t, route=route)
    elif side == "left":
        rep = outer_left(a, t, s, route=route)
    else:
        rep = outer_both(a, s, t, route=route)
    assert rep.exists
    assert rep.ranks == {"nu": 80, "s": 40, "t": 40, "w": 40}
    flags = flags_of(rep.ranks)
    assert {key: rep.classification[key] for key in flags} == flags
    kappa = quaternion_cond(a, want)
    assert relative_error(rep.x, want) <= 0.0035 * 120 * EPS * kappa


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_group_inverse_matches_the_real_representation_at_workload_size(
        route):
    # a 120x120 P (C + 0) P^-1 with C of order 90, so Ind(A) = 1.  The
    # largest c measured was 0.00255 (direct; crep 0.00252)
    a, want = core_nilpotent(90, [QMatrix.zeros(30, 30)],
                             np.random.default_rng(1240))
    x = group_inverse(a, route=route)
    assert rank(x) == real_rank(chi(x)) // 4 == 90
    kappa = quaternion_cond(a, want)
    assert relative_error(x, want) <= 0.011 * 120 * EPS * kappa
