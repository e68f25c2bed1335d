"""The W-prescribed outer inverses against the real-representation oracle.

The oracle (tests/realrep.py) shares no code with either route, so it can
catch a fault that both routes share, which route parity cannot see.
"""

import numpy as np
import pytest

from quatinv.factor import full_rank_decompose
from quatinv.geninv import outer_w_left, outer_w_right
from quatinv.qcore import conj_transpose, mat_mul, random_qmat
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
