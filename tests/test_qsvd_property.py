"""Property tests: both qsvd routes agree, reconstruct and return unitary
factors, the compact SVD is the rank-r part of the full one, the {1}-inverse
built on them meets the Penrose equations, and the full rank decomposition
finds the SVD rank, over random shapes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from quatinv.factor import (  # noqa: E402
    full_rank_decompose,
    one_inverse,
    qsvd,
    rank,
)
from quatinv.geninv import penrose_residuals  # noqa: E402
from quatinv.qcore import (  # noqa: E402
    QMatrix,
    conj_transpose,
    fro_norm,
    mat_mul,
    random_qmat,
    to_crep,
)

EPS = np.finfo(float).eps
# c in the bound c max(m, n) kappa eps: ten times the worst ratio seen over
# 5000 examples of each test below (6.5 with zero blocks, 36.5 with the
# (K, L, M) free blocks that picked the {1}-inverse before the free matrix
# z, both at rank 1; z has reached 66 over 3000, and the route gap with it
# 10.3).  With a free part the error grows with ||A|| ||Z|| rather than
# kappa, hence the larger constant.
C_PENROSE = 70.0
C_FREE_BLOCKS = 400.0


def unitary_defect(u):
    # ||U*U - I||: U unitary when square, orthonormal columns when compact
    return fro_norm(mat_mul(conj_transpose(u), u) - QMatrix.eye(u.shape[1]))


@st.composite
def quaternion_matrices(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if r == 0:
        return QMatrix.zeros(m, n)
    return mat_mul(random_qmat(m, r, rng), random_qmat(r, n, rng))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(quaternion_matrices())
def test_qsvd_routes_agree_and_reconstruct(a):
    crep = qsvd(a, method="crep")
    direct = qsvd(a, method="direct")
    scale = max(1.0, fro_norm(a))
    assert np.max(np.abs(crep.sigma - direct.sigma)) <= 1e-12 * scale
    assert crep.rank == direct.rank
    for res in (crep, direct):
        assert fro_norm(res.reconstruct() - a) <= 1e-12 * scale
        assert unitary_defect(res.u) <= 1e-12
        assert unitary_defect(res.v) <= 1e-12


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(quaternion_matrices())
def test_compact_qsvd_is_the_rank_r_part_of_the_full_one(a):
    (m, n), scale = a.shape, max(1.0, fro_norm(a))
    for method in ("crep", "direct"):
        full = qsvd(a, method=method)
        res = qsvd(a, method=method, full=False)
        r = full.rank
        assert res.rank == r
        assert res.u.shape == (m, r) and res.v.shape == (n, r)
        assert res.sigma.shape == (r,)
        assert np.max(np.abs(res.sigma - full.sigma[:r]),
                      initial=0.0) <= 1e-12 * scale
        assert unitary_defect(res.u) <= 1e-12
        assert unitary_defect(res.v) <= 1e-12
        assert fro_norm(res.reconstruct() - a) <= 1e-12 * scale


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(quaternion_matrices())
def test_full_rank_decompose_finds_the_rank_and_reconstructs(a):
    r = rank(a)
    scale = max(1.0, fro_norm(a))
    for route in ("direct", "crep"):
        fact = full_rank_decompose(a, route=route)
        assert fact.r == r
        assert fro_norm(mat_mul(fact.f, fact.g) - a) <= 1e-12 * scale


def kappa_eps(a):
    """max(m, n) kappa eps with kappa = sigma_1 / sigma_r of the paired
    complex spectrum (1 for rank 0), and the rank r."""
    r = qsvd(a, method="crep").rank
    s = np.linalg.svd(to_crep(a), compute_uv=False)
    sigma = 0.5 * (s[0::2] + s[1::2])
    kappa = sigma[0] / sigma[r - 1] if r else 1.0
    return max(a.shape) * kappa * EPS, r


def relative(num, den):
    return num / den if den else num


def penrose_errors(a):
    """Relative Penrose residuals of the zero-block {1}-inverse on each
    route, and the relative gap between the routes' inverses."""
    xs = {route: one_inverse(a, method=route) for route in ("crep", "direct")}
    errors = {}
    for route, x in xs.items():
        res = penrose_residuals(a, x)
        errors[route] = [relative(res["one"], fro_norm(a)),
                         relative(res["outer"], fro_norm(x)),
                         res["p3"], res["p4"]]
    errors["parity"] = [relative(fro_norm(xs["direct"] - xs["crep"]),
                                 fro_norm(xs["crep"]))]
    return errors


def free_block_errors(a, seed):
    """Relative AXA - A residual of the {1}-inverse of a picked by a uniform
    free matrix z on each route, and the relative gap between the routes'
    inverses: z enters X through the projectors V_r V_r* and U_r U_r*,
    which are the same on both routes."""
    z = random_qmat(a.ncols, a.nrows, np.random.default_rng(seed))
    xs = {route: one_inverse(a, z, method=route)
          for route in ("crep", "direct")}
    errors = {route: relative(fro_norm(mat_mul(mat_mul(a, x), a) - a),
                              fro_norm(a))
              for route, x in xs.items()}
    errors["parity"] = relative(fro_norm(xs["direct"] - xs["crep"]),
                                fro_norm(xs["crep"]))
    return errors


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(quaternion_matrices())
def test_one_inverse_is_penrose_and_routes_agree(a):
    bound, _ = kappa_eps(a)
    for errs in penrose_errors(a).values():
        assert max(errs) <= C_PENROSE * bound


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(quaternion_matrices())
def test_zero_block_one_inverse_matches_explicit_zero_blocks(a):
    # an explicit z = 0 is z = None bit for bit, and both are the
    # compact-SVD product V_r diag(sigma)^-1 U_r*, which must match the same
    # product from the full SVD's leading r pairs
    bound, _ = kappa_eps(a)
    q, p = a.shape
    for route in ("crep", "direct"):
        full = qsvd(a, method=route)
        r = full.rank
        vs = QMatrix(full.v.q1[:, :r] / full.sigma[:r],
                     full.v.q2[:, :r] / full.sigma[:r])
        ur = QMatrix(full.u.q1[:, :r], full.u.q2[:, :r])
        x_full = mat_mul(vs, conj_transpose(ur))
        x = one_inverse(a, method=route)
        x_zero = one_inverse(a, QMatrix.zeros(p, q), method=route)
        assert fro_norm(x_zero - x) == 0.0
        assert relative(fro_norm(x - x_full), fro_norm(x_full)) <= C_PENROSE * bound


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(quaternion_matrices(), st.integers(0, 2**32 - 1))
def test_one_inverse_with_free_blocks_is_a_one_inverse(a, seed):
    bound, _ = kappa_eps(a)
    for err in free_block_errors(a, seed).values():
        assert err <= C_FREE_BLOCKS * bound
