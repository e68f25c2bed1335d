"""Property tests: both qsvd routes agree, reconstruct and return unitary
factors, and the {1}-inverse built on them meets the Penrose equations,
over random shapes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from quatinv.factor import one_inverse, qsvd, random_free_blocks  # noqa: E402
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
# 5000 examples of each test below (6.5 with zero blocks, 36.5 with free
# blocks, both at rank 1).  With free blocks the error grows with
# ||A|| ||K, L, M|| rather than kappa, hence the larger constant.
C_PENROSE = 70.0
C_FREE_BLOCKS = 400.0


def unitary_defect(u):
    return fro_norm(mat_mul(conj_transpose(u), u) - QMatrix.eye(u.shape[0]))


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


def kappa_eps(a):
    """max(m, n) kappa eps with kappa = sigma_1 / sigma_r of the paired
    complex spectrum (1 for rank 0), and the rank r."""
    r = qsvd(a, method="crep").rank
    s = np.linalg.svd(to_crep(a).data, compute_uv=False)
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


def free_block_errors(a, r, seed):
    """Relative AXA - A residual of a {1}-inverse of the rank-r input a with
    uniform free blocks on each route: the completed null pairs of U and V
    enter X."""
    blocks = random_free_blocks(*a.shape, r, np.random.default_rng(seed))
    errors = {}
    for route in ("crep", "direct"):
        x = one_inverse(a, *blocks, method=route)
        errors[route] = relative(fro_norm(mat_mul(mat_mul(a, x), a) - a),
                                 fro_norm(a))
    return errors


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(quaternion_matrices())
def test_one_inverse_is_penrose_and_routes_agree(a):
    bound, _ = kappa_eps(a)
    for errs in penrose_errors(a).values():
        assert max(errs) <= C_PENROSE * bound


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(quaternion_matrices(), st.integers(0, 2**32 - 1))
def test_one_inverse_with_free_blocks_is_a_one_inverse(a, seed):
    bound, r = kappa_eps(a)
    for err in free_block_errors(a, r, seed).values():
        assert err <= C_FREE_BLOCKS * bound
