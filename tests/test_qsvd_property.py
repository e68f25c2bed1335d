"""Property test: both qsvd routes agree, reconstruct and return unitary
factors, over random shapes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from quatinv.factor import qsvd  # noqa: E402
from quatinv.qcore import (  # noqa: E402
    QMatrix,
    conj_transpose,
    fro_norm,
    mat_mul,
    random_qmat,
)


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
