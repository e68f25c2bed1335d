import math

import numpy as np
import pytest

from quatinv.qcore import (
    CREP_TOL,
    QMatrix,
    QmatFormatError,
    Quaternion,
    conj_transpose,
    crep_mul,
    fro_norm,
    from_crep,
    from_crep_row,
    mat_mul,
    quat_mul,
    random_qmat,
    read_qmat,
    symmetrize_crep,
    symplectic_residual,
    to_crep,
    to_crep_row,
    write_qmat,
)

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def qallclose(a, b, tol=1e-12):
    return fro_norm(a - b) <= tol * max(1.0, fro_norm(b))


# ---------------------------------------------------------------- scalars


def test_basis_products():
    assert quat_mul(I, J) == K
    assert quat_mul(J, I) == -K
    assert quat_mul(J, K) == I
    assert quat_mul(K, I) == J
    assert quat_mul(I, I) == -ONE


def test_identity_element():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = Quaternion(*rng.standard_normal(4))
        assert quat_mul(ONE, q) == q
        assert quat_mul(q, ONE) == q


def test_one_plus_i_times_one_plus_j():
    # (1+i)(1+j) = 1 + i + j + k by distributivity and ij = k
    assert quat_mul(ONE + I, ONE + J) == Quaternion(1, 1, 1, 1)


def test_norm_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = Quaternion(*rng.standard_normal(4))
        q = Quaternion(*rng.standard_normal(4))
        assert abs(quat_mul(p, q)) == pytest.approx(abs(p) * abs(q), rel=1e-13)


def test_mul_associative_on_unit_quaternions():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.standard_normal((3, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        p, q, r = (Quaternion(*row) for row in v)
        lhs = quat_mul(quat_mul(p, q), r)
        rhs = quat_mul(p, quat_mul(q, r))
        assert abs(lhs - rhs) <= 1e-14


def test_conjugate_gives_squared_modulus():
    q = Quaternion(1.0, -2.0, 3.0, 0.5)
    prod = quat_mul(q, q.conjugate())
    assert prod.w == pytest.approx(abs(q) ** 2)
    assert (prod.x, prod.y, prod.z) == (0, 0, 0)


# ---------------------------------------------------------------- matrices


def test_matmul_identity():
    rng = np.random.default_rng(3)
    b = random_qmat(4, 3, rng)
    assert qallclose(mat_mul(QMatrix.eye(4), b), b, 0)


def test_matmul_against_crep_oracle():
    """A@B extracted from A^C @ B^C must match the direct product."""
    rng = np.random.default_rng(4)
    a = random_qmat(3, 3, rng)
    b = random_qmat(3, 3, rng)
    full = to_crep(a).data @ to_crep(b).data
    direct = mat_mul(a, b)
    np.testing.assert_allclose(to_crep(direct).data, full, atol=1e-13)


def test_crep_mul_matches_direct():
    rng = np.random.default_rng(5)
    a = random_qmat(4, 6, rng)
    b = random_qmat(6, 2, rng)
    assert qallclose(crep_mul(a, b), mat_mul(a, b), 1e-13)


def test_matmul_dimension_mismatch():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="3"):
        mat_mul(random_qmat(2, 3, rng), random_qmat(4, 2, rng))


def test_product_conj_transpose_antihomomorphism():
    rng = np.random.default_rng(7)
    a = random_qmat(2, 3, rng)
    b = random_qmat(3, 2, rng)
    assert qallclose(conj_transpose(mat_mul(a, b)),
                     mat_mul(conj_transpose(b), conj_transpose(a)), 1e-13)


def test_conj_transpose_involution_and_scalar():
    rng = np.random.default_rng(8)
    a = random_qmat(4, 2, rng)
    assert qallclose(conj_transpose(conj_transpose(a)), a, 0)
    jmat = QMatrix.from_components([[0]], [[0]], [[1]], [[0]])
    assert conj_transpose(jmat)[0, 0] == Quaternion(0, 0, -1, 0)
    assert fro_norm(conj_transpose(a)) == pytest.approx(fro_norm(a), rel=1e-15)


def test_fro_norm_examples():
    unit = QMatrix.from_components([[1]], [[1]], [[1]], [[1]])
    assert fro_norm(unit) == pytest.approx(2.0)
    assert fro_norm(QMatrix.zeros(3, 2)) == 0.0


def test_fro_norm_crep_relation():
    rng = np.random.default_rng(9)
    a = random_qmat(5, 3, rng)
    cnorm = np.linalg.norm(to_crep(a).data)
    assert fro_norm(a) ** 2 == pytest.approx(0.5 * cnorm**2, rel=1e-14)


def test_crep_of_j():
    jmat = QMatrix.from_components([[0]], [[0]], [[1]], [[0]])
    np.testing.assert_array_equal(to_crep(jmat).data,
                                  np.array([[0, 1], [-1, 0]], dtype=complex))


def test_crep_round_trip_bitwise():
    rng = np.random.default_rng(10)
    a = random_qmat(3, 4, rng)
    back = from_crep(to_crep(a))
    np.testing.assert_array_equal(back.q1, a.q1)
    np.testing.assert_array_equal(back.q2, a.q2)


def test_crep_row_round_trip():
    rng = np.random.default_rng(11)
    a = random_qmat(2, 5, rng)
    back = from_crep_row(to_crep_row(a))
    np.testing.assert_array_equal(back.q1, a.q1)
    np.testing.assert_array_equal(back.q2, a.q2)


def test_from_crep_rejects_non_symplectic():
    rng = np.random.default_rng(12)
    bad = to_crep(random_qmat(1, 1, rng))
    corrupted = bad.data.copy()
    corrupted[1, 0] += 1.0  # breaks -conj(Q2) linkage
    from quatinv.qcore import CRep
    with pytest.raises(ValueError, match="symplectic"):
        from_crep(CRep(corrupted, 1, 1))


def test_crep_homomorphism_properties():
    """(aP)^C, (P+Q)^C, (PR)^C, (P*)^C against the block embedding."""
    rng = np.random.default_rng(13)
    for _ in range(25):
        m, n, p = rng.integers(1, 7, size=3)
        P = random_qmat(m, n, rng)
        Q = random_qmat(m, n, rng)
        R = random_qmat(n, p, rng)
        alpha = float(rng.standard_normal())
        scale = np.linalg.norm(to_crep(P).data) + 1.0

        def dev(x, y):
            return np.abs(to_crep(x).data - y).max() / scale

        assert dev(alpha * P, alpha * to_crep(P).data) <= 1e-13
        assert dev(P + Q, to_crep(P).data + to_crep(Q).data) <= 1e-13
        assert dev(mat_mul(P, R), to_crep(P).data @ to_crep(R).data) <= 1e-13
        assert dev(conj_transpose(P), to_crep(P).data.conj().T) <= 1e-13


def test_crep_satisfies_symplectic_constraint():
    rng = np.random.default_rng(14)
    for _ in range(20):
        m, n = rng.integers(1, 7, size=2)
        c = to_crep(random_qmat(m, n, rng))
        assert symplectic_residual(c.data, m, n) <= 1e-15


def test_symmetrize_fixed_point_and_identity():
    rng = np.random.default_rng(15)
    c = to_crep(random_qmat(3, 2, rng))
    out = symmetrize_crep(c.data, 3, 2)
    np.testing.assert_array_equal(out.data, c.data)
    ident = symmetrize_crep(np.eye(2, dtype=complex), 1, 1)
    np.testing.assert_array_equal(ident.data, np.eye(2))


def test_symmetrize_restores_constraint():
    rng = np.random.default_rng(16)
    raw = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    out = symmetrize_crep(raw, 3, 2)
    assert symplectic_residual(out.data, 3, 2) <= 1e-14 * np.linalg.norm(raw)


def test_symmetrize_preserves_inverse_identity():
    """If C0 * A^C = I, the symplectic projection of C0 still inverts A^C."""
    rng = np.random.default_rng(17)
    a = random_qmat(3, 3, rng)
    ac = to_crep(a).data
    c0 = np.linalg.inv(ac) + 1e-13 * rng.standard_normal((6, 6))
    out = symmetrize_crep(c0, 3, 3)
    np.testing.assert_allclose(out.data @ ac, np.eye(6), atol=1e-10)
    # extraction is legal quaternion data
    from_crep(out)


# ---------------------------------------------------------------- .qmat I/O


def test_qmat_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(18)
    a = random_qmat(4, 3, rng)
    path = tmp_path / "a.qmat"
    write_qmat(path, a, comments=["round trip fixture"])
    b = read_qmat(path)
    np.testing.assert_array_equal(a.q1, b.q1)
    np.testing.assert_array_equal(a.q2, b.q2)


def test_qmat_header_and_comments(tmp_path):
    path = tmp_path / "c.qmat"
    path.write_text("# leading comment\n# another\nQMAT 1 2\n1 0 0 0\n0 0 1 0\n")
    a = read_qmat(path)
    assert a.shape == (1, 2)
    assert a[0, 0] == Quaternion(1, 0, 0, 0)
    assert a[0, 1] == Quaternion(0, 0, 1, 0)


@pytest.mark.parametrize(
    "body",
    [
        "",
        "QMAT 2\n",
        "NOTQMAT 1 1\n1 0 0 0\n",
        "QMAT 1 1\n1 0 0\n",
        "QMAT 1 1\n1 0 0 zebra\n",
        "QMAT 2 1\n1 0 0 0\n",
        "QMAT 1 1\n1 0 0 0\n2 0 0 0\n",
    ],
)
def test_qmat_malformed(tmp_path, body):
    path = tmp_path / "bad.qmat"
    path.write_text(body)
    with pytest.raises(QmatFormatError):
        read_qmat(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_qmat_rejects_non_finite_and_names_the_entry(tmp_path, bad):
    path = tmp_path / "nf.qmat"
    path.write_text(f"QMAT 2 2\n1 0 0 0\n0 1 0 0\n0 0 {bad} 0\n"
                    "0 0 0 nan\n")
    with pytest.raises(QmatFormatError,
                       match=r"entry 2 \(row 1, column 0\): non-finite"):
        read_qmat(path)


def test_qmat_17_digit_contract(tmp_path):
    a = QMatrix.from_components([[1 / 3]], [[math.pi]], [[2**-40]], [[-0.1]])
    path = tmp_path / "p.qmat"
    write_qmat(path, a)
    b = read_qmat(path)
    assert b[0, 0] == a[0, 0]
