import math

import numpy as np
import pytest

from quatinv.qcore import (
    CREP_TOL,
    QMatrix,
    QmatFormatError,
    conj_transpose,
    crep_mul,
    fro_norm,
    from_crep,
    hstack_q,
    mat_mul,
    random_qmat,
    read_qmat,
    symmetrize_crep,
    symplectic_residual,
    to_crep,
    vstack_q,
    write_qmat,
)
from quatinv.qcore import _quaternion_part

ONE, I, J, K = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
PRODUCTS = (mat_mul, crep_mul)


def qallclose(a, b, tol=1e-12):
    return fro_norm(a - b) <= tol * max(1.0, fro_norm(b))


def hamilton(p, q):
    """The Hamilton product of two (w, x, y, z) tuples, written out."""
    (pw, px, py, pz), (qw, qx, qy, qz) = p, q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def quat(p) -> QMatrix:
    """The 1x1 quaternion matrix holding the (w, x, y, z) tuple p."""
    return QMatrix.from_components(*([[float(t)]] for t in p))


def parts(a: QMatrix) -> tuple:
    """The (w, x, y, z) tuple of a 1x1 quaternion matrix."""
    return tuple(float(t[0, 0]) for t in a.components())


def neg(p):
    return tuple(-t for t in p)


# ------------------------------------------- scalar rules on 1x1 matrices


def test_basis_products():
    for p, q, want in ((I, J, K), (J, I, neg(K)), (J, K, I), (K, I, J),
                       (I, I, neg(ONE))):
        assert hamilton(p, q) == want
        for mul in PRODUCTS:
            assert parts(mul(quat(p), quat(q))) == want


def test_identity_element():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = tuple(rng.standard_normal(4))
        for mul in PRODUCTS:
            assert parts(mul(quat(ONE), quat(q))) == q
            assert parts(mul(quat(q), quat(ONE))) == q


def test_one_plus_i_times_one_plus_j():
    # (1+i)(1+j) = 1 + i + j + k by distributivity and ij = k
    assert hamilton((1, 1, 0, 0), (1, 0, 1, 0)) == (1, 1, 1, 1)
    for mul in PRODUCTS:
        assert parts(mul(quat((1, 1, 0, 0)), quat((1, 0, 1, 0)))) == (1, 1, 1, 1)


def test_norm_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p, q = rng.standard_normal((2, 4))
        for mul in PRODUCTS:
            pq = mul(quat(p), quat(q))
            np.testing.assert_allclose(parts(pq), hamilton(p, q),
                                       rtol=1e-14, atol=1e-14)
            assert fro_norm(pq) == pytest.approx(
                fro_norm(quat(p)) * fro_norm(quat(q)), rel=1e-13)


def test_mul_associative_on_unit_quaternions():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.standard_normal((3, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        p, q, r = (quat(row) for row in v)
        for mul in PRODUCTS:
            lhs = mul(mul(p, q), r)
            rhs = mul(p, mul(q, r))
            assert fro_norm(lhs - rhs) <= 1e-14


def test_conjugate_gives_squared_modulus():
    q = quat((1.0, -2.0, 3.0, 0.5))
    for mul in PRODUCTS:
        w, x, y, z = parts(mul(q, conj_transpose(q)))
        assert w == pytest.approx(fro_norm(q) ** 2)
        assert max(abs(x), abs(y), abs(z)) <= 1e-15 * w


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
    full = to_crep(a) @ to_crep(b)
    direct = mat_mul(a, b)
    np.testing.assert_allclose(to_crep(direct), full, atol=1e-13)


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
    assert parts(conj_transpose(jmat)) == (0, 0, -1, 0)
    assert fro_norm(conj_transpose(a)) == pytest.approx(fro_norm(a), rel=1e-15)


def test_fro_norm_examples():
    unit = QMatrix.from_components([[1]], [[1]], [[1]], [[1]])
    assert fro_norm(unit) == pytest.approx(2.0)
    assert fro_norm(QMatrix.zeros(3, 2)) == 0.0


def test_fro_norm_crep_relation():
    rng = np.random.default_rng(9)
    a = random_qmat(5, 3, rng)
    cnorm = np.linalg.norm(to_crep(a))
    assert fro_norm(a) ** 2 == pytest.approx(0.5 * cnorm**2, rel=1e-14)


@pytest.mark.parametrize("s", [1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300])
def test_fro_norm_is_scale_safe(s):
    # the squares of 1e±160 already overflow or lose digits; the norm of a
    # scaled matrix scales with it all the same, and raises no warning
    a = random_qmat(4, 4, np.random.default_rng(10))
    scaled = a * s
    with np.errstate(all="raise"):
        assert fro_norm(scaled) / s == pytest.approx(fro_norm(a), rel=1e-15)


def test_fro_norm_in_range_is_the_plain_sum():
    a = random_qmat(5, 3, np.random.default_rng(11)) * 1e-100
    assert fro_norm(a) == math.sqrt(float(np.sum(a.abs2())))


def test_crep_of_j():
    jmat = QMatrix.from_components([[0]], [[0]], [[1]], [[0]])
    np.testing.assert_array_equal(to_crep(jmat),
                                  np.array([[0, 1], [-1, 0]], dtype=complex))


def test_crep_round_trip_bitwise():
    rng = np.random.default_rng(10)
    a = random_qmat(3, 4, rng)
    back = from_crep(to_crep(a))
    np.testing.assert_array_equal(back.q1, a.q1)
    np.testing.assert_array_equal(back.q2, a.q2)


def signed_zeros():
    # every sign pattern of a complex zero, in both components
    z = np.array([[0.0 + 0.0j, -0.0 + 0.0j], [0.0 - 0.0j, -0.0 - 0.0j]])
    return QMatrix(z, z[::-1])


@pytest.mark.parametrize("case", ["random", "zero", "signed_zero", "empty"])
def test_to_crep_is_the_block_matrix_byte_for_byte(case):
    a = {"random": lambda: random_qmat(4, 3, np.random.default_rng(13)),
         "zero": lambda: QMatrix.zeros(3, 5),
         "signed_zero": signed_zeros,
         "empty": lambda: QMatrix.zeros(0, 2)}[case]()
    want = np.block([[a.q1, a.q2], [-np.conj(a.q2), np.conj(a.q1)]])
    got = to_crep(a)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def test_constructor_copies_caller_arrays():
    rng = np.random.default_rng(14)
    q1, q2 = rng.random((3, 4)) + 0j, rng.random((3, 4)) + 0j
    a = QMatrix(q1, q2)
    before = (a.q1.copy(), a.q2.copy())
    q1[:] = 7.0
    q2[:] = -7.0
    np.testing.assert_array_equal(a.q1, before[0])
    np.testing.assert_array_equal(a.q2, before[1])
    # from_crep reads views of its argument, which stays the caller's
    c = to_crep(random_qmat(2, 3, rng)).copy()
    b = from_crep(c)
    want = (b.q1.copy(), b.q2.copy())
    c[:] = 0.0
    np.testing.assert_array_equal(b.q1, want[0])
    np.testing.assert_array_equal(b.q2, want[1])


def test_owned_results_are_read_only_and_c_contiguous(monkeypatch):
    # the module's arithmetic, and factor's, take over their fresh results
    # without a copy; every result, owned or copied, is read-only
    import quatinv.factor as factor
    import quatinv.qcore as qcore

    rng = np.random.default_rng(15)
    a, b = random_qmat(4, 3, rng), random_qmat(4, 3, rng)
    c = random_qmat(3, 5, rng)
    w = random_qmat(4, 4, rng)
    low = mat_mul(random_qmat(6, 2, rng), random_qmat(2, 5, rng))
    owned = {"mat_mul": mat_mul(a, c), "add": a + b, "sub": a - b,
             "neg": -a, "scale": a * 2.5, "rscale": 0.5 * a,
             "project": _quaternion_part(to_crep(a)),
             "symmetrize": from_crep(symmetrize_crep(to_crep(a))),
             "hstack": hstack_q([a, b]), "vstack": vstack_q([a, b])}
    for route in ("direct", "crep"):
        owned[f"solve-{route}"] = factor._solve(w, a, route)
        qr = factor._qr_direct if route == "direct" else factor._qr_crep
        owned[f"qr-{route}"] = qr(low)[2]
        owned[f"frd-g-{route}"] = factor.full_rank_decompose(low, route).g
    res = factor.qsvd(a, method="direct")
    owned["qsvd-u"], owned["qsvd-v"] = res.u, res.v
    # V Sigma^-1, the first operand of the route's product
    operands = []

    def capture(route):
        def mul(x, y):
            operands.append(x)
            return mat_mul(x, y)
        return mul
    monkeypatch.setattr(factor, "_route_mul", capture)
    factor.one_inverse(low, method="direct")
    owned["v-over-sigma"] = operands[0]
    # the direct solve and QR read their result off the pair array into
    # fresh arrays and make no second copy
    def refuse(x):
        raise AssertionError("a fresh result was copied")
    monkeypatch.setattr(qcore, "_as_complex", refuse)
    factor._solve(w, a, "direct")
    factor._qr_direct(low)
    monkeypatch.undo()
    copied = {"crep_mul": crep_mul(a, c), "conj_transpose": conj_transpose(a),
              "from_crep": from_crep(to_crep(a)),
              "project_real": _quaternion_part(np.eye(4))}
    for name, x in {**owned, **copied}.items():
        for comp in (x.q1, x.q2):
            assert comp.dtype == np.complex128, name
            assert not comp.flags.writeable, name
            with pytest.raises(ValueError):
                comp[0, 0] = 1.0
            if name in owned:
                assert comp.flags.c_contiguous and comp.flags.owndata, name
    assert not np.shares_memory(copied["from_crep"].q1, to_crep(a))


def test_from_crep_rejects_non_symplectic():
    rng = np.random.default_rng(12)
    corrupted = to_crep(random_qmat(1, 1, rng)).copy()
    corrupted[1, 0] += 1.0  # breaks -conj(Q2) linkage
    with pytest.raises(ValueError, match="symplectic"):
        from_crep(corrupted)


@pytest.mark.parametrize("s", [1e200, 1e-300])
def test_from_crep_is_scale_safe(s):
    # the symplectic test squares entries, and 1e200 squared overflows: it
    # runs on C scaled by a power of two, and a valid C still round-trips
    # bit for bit while a broken one is still refused
    a = random_qmat(3, 4, np.random.default_rng(19)) * s
    with np.errstate(all="raise"):
        back = from_crep(to_crep(a))
        np.testing.assert_array_equal(back.q1, a.q1)
        np.testing.assert_array_equal(back.q2, a.q2)
        if s > 1.0:
            corrupted = to_crep(a).copy()
            corrupted[3, 0] += s  # breaks -conj(Q2) linkage
            with pytest.raises(ValueError, match="symplectic"):
                from_crep(corrupted)


@pytest.mark.parametrize("s", [1e-300, 1e-160, 1e200])
def test_symplectic_residual_is_scale_safe(s):
    # the residual is a sum of squares: at 1e200 it once overflowed to inf,
    # at 1e-160 it lost digits to gradual underflow and at 1e-300 read 0
    rng = np.random.default_rng(20)
    c = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    want = symplectic_residual(c)
    assert want > 1.0
    with np.errstate(all="raise", under="ignore"):
        got = symplectic_residual(c * s) / s
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4,), (2, 2, 2)], ids=str)
def test_crep_helpers_reject_a_shape_that_is_not_2m_by_2n(shape):
    c = np.zeros(shape, dtype=complex)
    for fn in (from_crep, symmetrize_crep, symplectic_residual):
        with pytest.raises(ValueError, match="2m-by-2n"):
            fn(c)


def test_crep_homomorphism_properties():
    """(aP)^C, (P+Q)^C, (PR)^C, (P*)^C against the block embedding."""
    rng = np.random.default_rng(13)
    for _ in range(25):
        m, n, p = rng.integers(1, 7, size=3)
        P = random_qmat(m, n, rng)
        Q = random_qmat(m, n, rng)
        R = random_qmat(n, p, rng)
        alpha = float(rng.standard_normal())
        scale = np.linalg.norm(to_crep(P)) + 1.0

        def dev(x, y):
            return np.abs(to_crep(x) - y).max() / scale

        assert dev(alpha * P, alpha * to_crep(P)) <= 1e-13
        assert dev(P + Q, to_crep(P) + to_crep(Q)) <= 1e-13
        assert dev(mat_mul(P, R), to_crep(P) @ to_crep(R)) <= 1e-13
        assert dev(conj_transpose(P), to_crep(P).conj().T) <= 1e-13


def test_crep_satisfies_symplectic_constraint():
    rng = np.random.default_rng(14)
    for _ in range(20):
        m, n = rng.integers(1, 7, size=2)
        c = to_crep(random_qmat(m, n, rng))
        assert symplectic_residual(c) <= 1e-15


def test_symmetrize_fixed_point_and_identity():
    rng = np.random.default_rng(15)
    c = to_crep(random_qmat(3, 2, rng))
    out = symmetrize_crep(c)
    np.testing.assert_array_equal(out, c)
    ident = symmetrize_crep(np.eye(2, dtype=complex))
    np.testing.assert_array_equal(ident, np.eye(2))


def test_symmetrize_restores_constraint():
    rng = np.random.default_rng(16)
    raw = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    out = symmetrize_crep(raw)
    assert symplectic_residual(out) <= 1e-14 * np.linalg.norm(raw)


def test_symmetrize_preserves_inverse_identity():
    """If C0 * A^C = I, the symplectic projection of C0 still inverts A^C."""
    rng = np.random.default_rng(17)
    a = random_qmat(3, 3, rng)
    ac = to_crep(a)
    c0 = np.linalg.inv(ac) + 1e-13 * rng.standard_normal((6, 6))
    out = symmetrize_crep(c0)
    np.testing.assert_allclose(out @ ac, np.eye(6), atol=1e-10)
    # extraction is legal quaternion data
    from_crep(out)


# ---------------------------------------------------------------- .qmat I/O


def test_qmat_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(18)
    a = random_qmat(4, 3, rng)
    path = tmp_path / "a.qmat"
    write_qmat(path, a)
    b = read_qmat(path)
    np.testing.assert_array_equal(a.q1, b.q1)
    np.testing.assert_array_equal(a.q2, b.q2)


def test_qmat_header_and_comments(tmp_path):
    path = tmp_path / "c.qmat"
    path.write_text("# leading comment\n# another\nQMAT 1 2\n1 0 0 0\n0 0 1 0\n")
    a = read_qmat(path)
    assert a.shape == (1, 2)
    np.testing.assert_array_equal(a.components(),
                                  [[[1, 0]], [[0, 0]], [[0, 1]], [[0, 0]]])


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
    assert parts(b) == parts(a)


# ---- refusals and operators no other test reaches ----

def test_qmatrix_refuses_a_1d_array_and_unequal_components():
    with pytest.raises(ValueError,
                       match=r"expected a 2-D array, got shape \(3,\)"):
        QMatrix(np.ones(3), np.ones(3))
    with pytest.raises(ValueError,
                       match=r"component shapes differ: \(2, 2\) vs \(2, 3\)"):
        QMatrix(np.ones((2, 2)), np.ones((2, 3)))


def test_qmatrix_refuses_attribute_assignment():
    a = QMatrix.eye(2)
    with pytest.raises(AttributeError, match="QMatrix is immutable"):
        a.q1 = np.zeros((2, 2))
    with pytest.raises(AttributeError, match="QMatrix is immutable"):
        a.extra = 1
    assert np.array_equal(a.q1, np.eye(2))


@pytest.mark.parametrize("op", ["add", "sub"])
def test_sum_and_difference_refuse_different_shapes(op):
    a, b = QMatrix.zeros(2, 3), QMatrix.zeros(3, 2)
    with pytest.raises(ValueError,
                       match=r"shape mismatch: \(2, 3\) vs \(3, 2\)"):
        a + b if op == "add" else a - b


@pytest.mark.parametrize("product", PRODUCTS)
def test_products_refuse_disagreeing_inner_dimensions(product):
    with pytest.raises(ValueError, match=r"inner dimensions disagree: "
                                         r"\(2, 3\) @ \(2, 3\)"):
        product(QMatrix.zeros(2, 3), QMatrix.zeros(2, 3))


def test_matmul_operator_is_mat_mul():
    rng = np.random.default_rng(3)
    a, b = random_qmat(4, 3, rng), random_qmat(3, 5, rng)
    x, y = a @ b, mat_mul(a, b)
    assert np.array_equal(x.q1, y.q1) and np.array_equal(x.q2, y.q2)


@pytest.mark.parametrize("header", ["QMAT 2 two", "QMAT 1.5 1"])
def test_qmat_refuses_a_non_integer_dimension(tmp_path, header):
    path = tmp_path / "bad.qmat"
    path.write_text(header + "\n1 0 0 0\n")
    with pytest.raises(QmatFormatError, match="bad header"):
        read_qmat(path)


def test_qmat_refuses_a_negative_dimension(tmp_path):
    path = tmp_path / "bad.qmat"
    path.write_text("QMAT -1 2\n")
    with pytest.raises(QmatFormatError,
                       match="negative dimensions in 'QMAT -1 2'"):
        read_qmat(path)


def test_qmat_skips_comment_lines_among_the_entries(tmp_path):
    path = tmp_path / "c.qmat"
    path.write_text("QMAT 1 2\n1 2 3 4\n# between entries\n\n5 6 7 8\n")
    w, x, y, z = read_qmat(path).components()
    assert np.array_equal(np.stack([w, x, y, z]),
                          [[[1.0, 5.0]], [[2.0, 6.0]], [[3.0, 7.0]],
                           [[4.0, 8.0]]])
