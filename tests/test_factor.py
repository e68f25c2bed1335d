import numpy as np
import pytest

from quatinv.factor import (
    FullRankFactorization,
    _bidiagonalize,
    full_rank_decompose,
    one_inverse,
    qsvd,
    random_free_blocks,
    rank,
)
from quatinv.qcore import (
    QMatrix,
    conj_transpose,
    fro_norm,
    hstack_q,
    mat_mul,
    random_qmat,
    to_crep,
    vstack_q,
)


EPS = np.finfo(float).eps


def qallclose(a, b, tol=1e-12):
    return fro_norm(a - b) <= tol * max(1.0, fro_norm(b))


def unitary_defect(u):
    m = u.shape[0]
    return fro_norm(mat_mul(conj_transpose(u), u) - QMatrix.eye(m))


def crep_sigma(a):
    s = np.linalg.svd(to_crep(a).data, compute_uv=False)
    return 0.5 * (s[0::2] + s[1::2])


def rand_rank_deficient(m, n, r, rng):
    return mat_mul(random_qmat(m, r, rng), random_qmat(r, n, rng))


# ------------------------------------------------------------------- rank


def test_rank_zero_matrix():
    assert rank(QMatrix.zeros(3, 4)) == 0


def test_rank_identity():
    assert rank(QMatrix.eye(5)) == 5


def test_rank_dependent_quaternion_columns():
    # [[1, j], [i, k]] has rank 1 over H: column 2 = column 1 * j
    a = QMatrix(np.array([[1, 0], [1j, 0]], dtype=complex),
                np.array([[0, 1], [0, 1j]], dtype=complex))
    assert rank(a) == 1


def test_rank_of_products():
    rng = np.random.default_rng(7)
    for m, n, r in [(5, 6, 2), (6, 4, 3), (7, 7, 1)]:
        assert rank(rand_rank_deficient(m, n, r, rng)) == r


def test_rank_empty():
    assert rank(QMatrix.zeros(0, 3)) == 0


# ------------------------------------------------------------------- qsvd


@pytest.mark.parametrize("method", ["crep", "direct"])
def test_qsvd_diagonal(method):
    a = QMatrix.from_real(np.diag([2.0, 1.0]))
    res = qsvd(a, method=method)
    assert np.allclose(res.sigma, [2.0, 1.0])
    assert res.rank == 2
    assert qallclose(res.reconstruct(), a, 1e-13)


@pytest.mark.parametrize("method", ["crep", "direct"])
def test_qsvd_pure_j_entry(method):
    a = QMatrix(np.zeros((1, 1), dtype=complex), np.ones((1, 1), dtype=complex))
    res = qsvd(a, method=method)
    assert np.allclose(res.sigma, [1.0])
    assert qallclose(res.reconstruct(), a, 1e-14)


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("shape",
                         [(6, 4), (4, 6), (5, 5), (1, 3), (3, 1), (1, 1)])
def test_qsvd_invariants_random(method, shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    a = random_qmat(*shape, rng)
    res = qsvd(a, method=method)
    scale = max(1.0, fro_norm(a))
    assert fro_norm(res.reconstruct() - a) <= 1e-12 * scale
    assert unitary_defect(res.u) <= 1e-12
    assert unitary_defect(res.v) <= 1e-12
    assert np.all(np.diff(res.sigma) <= 1e-12)
    assert np.all(res.sigma >= 0.0)


@pytest.mark.parametrize("method", ["crep", "direct"])
def test_qsvd_sigma_matches_paired_complex_spectrum(method):
    rng = np.random.default_rng(11)
    a = random_qmat(7, 5, rng)
    res = qsvd(a, method=method)
    ref = crep_sigma(a)
    assert np.max(np.abs(res.sigma - ref)) <= 1e-12 * max(1.0, ref[0])


@pytest.mark.parametrize("method", ["crep", "direct"])
def test_qsvd_rank_deficient(method):
    rng = np.random.default_rng(3)
    a = rand_rank_deficient(6, 5, 2, rng)
    res = qsvd(a, method=method)
    assert res.rank == 2
    assert qallclose(res.reconstruct(), a, 1e-11)
    assert unitary_defect(res.u) <= 1e-12
    assert unitary_defect(res.v) <= 1e-12


@pytest.mark.parametrize("method", ["crep", "direct"])
def test_qsvd_zero_matrix(method):
    res = qsvd(QMatrix.zeros(3, 2), method=method)
    assert res.rank == 0
    assert np.allclose(res.sigma, 0.0)
    assert unitary_defect(res.u) <= 1e-13
    assert unitary_defect(res.v) <= 1e-13


def test_qsvd_routes_agree_on_sigma():
    rng = np.random.default_rng(19)
    a = random_qmat(9, 6, rng)
    s1 = qsvd(a, method="crep").sigma
    s2 = qsvd(a, method="direct").sigma
    assert np.max(np.abs(s1 - s2)) <= 1e-10 * max(1.0, s1[0])


def test_qsvd_moderate_size():
    # spec-scale accuracy check: m, n up to 64
    rng = np.random.default_rng(23)
    a = random_qmat(64, 48, rng)
    scale = fro_norm(a)
    for method in ("crep", "direct"):
        res = qsvd(a, method=method)
        assert fro_norm(res.reconstruct() - a) <= 1e-11 * scale
        assert unitary_defect(res.u) <= 1e-11
        assert unitary_defect(res.v) <= 1e-11


def test_qsvd_empty():
    res = qsvd(QMatrix.zeros(0, 4))
    assert res.rank == 0 and res.sigma.size == 0
    assert res.u.shape == (0, 0) and res.v.shape == (4, 4)


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 5)])
def test_qsvd_rank_zero(method, shape):
    res = qsvd(QMatrix.zeros(*shape), method=method)
    assert res.rank == 0
    assert np.all(res.sigma == 0.0) and res.sigma.size == min(shape)
    assert unitary_defect(res.u) <= 1e-13
    assert unitary_defect(res.v) <= 1e-13
    assert fro_norm(res.reconstruct()) == 0.0


def rand_unitary(n, rng):
    """A product of three quaternion Householder reflectors."""
    q = QMatrix.eye(n)
    for _ in range(3):
        v = random_qmat(n, 1, rng)
        v = QMatrix(v.q1 - (0.5 + 0.5j), v.q2 - (0.5 + 0.5j))
        h = QMatrix.eye(n) - mat_mul(v, conj_transpose(v)) * (
            2.0 / fro_norm(v) ** 2)
        q = mat_mul(q, h)
    return q


def with_spectrum(m, n, sigma, rng):
    """U diag(sigma) V* with unitary U (m, m), V (n, n)."""
    d = np.zeros((m, n))
    d[: len(sigma), : len(sigma)] = np.diag(sigma)
    return mat_mul(mat_mul(rand_unitary(m, rng), QMatrix.from_real(d)),
                   conj_transpose(rand_unitary(n, rng)))


@pytest.fixture
def completions(monkeypatch):
    """Record (half, count) for every pair completion the crep route runs."""
    import quatinv.factor as factor

    calls = []
    inner = factor._complete_pairs

    def spy(cands, half, count):
        calls.append((half, count))
        return inner(cands, half, count)

    monkeypatch.setattr(factor, "_complete_pairs", spy)
    return calls


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("shape", [(8, 6), (6, 8)])
@pytest.mark.parametrize("cond", [1e2, 1e6, 1e12])
def test_qsvd_graded_spectrum(method, shape, cond):
    m, n = shape
    k = min(m, n)
    a = with_spectrum(m, n, np.logspace(0, -np.log10(cond), k),
                      np.random.default_rng(int(np.log10(cond))))
    res = qsvd(a, method=method)
    ref = crep_sigma(a)
    assert res.rank == k
    assert np.all(np.abs(res.sigma - ref) <= max(m, n) * cond * EPS * ref)
    assert unitary_defect(res.u) <= 1e-12
    assert unitary_defect(res.v) <= 1e-12


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("sigma,must_fill", [
    ([1.0] * 5, True),
    ([2.0, 2.0, 2.0, 1.0, 1.0], False),
])
def test_qsvd_repeated_singular_values(method, sigma, must_fill, completions):
    # inside a repeated singular value the complex SVD's vectors need not
    # come in antiunitary pairs, so the crep route's pairing walk falls
    # short for some draws (a quarter of them for the all-equal spectrum)
    # and completes from the remaining columns
    right_fills = 0
    for seed in range(16):
        a = with_spectrum(7, 5, sigma, np.random.default_rng(seed))
        completions.clear()
        res = qsvd(a, method=method)
        right_fills += sum(count for half, count in completions if half == 5)
        assert res.rank == 5
        assert np.allclose(res.sigma, sigma, rtol=0, atol=1e-13)
        assert unitary_defect(res.u) <= 1e-12
        assert unitary_defect(res.v) <= 1e-12
        assert qallclose(res.reconstruct(), a, 1e-13)
    if method == "crep" and must_fill:
        assert right_fills > 0


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("m,n,r", [(9, 4, 2), (4, 9, 2), (10, 7, 3)])
def test_qsvd_rank_deficient_completion(method, m, n, r, completions):
    a = rand_rank_deficient(m, n, r, np.random.default_rng(m * n + r))
    res = qsvd(a, method=method)
    assert res.rank == r
    assert unitary_defect(res.u) <= 1e-12
    assert unitary_defect(res.v) <= 1e-12
    assert qallclose(res.reconstruct(), a, 1e-12)
    if method == "crep":
        assert sum(count for half, count in completions if half == m) >= m - r


@pytest.mark.parametrize("m,n,r", [(9, 4, 2), (4, 9, 2), (10, 7, 3),
                                   (9, 4, 4), (4, 9, 4)])
def test_qsvd_crep_factors_once(m, n, r, monkeypatch):
    # the left pairs are completed from the one complex SVD's own left
    # vectors, with no second factorization of the pairs already found
    a = rand_rank_deficient(m, n, r, np.random.default_rng(m * n + r))
    calls = []
    for name in ("svd", "qr"):
        def spy(*args, _name=name, _inner=getattr(np.linalg, name), **kw):
            calls.append(_name)
            return _inner(*args, **kw)
        monkeypatch.setattr(np.linalg, name, spy)
    res = qsvd(a, method="crep")
    assert calls == ["svd"]
    assert res.rank == r


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qsvd_and_rank_reject_non_finite(method, bad):
    a = random_qmat(3, 3, np.random.default_rng(0))
    q2 = a.q2.copy()
    q2[1, 2] = bad
    a = QMatrix(a.q1, q2)
    with pytest.raises(ValueError, match="non-finite entries"):
        qsvd(a, method=method)
    with pytest.raises(ValueError, match="non-finite entries"):
        rank(a)


def block_with_zero_columns(rng):
    """7x5 block diagonal [[A1, 0], [0, A2]], A1 2x2 and A2 5x3, whose first
    column and A2's first column are zero: the direct route's left reflectors
    0 and 2 and right reflector 1 are exactly zero (tau = 0 inside Y)."""
    a = random_qmat(7, 5, rng)
    q1, q2 = a.q1.copy(), a.q2.copy()
    for q in (q1, q2):
        q[:, [0, 2]] = 0.0
        q[:2, 2:] = 0.0
        q[2:, :2] = 0.0
    return QMatrix(q1, q2)


def zero_trailing_columns(rng):
    """6x5 [A1, 0] with A1 6x2: the trailing block is exactly zero from
    step 2 on, so every later reflector is skipped."""
    a = random_qmat(6, 2, rng)
    pad = np.zeros((6, 3))
    return QMatrix(np.hstack([a.q1, pad]), np.hstack([a.q2, pad]))


# input -> (its constructor, the zero taus of the direct route's U and V
# reflectors, which _bidiagonalize sees for A or, when wide, for A*)
SKIP_CASES = {
    "zero-columns": (block_with_zero_columns, ([0, 2], [1])),
    "zero-trailing-block": (zero_trailing_columns, ([2, 3, 4], [1, 2, 3])),
    "rank-deficient": (lambda rng: rand_rank_deficient(8, 6, 2, rng),
                       ([], [])),
    "wide": (lambda rng: random_qmat(4, 7, rng), ([], [])),
    "row": (lambda rng: random_qmat(1, 5, rng), ([], [])),
    "column": (lambda rng: random_qmat(5, 1, rng), ([], [])),
}


@pytest.fixture
def reflector_taus(monkeypatch):
    """Record the taus of every reflector product the direct route builds."""
    import quatinv.factor as factor

    calls = []
    inner = factor._wy_product

    def spy(y1, y2, tau):
        calls.append(tau.copy())
        return inner(y1, y2, tau)

    monkeypatch.setattr(factor, "_wy_product", spy)
    return calls


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_bidiagonalize_skipped_reflectors_and_phases(case, reflector_taus):
    make, (zero_u, zero_v) = SKIP_CASES[case]
    a = make(np.random.default_rng(31))
    if a.nrows < a.ncols:
        a = conj_transpose(a)  # the direct route bidiagonalizes A* then
    m, n = a.shape
    u, d, e, v = _bidiagonalize(a)
    tau_u, tau_v = reflector_taus
    assert list(np.flatnonzero(tau_u == 0.0)) == zero_u
    assert list(np.flatnonzero(tau_v == 0.0)) == zero_v
    assert unitary_defect(u) <= 1e-13
    assert unitary_defect(v) <= 1e-13
    # the phases leave a real bidiagonal with nonnegative entries
    assert np.all(d >= 0.0) and np.all(e >= 0.0)
    bidiag = np.zeros((m, n))
    bidiag[:n, :n] = np.diag(d) + np.diag(e, 1)
    b = mat_mul(mat_mul(conj_transpose(u), a), v)
    scale = max(1.0, fro_norm(a))
    assert fro_norm(b - QMatrix.from_real(bidiag)) <= 1e-13 * scale


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_qsvd_skipped_reflectors_and_phases(method, case):
    a = SKIP_CASES[case][0](np.random.default_rng(31))
    scale = max(1.0, fro_norm(a))
    res = qsvd(a, method=method)
    assert unitary_defect(res.u) <= 1e-13
    assert unitary_defect(res.v) <= 1e-13
    k = res.sigma.size
    sig = np.zeros(a.shape)
    sig[:k, :k] = np.diag(res.sigma)
    b = mat_mul(mat_mul(conj_transpose(res.u), a), res.v)
    assert fro_norm(b - QMatrix.from_real(sig)) <= 1e-13 * scale
    assert fro_norm(res.reconstruct() - a) <= 1e-13 * scale


# ------------------------------------------------- full rank decomposition


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_frd_full_column_rank_is_exact(route):
    rng = np.random.default_rng(31)
    a = random_qmat(6, 3, rng)
    fact = full_rank_decompose(a, route=route)
    assert fact.r == 3
    # pivot columns are all columns, so F is A itself and G the identity
    assert qallclose(fact.f, a, 0.0) or fro_norm(fact.f - a) == 0.0
    assert qallclose(mat_mul(fact.f, fact.g), a, 1e-13)


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("side", ["column-form", "row-form"])
def test_frd_reconstructs_and_has_full_rank_factors(route, side):
    rng = np.random.default_rng(37)
    for m, n, r in [(5, 6, 2), (6, 4, 3), (4, 4, 4), (7, 3, 1)]:
        a = rand_rank_deficient(m, n, r, rng) if r < min(m, n) else random_qmat(m, n, rng)
        fact = full_rank_decompose(a, side=side, route=route)
        assert fact.r == r
        assert fact.f.shape == (m, r)
        assert fact.g.shape == (r, n)
        assert rank(fact.f) == r
        assert rank(fact.g) == r
        assert qallclose(mat_mul(fact.f, fact.g), a, 1e-11)


def test_frd_dependent_quaternion_columns():
    a = QMatrix(np.array([[1, 0], [1j, 0]], dtype=complex),
                np.array([[0, 1], [0, 1j]], dtype=complex))
    fact = full_rank_decompose(a)
    assert fact.r == 1
    assert qallclose(mat_mul(fact.f, fact.g), a, 1e-14)


def test_frd_zero_matrix_is_empty():
    fact = full_rank_decompose(QMatrix.zeros(3, 5))
    assert fact.is_empty
    assert fact.f.shape == (3, 0)
    assert fact.g.shape == (0, 5)
    assert qallclose(mat_mul(fact.f, fact.g), QMatrix.zeros(3, 5), 0.0) or True
    assert fro_norm(mat_mul(fact.f, fact.g)) == 0.0


def test_frd_routes_agree():
    rng = np.random.default_rng(41)
    a = rand_rank_deficient(6, 7, 3, rng)
    fd = full_rank_decompose(a, route="direct")
    fc = full_rank_decompose(a, route="crep")
    assert fd.r == fc.r == 3
    scale = max(1.0, fro_norm(a))
    assert fro_norm(mat_mul(fd.f, fd.g) - mat_mul(fc.f, fc.g)) <= 1e-10 * scale


def test_frd_factor_spaces_match_input():
    # rank([F | A]) = rank(A) = rank([G ; A]): the factors span A's column
    # and row spaces exactly
    rng = np.random.default_rng(43)
    a = rand_rank_deficient(6, 5, 3, rng)
    for side in ("column-form", "row-form"):
        fact = full_rank_decompose(a, side=side)
        assert rank(hstack_q([fact.f, a])) == 3
        assert rank(vstack_q([fact.g, a])) == 3


def test_frd_row_form_factor_shapes():
    rng = np.random.default_rng(47)
    a = rand_rank_deficient(4, 6, 2, rng)
    fact = full_rank_decompose(a, side="row-form")
    assert fact.f.shape == (4, 2)
    assert fact.g.shape == (2, 6)


# ----------------------------------------------------------- {1}-inverse


@pytest.mark.parametrize("method", ["crep", "direct"])
def test_one_inverse_zero_blocks_is_penrose(method):
    rng = np.random.default_rng(53)
    w = rand_rank_deficient(5, 4, 2, rng)
    x = one_inverse(w, method=method)
    wh = conj_transpose(w)
    xh = conj_transpose(x)
    scale = max(1.0, fro_norm(w))
    assert fro_norm(mat_mul(mat_mul(w, x), w) - w) <= 1e-11 * scale
    assert fro_norm(mat_mul(mat_mul(x, w), x) - x) <= 1e-11
    assert fro_norm(conj_transpose(mat_mul(w, x)) - mat_mul(w, x)) <= 1e-11
    assert fro_norm(conj_transpose(mat_mul(x, w)) - mat_mul(x, w)) <= 1e-11
    del wh, xh


def test_one_inverse_of_invertible_is_inverse():
    rng = np.random.default_rng(59)
    w = random_qmat(4, 4, rng)
    x = one_inverse(w)
    assert qallclose(mat_mul(w, x), QMatrix.eye(4), 1e-11)


def test_one_inverse_free_blocks_property():
    # fifty random draws of (K, L, M): every draw is a {1}-inverse
    rng = np.random.default_rng(61)
    for trial in range(50):
        qd = int(rng.integers(2, 6))
        pd = int(rng.integers(2, 6))
        r = int(rng.integers(1, min(qd, pd) + 1))
        w = rand_rank_deficient(qd, pd, r, rng)
        s = rank(w)
        k, l, m = random_free_blocks(qd, pd, s, rng)
        x = one_inverse(w, k, l, m)
        scale = max(1.0, fro_norm(w))
        assert fro_norm(mat_mul(mat_mul(w, x), w) - w) <= 1e-10 * scale


def test_one_inverse_distinct_draws_differ():
    rng = np.random.default_rng(67)
    w = rand_rank_deficient(4, 3, 2, rng)
    x0 = one_inverse(w)
    k, l, m = random_free_blocks(4, 3, 2, rng)
    x1 = one_inverse(w, k, l, m)
    assert fro_norm(x0 - x1) > 1e-3


def test_one_inverse_rejects_bad_block_shape():
    rng = np.random.default_rng(71)
    w = rand_rank_deficient(4, 3, 2, rng)
    with pytest.raises(ValueError):
        one_inverse(w, k=QMatrix.zeros(1, 1))


def test_one_inverse_methods_agree():
    rng = np.random.default_rng(73)
    w = rand_rank_deficient(5, 4, 3, rng)
    xa = one_inverse(w, method="crep")
    xb = one_inverse(w, method="direct")
    # different SVD realizations, same zero-block Penrose limit
    assert qallclose(xa, xb, 1e-10)


def test_empty_factorization_dataclass():
    fact = FullRankFactorization(QMatrix.zeros(2, 0), QMatrix.zeros(0, 3), 0)
    assert fact.is_empty
