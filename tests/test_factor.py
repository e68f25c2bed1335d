import numpy as np
import pytest

from quatinv.factor import (
    FullRankFactorization,
    _apply_reflectors,
    _bidiagonalize,
    _crep_rank,
    _pairs,
    _solve,
    _solve_direct,
    full_rank_decompose,
    one_inverse,
    qsvd,
    rank,
)
from quatinv.qcore import (
    QMatrix,
    conj_transpose,
    fro_norm,
    from_crep,
    hstack_q,
    mat_mul,
    random_qmat,
    symmetrize_crep,
    to_crep,
    vstack_q,
)


EPS = np.finfo(float).eps


def qallclose(a, b, tol=1e-12):
    return fro_norm(a - b) <= tol * max(1.0, fro_norm(b))


def unitary_defect(u):
    # ||U*U - I||: U unitary when square, orthonormal columns when compact
    return fro_norm(mat_mul(conj_transpose(u), u) - QMatrix.eye(u.shape[1]))


def crep_sigma(a):
    s = np.linalg.svd(to_crep(a), compute_uv=False)
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


def svd_rule_rank(a):
    # the reference: the SVD rule on the tall orientation of A^C, (A*)^C for
    # a wide A, as rank defines it.  At a near tie the singular values of a
    # wide A^C itself can round the other way: at kappa = (1 +- 1%)/(M eps),
    # 6 of the 2x5 and 4x7 inputs of test_rectangular_rank_equals_the_svd_rule
    # decide differently from their (A*)^C
    m, n = a.shape
    c = to_crep(a) if m >= n else to_crep(conj_transpose(a))
    return _crep_rank(np.linalg.svd(c, compute_uv=False), m, n)


@pytest.fixture
def svd_calls(record):
    return record(np.linalg.svd, lambda c, *args, **kwargs: c.shape)


RANK_ORDERS = (1, 2, 3, 4, 5, 7, 10, 16, 24, 40, 64, 91)
RANK_SCALES = (1.0, 1e150, 1e-150, 1e300, 1e-300)


@pytest.mark.parametrize("n", RANK_ORDERS)
def test_square_rank_equals_the_svd_rule(n, svd_calls):
    # a square A of full rank is proved so by one Cholesky of its shifted
    # Gram matrix; the test must never claim full rank where the SVD rule
    # does not, at any condition (through 1/(n eps), the threshold itself)
    # or scale, and it must spare the SVD of every A with kappa <= 1e6
    rng = np.random.default_rng(n)
    kappas = [10.0 ** e for e in range(17)]
    kappas += [f / (n * EPS) for f in (0.99, 1.01)]
    spared = 0
    for kappa in kappas:
        base = with_spectrum(n, n, np.geomspace(1.0, 1.0 / kappa, n), rng)
        for scale in RANK_SCALES:
            a = base * scale
            want = svd_rule_rank(a)
            svd_calls.clear()
            assert rank(a) == want, (kappa, scale)
            assert len(svd_calls) <= 1
            if want < n:
                assert len(svd_calls) == 1
            if kappa <= 1e6:
                assert svd_calls == [], (kappa, scale)
            spared += not svd_calls
    assert spared >= 7 * len(RANK_SCALES)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_exactly_singular_squares_fail_the_full_rank_test(n, svd_calls):
    # U diag(1, ..., 1, 0) V* has rank n - 1 to rounding; an unshifted Gram
    # matrix of it can still pass a Cholesky factorization, so the shift
    # must cover that rounding
    sigma = np.ones(n)
    sigma[-1] = 0.0
    for seed in range(20):
        a = with_spectrum(n, n, sigma, np.random.default_rng(seed))
        svd_calls.clear()
        assert rank(a) == n - 1, seed
        assert len(svd_calls) == 1


RECT_SHAPES = ((2, 1), (1, 3), (3, 2), (2, 5), (4, 7), (7, 4), (16, 10),
               (10, 24), (40, 30), (30, 40), (120, 80), (80, 120))


@pytest.mark.parametrize("m, n", RECT_SHAPES, ids=str)
def test_rectangular_rank_equals_the_svd_rule(m, n, svd_calls):
    # the full-rank test reads the tall orientation of A^C, 2M-by-2N, as the
    # SVD rule does; it must never claim rank N = min(m, n) where the rule
    # does not, at any condition (through 1/(M eps), the threshold itself)
    # or scale, and it must spare the SVD of every A with kappa <= 1e6.  A
    # short rank costs exactly one SVD, of the tall orientation
    rng = np.random.default_rng(100 * m + n)
    big, small = max(m, n), min(m, n)
    tall = [(2 * big, 2 * small)]
    kappas = [10.0 ** e for e in range(17)]
    kappas += [f / (big * EPS) for f in (0.99, 1.01)]
    spared = 0
    for kappa in kappas:
        base = with_spectrum(m, n, np.geomspace(1.0, 1.0 / kappa, small),
                             rng)
        for scale in RANK_SCALES:
            a = base * scale
            want = svd_rule_rank(a)
            svd_calls.clear()
            assert rank(a) == want, (kappa, scale)
            assert svd_calls in ([], tall), (kappa, scale)
            if want < small:
                assert svd_calls == tall, (kappa, scale)
            if kappa <= 1e6:
                assert svd_calls == [], (kappa, scale)
            spared += not svd_calls
    assert spared >= 7 * len(RANK_SCALES)


@pytest.mark.parametrize("m, n", [(5, 3), (3, 5), (16, 10), (10, 16)],
                         ids=str)
def test_exactly_singular_rectangles_fail_the_full_rank_test(m, n,
                                                             svd_calls):
    # as for squares: the shift must cover the rounding of the Gram matrix
    # of the tall orientation, which an exactly singular A leaves
    # semidefinite only to rounding
    small = min(m, n)
    sigma = np.ones(small)
    sigma[-1] = 0.0
    for seed in range(20):
        a = with_spectrum(m, n, sigma, np.random.default_rng(seed))
        svd_calls.clear()
        assert rank(a) == small - 1, seed
        assert svd_calls == [(2 * max(m, n), 2 * small)]


@pytest.mark.parametrize("a", [
    QMatrix.zeros(5, 5),
    rand_rank_deficient(6, 6, 4, np.random.default_rng(1)),
    rand_rank_deficient(7, 4, 3, np.random.default_rng(2)),
    rand_rank_deficient(3, 8, 2, np.random.default_rng(3)),
], ids=["zero", "singular", "tall", "wide"])
def test_rank_of_a_rectangular_or_singular_input_runs_one_svd(a, svd_calls):
    want = svd_rule_rank(a)
    svd_calls.clear()
    assert rank(a) == want
    # one SVD, of the tall orientation: (A*)^C for a wide A
    m, n = a.shape
    assert svd_calls == [(2 * max(m, n), 2 * min(m, n))]


@pytest.mark.parametrize("a", [
    random_qmat(7, 4, np.random.default_rng(2)),
    random_qmat(3, 8, np.random.default_rng(3)),
], ids=["tall", "wide"])
def test_rank_of_a_full_rank_rectangular_input_runs_no_svd(a, svd_calls):
    assert rank(a) == min(a.shape)
    assert svd_calls == []
    assert svd_rule_rank(a) == min(a.shape)


@pytest.mark.parametrize("shape", [(8, 5), (5, 8)], ids=str)
def test_rank_of_a_conj_transpose_is_the_same_at_a_near_tie(shape):
    # sigma_3 at the rank threshold times (1 +- 1%): rounding decides the
    # rank there, and both orientations decide it from the same SVD
    m, n = shape
    for seed in range(20):
        for f in (0.99, 1.01):
            sigma = [1.0, 0.5, max(m, n) * EPS * f, 0.0, 0.0]
            a = with_spectrum(m, n, sigma, np.random.default_rng(seed))
            assert rank(conj_transpose(a)) == rank(a), (seed, f)


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


def walk_keeps(cands, half, count):
    """Pairs an in-order walk of the columns of cands keeps, by the rule of
    factor._pairs: a column is kept when its residual against the kept pairs
    (each w with its partner -J conj(w)) has norm above sqrt(1/2), until
    `count` pairs are kept."""
    want = 2 * count
    kept = np.zeros((cands.shape[0], 0), dtype=complex)
    for v in cands.T:
        if kept.shape[1] == want:
            break
        v = v - kept @ (kept.conj().T @ v)
        nrm = np.linalg.norm(v)
        if nrm > np.sqrt(0.5):
            w = v / nrm
            p = np.concatenate([-np.conj(w[half:]), np.conj(w[:half])])
            kept = np.column_stack([kept, w, p])
    return kept.shape[1] // 2


@pytest.fixture
def completions(record):
    """Record (half, short) for every pairing the crep route runs, where
    short is the number of pairs the in-order walk falls short by and so the
    completion must supply."""
    import quatinv.factor as factor

    def short(out, cands, half, count, more=None):
        reps, src = out
        assert len(set(src)) == count == reps.shape[1]
        return half, count - walk_keeps(cands, half, count)

    return record(factor._pairs, short, result=True)


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
    ([2.0, 2.0, 1.0, 0.0, 0.0], False),
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
        assert res.rank == np.count_nonzero(sigma)
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


def test_pairs_completes_a_short_walk_inside_each_closed_subspace():
    # C^16 = S + S^perp, both closed under w -> -J conj(w), with S of five
    # pairs; each is given by an orthonormal basis rotated at random, so the
    # candidates do not come paired and the walk over S falls short
    half, p = 8, 5
    rng = np.random.default_rng(4)

    def crand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x = crand(2 * half, p)
    partners = np.vstack([-np.conj(x[half:]), np.conj(x[:half])])
    full, _ = np.linalg.qr(np.hstack([x, partners, crand(2 * half, 2 * (half - p))]))
    sub = full[:, :2 * p]
    z1, _ = np.linalg.qr(crand(2 * p, 2 * p))
    z2, _ = np.linalg.qr(crand(2 * (half - p), 2 * (half - p)))
    cands = np.hstack([sub @ z1, full[:, 2 * p:] @ z2])
    assert walk_keeps(cands[:, :2 * p], half, half) < p
    for walk in (0, 2 * half):
        reps, src = _pairs(cands[:, :walk], half, half, more=cands[:, walk:])
        basis = np.hstack([reps, np.vstack([-np.conj(reps[half:]),
                                            np.conj(reps[:half])])])
        assert np.abs(basis.conj().T @ basis - np.eye(2 * half)).max() <= 1e-13
        # the pairs picked from the columns of S span S
        in_sub = basis[:, np.tile(np.array(src) < 2 * p, 2)]
        assert in_sub.shape[1] == 2 * p
        assert np.abs(in_sub @ in_sub.conj().T
                      - sub @ sub.conj().T).max() <= 1e-12


def test_pairs_reads_the_fallback_only_when_the_walk_falls_short():
    class Unread:
        def __array__(self, *args, **kwargs):
            raise AssertionError("the fallback columns were read")

    eye = np.eye(8, dtype=complex)
    # e1 and e2 are orthogonal to each other's pairs: the walk keeps both
    reps, src = _pairs(eye[:, :2], 4, 2, more=Unread())
    assert np.array_equal(reps, eye[:, :2]) and src == [0, 1]
    # e5 = -J conj(e1) is the partner of e1: the walk keeps one pair of two
    with pytest.raises(AssertionError, match="fallback"):
        _pairs(eye[:, [0, 4]], 4, 2, more=Unread())
    reps, src = _pairs(eye[:, [0, 4]], 4, 2, more=eye[:, 1:2])
    assert np.array_equal(reps, eye[:, :2]) and src == [0, 2]


@pytest.mark.parametrize("m,n,r", [(9, 4, 2), (4, 9, 2), (10, 7, 3),
                                   (9, 4, 4), (4, 9, 4)])
def test_qsvd_crep_factors_once(m, n, r, record):
    # the left pairs are completed from the one complex SVD's own left
    # vectors, with no second factorization of the pairs already found
    a = rand_rank_deficient(m, n, r, np.random.default_rng(m * n + r))
    calls = record(np.linalg.svd, lambda *args, **kw: "svd")
    record(np.linalg.qr, lambda *args, **kw: "qr", calls)
    res = qsvd(a, method="crep")
    assert calls == ["svd"]
    assert res.rank == r


# ---------------------------------------------------------- compact qsvd


def check_compact(a, method):
    """The compact SVD of a is the rank-r part of the full one: U (m, r) and
    V (n, r) with orthonormal columns, the full SVD's rank and top r sigma,
    and U diag(sigma) V* = A."""
    full = qsvd(a, method=method)
    res = qsvd(a, method=method, full=False)
    (m, n), r = a.shape, full.rank
    scale = max(1.0, fro_norm(a))
    assert res.rank == r
    assert res.u.shape == (m, r) and res.v.shape == (n, r)
    assert res.sigma.shape == (r,)
    assert np.max(np.abs(res.sigma - full.sigma[:r]),
                  initial=0.0) <= 1e-12 * scale
    assert unitary_defect(res.u) <= 1e-12
    assert unitary_defect(res.v) <= 1e-12
    assert fro_norm(res.reconstruct() - a) <= 1e-12 * scale
    return res


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 5)])
def test_compact_qsvd_rank_zero(method, shape):
    res = check_compact(QMatrix.zeros(*shape), method)
    assert res.rank == 0 and res.sigma.size == 0
    assert fro_norm(res.reconstruct()) == 0.0


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
def test_compact_qsvd_empty(method, shape):
    res = qsvd(QMatrix.zeros(*shape), method=method, full=False)
    assert res.rank == 0 and res.sigma.size == 0
    assert res.u.shape == (shape[0], 0) and res.v.shape == (shape[1], 0)


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("shape,sigma,must_fill", [
    ((7, 5), [1.0] * 5, True),
    ((5, 7), [1.0] * 5, True),
    ((7, 5), [2.0, 2.0, 2.0, 1.0, 1.0], False),
    ((5, 7), [2.0, 2.0, 2.0, 1.0, 1.0], False),
    ((7, 5), [2.0, 2.0, 1.0, 0.0, 0.0], False),
    ((5, 7), [2.0, 2.0, 1.0, 0.0, 0.0], False),
    ((9, 7), [1.0] * 6 + [0.0], True),
    ((7, 9), [1.0] * 6 + [0.0], True),
])
def test_compact_qsvd_repeated_singular_values(method, shape, sigma,
                                               must_fill, completions):
    # inside a repeated singular value the walk over the top 2r columns can
    # fall short; it then completes from those columns alone, never from the
    # null vectors past them, whose residuals are larger
    right_fills = 0
    for seed in range(16):
        a = with_spectrum(*shape, sigma, np.random.default_rng(seed))
        res = check_compact(a, method)
        # the last two pairings are the compact SVD's, right side first
        right_fills += completions[-2][1] if method == "crep" else 0
        completions.clear()
        assert res.rank == np.count_nonzero(sigma)
        assert np.allclose(res.sigma, sigma[:res.rank], rtol=0, atol=1e-13)
    if method == "crep" and must_fill:
        assert right_fills > 0


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("shape", [(8, 6), (6, 8)])
@pytest.mark.parametrize("cond", [1e2, 1e6, 1e12])
def test_compact_qsvd_graded_spectrum(method, shape, cond):
    m, n = shape
    k = min(m, n)
    a = with_spectrum(m, n, np.logspace(0, -np.log10(cond), k),
                      np.random.default_rng(int(np.log10(cond))))
    res = check_compact(a, method)
    ref = crep_sigma(a)
    assert res.rank == k
    assert np.all(np.abs(res.sigma - ref) <= max(m, n) * cond * EPS * ref)


@pytest.mark.parametrize("method", ["crep", "direct"])
@pytest.mark.parametrize("m,n,r", [(9, 4, 2), (4, 9, 2), (10, 7, 3),
                                   (7, 10, 3), (12, 5, 5), (5, 12, 5)])
def test_compact_qsvd_wide_and_tall_rank_deficient(method, m, n, r):
    a = rand_rank_deficient(m, n, r, np.random.default_rng(m * n + r))
    assert check_compact(a, method).rank == r


@pytest.mark.parametrize("method", ["crep", "direct"])
def test_zero_block_one_inverse_uses_the_compact_svd(method, monkeypatch,
                                                     record):
    # one compact qsvd, with or without z; on crep that is one thin complex
    # SVD and no QR
    import quatinv.factor as factor

    w = rand_rank_deficient(9, 6, 3, np.random.default_rng(5))
    modes = record(factor.qsvd, lambda a, method="crep", full=True: full)
    thin = record(np.linalg.svd,
                  lambda *args, **kw: not kw.get("full_matrices", True))

    def qr_spy(*args, **kw):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    one_inverse(w, method=method)
    one_inverse(w, z=random_qmat(6, 9, np.random.default_rng(6)),
                method=method)
    assert modes == [False, False]
    if method == "crep":
        assert thin == [True, True]


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
    with pytest.raises(ValueError, match="non-finite entries"):
        full_rank_decompose(a, route=method)


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


def reflectors_times_phases(y, tau, p):
    """H_0 ... H_{k-1} diag(p) as a QMatrix, from _bidiagonalize's data."""
    x = p[:, None] * np.eye(p.shape[0])[..., None]
    _apply_reflectors(y, tau, x)
    return QMatrix(x[..., 0], x[..., 1])


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_bidiagonalize_skipped_reflectors_and_phases(case):
    make, (zero_u, zero_v) = SKIP_CASES[case]
    a = make(np.random.default_rng(31))
    if a.nrows < a.ncols:
        a = conj_transpose(a)  # the direct route bidiagonalizes A* then
    m, n = a.shape
    (yu, tau_u, pu), d, e, (yv, tau_v, pv) = _bidiagonalize(a)
    u = reflectors_times_phases(yu, tau_u, pu)
    v = reflectors_times_phases(yv, tau_v, pv)
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


REFLECTOR_INPUTS = {
    "tall": lambda rng: random_qmat(9, 6, rng),
    "wide": lambda rng: random_qmat(5, 8, rng),
    "rank-deficient": lambda rng: rand_rank_deficient(8, 7, 3, rng),
    "zero": lambda rng: QMatrix.zeros(6, 4),
}


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("case", sorted(REFLECTOR_INPUTS))
def test_direct_qsvd_applies_reflectors_to_the_columns_it_returns(
        record, case, full):
    # the compact SVD forms r columns of U and V, never all m or n of them
    # and then slices; every operand is C-contiguous, so _reflect_rows's
    # reshape is a view and not a copy per reflector
    import quatinv.factor as factor

    a = REFLECTOR_INPUTS[case](np.random.default_rng(43))

    def shape(y, tau, x):
        assert x.flags.c_contiguous
        return x.shape

    shapes = record(factor._apply_reflectors, shape)
    res = qsvd(a, method="direct", full=full)
    m, n = a.shape
    tall = (max(m, n), min(m, n))  # the direct route factors A* when wide
    cols = tall if full else (res.rank, res.rank)
    assert shapes == [(tall[0], cols[0], 2), (tall[1], cols[1], 2)]
    assert res.u.shape == (m, m if full else res.rank)
    assert res.v.shape == (n, n if full else res.rank)
    if case == "zero":
        assert res.rank == 0


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
def test_frd_reconstructs_and_has_full_rank_factors(route):
    rng = np.random.default_rng(37)
    for m, n, r in [(5, 6, 2), (6, 4, 3), (4, 4, 4), (7, 3, 1)]:
        a = rand_rank_deficient(m, n, r, rng) if r < min(m, n) else random_qmat(m, n, rng)
        fact = full_rank_decompose(a, route=route)
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
    for m, n in [(3, 5), (0, 3), (3, 0), (0, 0)]:
        for route in ("direct", "crep"):
            fact = full_rank_decompose(QMatrix.zeros(m, n), route=route)
            assert fact.r == 0
            assert fact.f.shape == (m, 0)
            assert fact.g.shape == (0, n)
            assert fro_norm(mat_mul(fact.f, fact.g)) == 0.0


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_frd_rank_of_uniform_rank_40_product(route, seed):
    # sigma_40/sigma_1 ~ 2e-3 and sigma_41/sigma_1 ~ 3e-16: a clean rank.
    # Gauss-Jordan elimination took rounding noise for a 41st pivot on seed
    # 7 (both routes) and seed 42 (crep)
    w = rand_rank_deficient(80, 120, 40, np.random.default_rng(seed))
    fact = full_rank_decompose(w, route=route)
    assert fact.r == 40
    assert fro_norm(mat_mul(fact.f, fact.g) - w) <= 1e-12 * fro_norm(w)


def test_direct_solve_pivots_only_among_w_columns():
    # W's first column is small and B's columns are large: only W's columns
    # shape a reflector, so the small column is reflected first all the
    # same, and B's size does not enter the solve's scale
    rng = np.random.default_rng(60)
    w = random_qmat(5, 5, rng)
    w = hstack_q([QMatrix(1e-3 * w.q1[:, :1], 1e-3 * w.q2[:, :1]),
                  QMatrix(w.q1[:, 1:], w.q2[:, 1:])])
    b = random_qmat(5, 3, rng) * 1e3
    x = _solve_direct(w, b)
    assert x.shape == (5, 3)
    assert qallclose(mat_mul(w, x), b, 1e-12)
    wc, bc = to_crep(w), to_crep(b)
    assert qallclose(x, QMatrix(*np.split(np.linalg.solve(wc, bc)[:5], 2, 1)),
                     1e3 * np.linalg.cond(wc) * EPS)


def test_direct_solve_rejects_an_exactly_singular_w():
    w = QMatrix.from_real(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        _solve_direct(w, QMatrix.eye(2))


def crep_solve(w, b):
    # the oracle: numpy's LU solve with W^C, and kappa(W); these W have no
    # large growth, so the LU is a fair oracle here
    wc = to_crep(w)
    x = np.linalg.solve(wc, to_crep(b))[:w.nrows]
    return QMatrix(*np.split(x, 2, 1)), np.linalg.cond(wc)


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 35])
def test_direct_solve_matches_the_crep_oracle_at_every_block_edge(n):
    # the empty and the 1-by-1 solve, and small to moderate orders
    rng = np.random.default_rng(300 + n)
    w, b = random_qmat(n, n, rng), random_qmat(n, 3, rng)
    x = _solve_direct(w, b)
    assert x.shape == (n, 3)
    if n:
        want, kappa = crep_solve(w, b)
        assert fro_norm(x - want) <= 4 * n * kappa * EPS * fro_norm(want)


def test_direct_solve_interchanges_rows_at_every_step():
    # W is L U with its rows shifted down by one (W's first row is the last
    # of L U).  L is unit lower triangular with multipliers of modulus at
    # most 1/2 and last row e_n, so W's first row is exactly zero in every
    # column but the last: an LU without row interchanges would meet a zero
    # pivot at its first step, and one with partial pivoting interchanges
    # rows at every step.  The reflectors need no interchange, and must
    # solve W all the same
    n = 35
    rng = np.random.default_rng(61)
    q = random_qmat(n, n, rng)
    half = 0.5 / np.sqrt(np.max(np.abs(q.q1) ** 2 + np.abs(q.q2) ** 2))
    l1, l2 = np.tril(q.q1, -1) * half + np.eye(n), np.tril(q.q2, -1) * half
    l1[-1, :-1] = l2[-1, :-1] = 0.0
    u = random_qmat(n, n, rng)
    u = QMatrix(np.triu(u.q1) + 4 * np.eye(n), np.triu(u.q2))
    lu = mat_mul(QMatrix(l1, l2), u)
    w = QMatrix(np.roll(lu.q1, 1, axis=0), np.roll(lu.q2, 1, axis=0))
    assert not np.any(w.q1[0, :-1]) and not np.any(w.q2[0, :-1])
    b = random_qmat(n, 2, rng)
    want, kappa = crep_solve(w, b)
    assert fro_norm(_solve_direct(w, b) - want) <= (
        4 * n * kappa * EPS * fro_norm(want))


def test_direct_solve_rejects_a_zero_column_beyond_the_first_panel():
    n = 35
    rng = np.random.default_rng(62)
    w = random_qmat(n, n, rng)
    q1, q2 = w.q1.copy(), w.q2.copy()
    q1[:, 18] = q2[:, 18] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        _solve_direct(QMatrix(q1, q2), random_qmat(n, 2, rng))


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
    fact = full_rank_decompose(a)
    assert rank(hstack_q([fact.f, a])) == 3
    assert rank(vstack_q([fact.g, a])) == 3


# ------------------------------------------- the downdated pivot rule
#
# Both pivoted QRs downdate their squared column norms by each new row of R
# and compute one again only when it falls below sqrt(eps) times its last
# exact value.  The reference below computes every residual norm afresh at
# every step, on A^C with numpy: the residual of A's column j after the
# pivot columns is that of column j of A^C after the pivot columns and their
# partners n + j.


def reference_pivots(a):
    """(perm, r) of the column-pivoted QR that recomputes every norm."""
    m, n = a.shape
    c = to_crep(a)
    perm = np.arange(n)
    r, stop = 0, 0.0
    for k in range(min(m, n)):
        piv = perm[:k]
        q = np.linalg.qr(c[:, np.r_[piv, n + piv]])[0] if k else (
            np.zeros((2 * m, 0)))
        rest = c[:, perm[k:]]
        for _ in range(2):
            rest = rest - q @ (q.conj().T @ rest)
        nrm = np.linalg.norm(rest, axis=0)
        i = int(np.argmax(nrm))
        if k == 0:
            stop = max(m, n) * EPS * nrm[i]
        if nrm[i] <= stop:
            break
        perm[[k, k + i]] = perm[[k + i, k]]
        r = k + 1
    return perm, r


def kahan(n, rng, c=0.6, tau=1e-2):
    """U K D for Kahan's K = diag(s^i) (I - c N), N the strictly upper
    ones, s = sqrt(1 - c^2), with column j scaled by 1 - tau j.  Every
    column of K has norm 1 - tau j and every residual after k steps is
    s^k (1 - tau j), so pivoting keeps the columns in order.  U is unitary
    and D a diagonal of unit quaternions, which change no residual.  The
    squared norms shrink by s^2 = 0.64 per step, so downdating cancels and
    the recomputation fires after 41 steps.  The leading columns of K grow
    ill-conditioned fast (the residuals of any QR carry a relative error
    near 3e-4 by step 43), so n stays small and tau large."""
    s = np.sqrt(1.0 - c * c)
    k = np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    k = k * (1.0 - tau * np.arange(n))
    d = random_qmat(1, n, rng)
    nd = np.sqrt(np.abs(d.q1) ** 2 + np.abs(d.q2) ** 2)
    kd = QMatrix(k * (d.q1 / nd), k * (d.q2 / nd))
    return mat_mul(rand_unitary(n, rng), kd)


def graded_columns(m, n, kappa, rng):
    """A random m-by-n with its columns scaled from 1 down to 1/kappa, in
    shuffled order."""
    a = random_qmat(m, n, rng)
    s = np.logspace(0, -np.log10(kappa), n)[rng.permutation(n)]
    return QMatrix(a.q1 * s, a.q2 * s)


def near_duplicates(m, n, rng):
    """A random m-by-n whose last three columns repeat three others up to a
    perturbation of 1e-9."""
    a = random_qmat(m, n, rng)
    q1, q2 = a.q1.copy(), a.q2.copy()
    for dup, src in zip(range(n - 3, n), (0, 3, 5)):
        q1[:, dup] = q1[:, src] + 1e-9 * rng.standard_normal(m)
        q2[:, dup] = q2[:, src] + 1e-9 * rng.standard_normal(m)
    return QMatrix(q1, q2)


PIVOT_FAMILIES = {
    "rank-deficient": lambda rng: rand_rank_deficient(30, 24, 11, rng),
    "rank-deficient-wide": lambda rng: rand_rank_deficient(40, 60, 20, rng),
    "graded-1e6": lambda rng: graded_columns(30, 20, 1e6, rng),
    "graded-1e12": lambda rng: graded_columns(30, 20, 1e12, rng),
    "kahan": lambda rng: kahan(43, rng),
    "near-duplicates": lambda rng: near_duplicates(20, 12, rng),
}


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("family", sorted(PIVOT_FAMILIES))
def test_downdated_pivots_match_a_qr_that_recomputes_every_norm(family,
                                                                 route):
    import quatinv.factor as factor

    qr = factor._qr_direct if route == "direct" else factor._qr_crep
    for seed in range(3):
        a = PIVOT_FAMILIES[family](np.random.default_rng(400 + seed))
        perm, r = qr(a)[:2]
        want_perm, want_r = reference_pivots(a)
        assert r == want_r
        np.testing.assert_array_equal(perm, want_perm)
        assert full_rank_decompose(a, route=route).r == want_r
    if family == "kahan":
        np.testing.assert_array_equal(perm, np.arange(43))


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_norms_are_computed_again_only_at_the_start_and_when_stale(
        route, record):
    # every full pass over the trailing column norms goes through
    # factor._sq_norms: once at the start over all n columns, and again
    # only for the columns the safeguard finds stale
    import quatinv.factor as factor

    passes = record(factor._sq_norms, lambda x1, x2: x1.shape[1])
    qr = factor._qr_direct if route == "direct" else factor._qr_crep
    rng = np.random.default_rng(410)
    for m, n in [(40, 40), (60, 30), (30, 45)]:
        passes.clear()
        assert qr(random_qmat(m, n, rng))[1] == min(m, n)
        assert passes == [n]
    # Kahan's squared norms fall below sqrt(eps) of their start after 41
    # steps: the 2 columns left are computed again, once
    passes.clear()
    assert qr(kahan(43, rng))[1] == 43
    assert passes == [43, 2]


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_stop_test_reads_the_exact_pivot_norm(route, record):
    # A = [x, c] with unit columns x and y, y orthogonal to x, and
    # c = alpha x + beta y.  beta lies 3e-9 relative above the threshold
    # t = max(m, n) eps ||x||, and alpha = 5000 t.  Downdating c's squared
    # norm by |R[0, 1]|^2 ~ alpha^2 leaves beta^2 with a relative error near
    # eps alpha^2 / beta^2 ~ 1e-8, so on some seeds the estimate of beta
    # falls below t while the exact residual stays above it.  alpha / beta
    # is below eps^(-1/4), so the estimate is not computed again.  The rank
    # is 2 by the exact norm, 1 by the estimate
    import quatinv.factor as factor

    # the estimate of the next pivot's norm, as the downdate leaves it
    estimates = record(factor._downdate,
                       lambda out, nrm, exact, x1, x2: np.sqrt(nrm[0]),
                       result=True)
    qr = factor._qr_direct if route == "direct" else factor._qr_crep
    m, straddles = 6, 0
    for seed in range(20):
        u = rand_unitary(m, np.random.default_rng(500 + seed))
        x, y = QMatrix(u.q1[:, :1], u.q2[:, :1]), QMatrix(u.q1[:, 1:2],
                                                           u.q2[:, 1:2])
        t = m * EPS * fro_norm(x)
        a = hstack_q([x, x * (5000 * t) + y * (t * (1 + 3e-9))])
        # the exact residual of c after x, on A^C with numpy
        ac = to_crep(a)
        q = np.linalg.qr(ac[:, [0, 2]])[0]
        res = ac[:, 1] - q @ (q.conj().T @ ac[:, 1])
        res = np.linalg.norm(res - q @ (q.conj().T @ res))
        estimates.clear()
        r = qr(a)[1]
        if not estimates[0] < t < res:
            continue
        straddles += 1
        assert r == 2
        assert full_rank_decompose(a, route=route).r == 2
    assert straddles  # the case exists on this route's arithmetic


@pytest.mark.parametrize("m, n, r", [(8, 12, 4), (12, 8, 6), (6, 6, 4),
                                     (5, 7, 0)],
                         ids=["wide", "tall", "square", "zero"])
def test_crep_qr_never_forms_a_representation_of_a(m, n, r, record):
    # the crep QR keeps A^C's left block column alone: no call to to_crep
    # may receive A, or any matrix with A's n columns.  The shapes are the
    # benchmark's W (wide) and Drazin power (square) at small size, a tall
    # input, and a zero matrix, whose QR stops at r = 0
    import quatinv.factor as factor

    seen = record(factor.to_crep, lambda x: x)
    a = (rand_rank_deficient(m, n, r, np.random.default_rng(420 + m)) if r
         else QMatrix.zeros(m, n))
    assert factor._qr_crep(a)[1] == r
    fact = full_rank_decompose(a, route="crep")
    assert fact.r == r
    assert not [x for x in seen if x is a or x.ncols == n]
    if r:
        assert qallclose(mat_mul(fact.f, fact.g), a, 1e-12)


# ------------------------------------------------ the direct kernels


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
@pytest.mark.parametrize("n, nrhs", [(15, 3), (16, 3), (17, 3), (31, 3),
                                     (32, 3), (33, 3), (128, 128), (8, 8),
                                     (16, 16), (40, 120), (48, 60), (91, 1)])
def test_direct_solve_backward_error(n, nrhs, kappa):
    # ||W X - B|| <= c n eps ||W|| ||X|| for a W of condition kappa: on
    # both sides of 16 and 32, at 128 x 128 with 128 right-hand sides, and
    # at the orders and right-hand side counts the benchmark's workloads
    # solve.  The residual is formed with numpy on the complex
    # representation; the largest c measured over these cases was 0.055
    # (at n = 8, kappa = 1e12; 0.033 for the LU this solve replaced)
    rng = np.random.default_rng(int(np.log10(kappa)) * 1000 + n)
    w = with_spectrum(n, n, np.logspace(0, -np.log10(kappa), n), rng)
    b = random_qmat(n, nrhs, rng)
    x = _solve_direct(w, b)
    resid = np.linalg.norm(to_crep(w) @ to_crep(x) - to_crep(b))
    bound = 0.1 * n * EPS * np.linalg.norm(to_crep(w)) * np.linalg.norm(
        to_crep(x))
    assert resid <= bound


def test_direct_kernels_never_form_the_complex_representation(monkeypatch):
    # the pair array holds both components side by side, which looks like a
    # representation: no direct kernel may reach for A^C or its product
    import quatinv.factor as factor
    import quatinv.qcore as qcore

    def refuse(*args):
        raise AssertionError("the direct route formed a complex representation")
    for mod, name in [(factor, "to_crep"), (qcore, "to_crep"),
                      (qcore, "crep_mul")]:
        monkeypatch.setattr(mod, name, refuse)
    rng = np.random.default_rng(59)
    a = rand_rank_deficient(7, 9, 4, rng)
    fact = full_rank_decompose(a, route="direct")
    assert fact.r == 4
    assert qallclose(mat_mul(fact.f, fact.g), a, 1e-13)
    for shape in [(9, 6), (6, 9)]:
        b = random_qmat(*shape, rng)
        for full in (True, False):
            res = qsvd(b, method="direct", full=full)
            assert qallclose(res.reconstruct(), b, 1e-13)
    w, rhs = random_qmat(20, 20, rng), random_qmat(20, 2, rng)
    assert qallclose(mat_mul(w, _solve(w, rhs, "direct")), rhs, 1e-12)


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
    # fifty random draws of the free matrix z: every draw is a {1}-inverse
    rng = np.random.default_rng(61)
    for trial in range(50):
        qd = int(rng.integers(2, 6))
        pd = int(rng.integers(2, 6))
        r = int(rng.integers(1, min(qd, pd) + 1))
        w = rand_rank_deficient(qd, pd, r, rng)
        x = one_inverse(w, random_qmat(pd, qd, rng))
        scale = max(1.0, fro_norm(w))
        assert fro_norm(mat_mul(mat_mul(w, x), w) - w) <= 1e-10 * scale


def test_one_inverse_distinct_draws_differ():
    rng = np.random.default_rng(67)
    w = rand_rank_deficient(4, 3, 2, rng)
    x0 = one_inverse(w)
    x1 = one_inverse(w, random_qmat(3, 4, rng))
    assert fro_norm(x0 - x1) > 1e-3


def test_one_inverse_rejects_bad_block_shape():
    # z has the shape of w*, whatever the rank, and nothing else
    rng = np.random.default_rng(71)
    w = rand_rank_deficient(4, 3, 2, rng)
    for shape in ((1, 1), (4, 3), (3, 3), (2, 2)):
        with pytest.raises(ValueError, match=r"expected \(3, 4\)"):
            one_inverse(w, QMatrix.zeros(*shape))


@pytest.mark.parametrize("m,n,r", [(6, 4, 2), (4, 6, 2), (5, 5, 3),
                                   (8, 5, 1), (7, 7, 6)])
def test_one_inverse_with_z_agrees_across_routes(m, n, r):
    # W+ + Z - V_r (V_r* Z U_r) U_r* depends on the SVD only through W+ and
    # the projectors V_r V_r* and U_r U_r*, which do not depend on the
    # route's choice of singular vectors: one z, one {1}-inverse
    rng = np.random.default_rng(100 * m + 10 * n + r)
    for _ in range(10):
        w = rand_rank_deficient(m, n, r, rng)
        z = random_qmat(n, m, rng)
        xd = one_inverse(w, z, "direct")
        xc = one_inverse(w, z, "crep")
        sigma = qsvd(w, method="crep", full=False).sigma
        bound = max(m, n) * (sigma[0] / sigma[-1]) * EPS
        assert fro_norm(xd - xc) <= 20 * bound * fro_norm(xc)
        assert fro_norm(mat_mul(mat_mul(w, xd), w) - w) <= \
            400 * bound * fro_norm(w)


def test_one_inverse_methods_agree():
    rng = np.random.default_rng(73)
    w = rand_rank_deficient(5, 4, 3, rng)
    xa = one_inverse(w, method="crep")
    xb = one_inverse(w, method="direct")
    # different SVD realizations, same zero-block Penrose limit
    assert qallclose(xa, xb, 1e-10)


def test_empty_factorization_dataclass():
    fact = FullRankFactorization(QMatrix.zeros(2, 0), QMatrix.zeros(0, 3), 0)
    assert fact.r == 0
    assert mat_mul(fact.f, fact.g).shape == (2, 3)


# ------------------------------------------------- argument checks, scale

SHAPES = [(0, 3), (3, 0), (0, 0), (3, 2)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_unknown_route_raises_on_every_shape(shape):
    # an empty input is no excuse to skip the route check
    a = QMatrix.zeros(*shape)
    for full in (True, False):
        with pytest.raises(ValueError, match="unknown qsvd method 'bogus'"):
            qsvd(a, method="bogus", full=full)
    with pytest.raises(ValueError, match="unknown qsvd method 'bogus'"):
        one_inverse(a, method="bogus")
    with pytest.raises(ValueError, match="unknown route 'bogus'"):
        full_rank_decompose(a, route="bogus")


SCALES = [1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300]


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("scale", SCALES)
def test_qsvd_sigma_is_scale_safe(scale, route):
    # the squared norms of the direct kernels once overflowed at 1e160 and
    # underflowed below 1e-154; sigma must scale with the input
    rng = np.random.default_rng(89)
    for a in (QMatrix.from_real([[1.0, -1.0], [1.0, 1.0]]),
              random_qmat(5, 4, rng), random_qmat(3, 6, rng)):
        want = qsvd(a, method=route).sigma
        for full in (True, False):
            res = qsvd(a * scale, method=route, full=full)
            assert res.rank == want.size
            np.testing.assert_allclose(res.sigma / scale, want, rtol=1e-14)


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("scale", SCALES)
def test_frd_rank_is_scale_safe(scale, route):
    rng = np.random.default_rng(97)
    a = rand_rank_deficient(5, 4, 4, rng) * scale
    b = rand_rank_deficient(6, 5, 3, rng) * scale
    for x in (a, b):
        fact = full_rank_decompose(x, route=route)
        assert fact.r == rank(x)
    # F keeps A's own columns, at A's own scale
    fact = full_rank_decompose(a, route=route)
    np.testing.assert_array_equal(fact.f.q1, a.q1)


@pytest.mark.parametrize("sw, sb", [(1.0, 1e200), (1.0, 1e-200), (1e200, 1.0),
                                    (1e-200, 1.0), (1e200, 1e150),
                                    (1e-200, 1e-200)])
def test_direct_square_solve_is_scale_safe(sw, sb):
    # the scale comes from W's columns alone: B only rides along, and
    # W^-1 B scales as sb / sw
    rng = np.random.default_rng(101)
    w, b = random_qmat(4, 4, rng), random_qmat(4, 2, rng)
    want = _solve_direct(w, b)
    x = _solve_direct(w * sw, b * sb)
    assert qallclose(x * (sw / sb), want, 1e-13)


# ------------------------------------------- reading a crep solution back
#
# The crep kernels solve with LAPACK on the complex representation and read
# the solution back once, as the quaternion matrix whose representation is
# its symplectic projection: no extraction and no check of their own output.


def test_crep_kernels_read_their_solution_without_from_crep(monkeypatch):
    import quatinv.factor as factor
    from quatinv.geninv import outer_w_right, pinv_solve

    def refuse(*args):
        raise AssertionError("a crep kernel re-validated its own solution")
    monkeypatch.setattr(factor, "from_crep", refuse, raising=False)
    monkeypatch.setattr(factor, "symmetrize_crep", refuse, raising=False)
    rng = np.random.default_rng(61)
    a, b = random_qmat(6, 6, rng), random_qmat(6, 2, rng)
    assert qallclose(mat_mul(a, pinv_solve(a, b, route="crep")), b, 1e-10)
    w = rand_rank_deficient(7, 9, 4, rng)
    a = random_qmat(9, 7, rng)
    assert outer_w_right(a, w, route="crep").exists
    assert full_rank_decompose(w, route="crep").r == 4


def test_crep_kernels_read_the_symplectic_projection(record):
    # bit for bit the projection then the extraction of the same LAPACK
    # solution, written out here as the reference
    import quatinv.factor as factor

    solutions = record(np.linalg.solve, lambda out, x, y: out, result=True)
    rng = np.random.default_rng(62)
    w, b = random_qmat(5, 5, rng), random_qmat(5, 3, rng)
    x = _solve(w, b, "crep")
    want = from_crep(symmetrize_crep(solutions[-1]))
    np.testing.assert_array_equal(x.q1, want.q1)
    np.testing.assert_array_equal(x.q2, want.q2)

    a = rand_rank_deficient(6, 8, 3, rng)
    fact = full_rank_decompose(a, route="crep")
    want = from_crep(symmetrize_crep(solutions[-1]))
    perm, r = factor._qr_crep(a)[:2]
    # G holds X = R11^-1 R12 on A's non-pivot columns, row k for pivot k
    order = np.argsort(perm[:r])
    np.testing.assert_array_equal(fact.g.q1[:, perm[r:]], want.q1[order])
    np.testing.assert_array_equal(fact.g.q2[:, perm[r:]], want.q2[order])
