import numpy as np
import pytest

from quatinv import geninv, qcore
from quatinv.factor import full_rank_decompose, qsvd, rank
from quatinv.geninv import (
    InverseExistenceError,
    drazin,
    group_inverse,
    mat_index,
    outer_both,
    outer_left,
    outer_right,
    outer_w_left,
    outer_w_right,
    penrose_residuals,
    pinv,
    pinv_report,
    pinv_solve,
)
from quatinv.qcore import (
    QMatrix,
    conj_transpose,
    fro_norm,
    hstack_q,
    mat_mul,
    random_qmat,
)


def qallclose(a, b, tol=1e-12):
    return fro_norm(a - b) <= tol * max(1.0, fro_norm(b))


def rand_rank_deficient(m, n, r, rng):
    return mat_mul(random_qmat(m, r, rng), random_qmat(r, n, rng))


def block_diag_q(a, b):
    ma, na = a.shape
    mb, nb = b.shape
    q1 = np.zeros((ma + mb, na + nb), dtype=complex)
    q2 = np.zeros((ma + mb, na + nb), dtype=complex)
    q1[:ma, :na] = a.q1
    q1[ma:, na:] = b.q1
    q2[:ma, :na] = a.q2
    q2[ma:, na:] = b.q2
    return QMatrix(q1, q2)


def same_column_span(x, y):
    # R_r(X) == R_r(Y), and so N_l(X) == N_l(Y): equal ranks that placing
    # the columns side by side does not raise.  On X* and Y* it compares
    # the row spans, so R_l(X) == R_l(Y) and N_r(X) == N_r(Y)
    return rank(x) == rank(y) == rank(hstack_q([x, y]))


def same_row_span(x, y):
    return same_column_span(conj_transpose(x), conj_transpose(y))


NILP = QMatrix.from_real(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------------------- outer_right


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_outer_right_identity_generators_give_inverse(route):
    rng = np.random.default_rng(0)
    a = random_qmat(4, 4, rng)
    eye = QMatrix.eye(4)
    rep = outer_right(a, eye, eye, route=route)
    assert qallclose(mat_mul(a, rep.x), eye, 1e-11)
    assert all(rep.classification.values())
    assert rep.ranks == {"nu": 4, "s": 4, "t": 4, "w": 4}


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_outer_right_conjugate_transpose_gives_penrose(route):
    rng = np.random.default_rng(1)
    a = rand_rank_deficient(5, 4, 2, rng)
    astar = conj_transpose(a)
    rep = outer_right(a, astar, astar, route=route)
    res = penrose_residuals(a, rep.x)
    scale = max(1.0, fro_norm(a))
    assert all(v <= 1e-10 * scale for v in res.values())
    assert rep.classification["is_12_unique"]


def test_outer_right_rank_condition_example():
    # 9x6 input of rank 4 with 3-dimensional prescribed spaces
    rng = np.random.default_rng(2)
    while True:
        a = rand_rank_deficient(9, 6, 4, rng)
        s1 = random_qmat(6, 3, rng)
        t1 = random_qmat(3, 9, rng)
        w = mat_mul(mat_mul(t1, a), s1)
        if rank(w) == 3:
            break
    rep = outer_right(a, s1, t1)
    assert rep.classification["is_outer"]
    assert rep.classification["range_matches"]
    assert rep.classification["nullspace_matches"]
    assert not rep.classification["is_one_inverse"]
    assert rep.residuals["outer"] <= 1e-10 * max(1.0, fro_norm(rep.x))
    assert rank(rep.x) == 3


def test_outer_right_dimension_mismatch():
    rng = np.random.default_rng(3)
    a = random_qmat(4, 3, rng)
    with pytest.raises(ValueError):
        outer_right(a, random_qmat(4, 2, rng), random_qmat(2, 4, rng))
    with pytest.raises(ValueError):
        outer_right(a, random_qmat(3, 2, rng), random_qmat(2, 3, rng))


def test_outer_right_rank_zero_product_gives_zero():
    rng = np.random.default_rng(4)
    a = random_qmat(3, 3, rng)
    z = QMatrix.zeros(3, 2)
    rep = outer_right(a, z, random_qmat(2, 3, rng))
    assert fro_norm(rep.x) == 0.0
    assert rep.exists
    assert rep.ranks["w"] == 0


def test_outer_right_uniqueness_under_rank_match():
    # with rank(TAS) = rank(S) = rank(T), every free matrix z gives the
    # same outer inverse
    rng = np.random.default_rng(5)
    while True:
        a = rand_rank_deficient(6, 5, 4, rng)
        s1 = random_qmat(5, 3, rng)
        t1 = random_qmat(3, 6, rng)
        if rank(mat_mul(mat_mul(t1, a), s1)) == 3:
            break
    x1 = outer_right(a, s1, t1, z=random_qmat(3, 3, rng)).x
    x2 = outer_right(a, s1, t1, z=random_qmat(3, 3, rng)).x
    assert fro_norm(x1 - x2) <= 1e-10 * fro_norm(x1)


def test_outer_right_free_blocks_change_x_when_not_unique():
    rng = np.random.default_rng(6)
    a = rand_rank_deficient(5, 5, 2, rng)
    s1 = random_qmat(5, 4, rng)
    t1 = random_qmat(4, 5, rng)
    # rank(T1AS1) = 2 < 4 = rank(S1): not unique
    assert rank(mat_mul(mat_mul(t1, a), s1)) == 2
    x1 = outer_right(a, s1, t1).x
    x2 = outer_right(a, s1, t1, z=random_qmat(4, 4, rng)).x
    assert fro_norm(x1 - x2) > 1e-6


def near_tie_w(seed):
    # (W, rng) with W = U diag(1, 1/2, t, 0, 0, 0) V* 6x6: sigma_3 = t sits
    # at the rank threshold 6 eps sigma_1, where rank(W) and qsvd(W, route)
    # can decide differently
    from test_factor import rand_unitary

    rng = np.random.default_rng(seed)
    t = 6 * np.finfo(float).eps * rng.uniform(0.5, 2)
    d = QMatrix.from_real(np.diag([1.0, 0.5, t, 0.0, 0.0, 0.0]))
    return mat_mul(mat_mul(rand_unitary(6, rng), d),
                   conj_transpose(rand_unitary(6, rng))), rng


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_z_shape_does_not_depend_on_a_near_tie_rank(route):
    # for this draw the direct qsvd keeps sigma_3, so ||X|| ~ 1e15; z has
    # W*'s shape whatever the rank, so any decision takes it, and W X W = W
    # holds to eps ||W||^2 ||X||
    w, rng = near_tie_w(8)
    eye = QMatrix.eye(6)
    x = outer_right(w, eye, eye, route=route, z=random_qmat(6, 6, rng)).x
    assert x.shape == (6, 6)
    assert fro_norm(mat_mul(mat_mul(w, x), w) - w) <= \
        6 * EPS * fro_norm(w) ** 2 * fro_norm(x)


@pytest.mark.parametrize("seed", [8, 24])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_near_tie_reports_the_rank_x_was_built_at(seed, route):
    # on direct, rank(W) and qsvd(W) split on these draws (2 against 3 for
    # seed 8, 3 against 2 for seed 24); ranks["w"] and the flags follow the
    # compact SVD that built X, not rank(W)
    w, _ = near_tie_w(seed)
    eye = QMatrix.eye(6)
    rep = outer_right(w, eye, eye, route=route)
    sv = qsvd(w, method=route, full=False)
    nu = rank(w)
    assert (sv.rank != nu) == (route == "direct")
    assert rep.ranks == {"nu": nu, "s": 6, "t": 6, "w": sv.rank}
    assert rep.classification == {
        "is_one_inverse": sv.rank == nu, "is_outer": False,
        "range_matches": False, "nullspace_matches": False,
        "is_12_unique": False}
    # X = W+ at the SVD's rank: ||X||^2 is the sum of its 1/sigma_i^2
    want = np.sqrt(np.sum(sv.sigma ** -2.0))
    assert abs(fro_norm(rep.x) - want) <= 1e-6 * want


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_random_free_blocks_take_one_svd(route, monkeypatch):
    # a free matrix z takes the same one compact qsvd as z = None
    from quatinv import factor

    calls = []
    inner = factor.qsvd

    def spy(a, method="crep", full=True):
        calls.append(full)
        return inner(a, method=method, full=full)

    monkeypatch.setattr(factor, "qsvd", spy)
    monkeypatch.setattr(geninv, "qsvd", spy)
    rng = np.random.default_rng(31)
    a = rand_rank_deficient(5, 4, 2, rng)
    s1, t1 = random_qmat(4, 3, rng), random_qmat(3, 5, rng)
    rep = outer_right(a, s1, t1, route=route, z=random_qmat(3, 3, rng))
    assert calls == [False]
    # rank(T1 A S1) = rank(A) = 2: a {1}-inverse of A
    assert rep.classification["is_one_inverse"]
    assert rep.residuals["one"] <= 1e-10 * max(1.0, fro_norm(a))


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_z_changes_x_the_same_way_on_both_routes(route):
    # X = S (W+ + Z - W+ W Z W W+) T is not unique here, yet one z gives one
    # X: its projectors W+ W and W W+ do not depend on the route's SVD bases
    rng = np.random.default_rng(32)
    a = rand_rank_deficient(6, 5, 2, rng)
    s1, t1 = random_qmat(5, 4, rng), random_qmat(3, 6, rng)
    for build in (lambda r, z: outer_right(a, s1, t1, route=r, z=z),
                  lambda r, z: outer_left(a, t1, s1, route=r, z=z)):
        z = random_qmat(4, 3, rng)
        x0, rep = build(route, None).x, build(route, z)
        other = build({"direct": "crep", "crep": "direct"}[route], z).x
        assert not rep.classification["is_12_unique"]
        assert fro_norm(rep.x - x0) > 1e-3 * fro_norm(x0)
        assert fro_norm(rep.x - other) <= 1e-12 * fro_norm(rep.x)


# -------------------------------------------------------------- outer_left


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_outer_left_identity_generators_give_inverse(route):
    rng = np.random.default_rng(7)
    a = random_qmat(3, 3, rng)
    eye = QMatrix.eye(3)
    rep = outer_left(a, eye, eye, route=route)
    assert qallclose(mat_mul(rep.x, a), eye, 1e-11)
    assert all(rep.classification.values())


def test_outer_left_conjugate_transpose_gives_penrose():
    rng = np.random.default_rng(8)
    a = rand_rank_deficient(4, 6, 3, rng)
    astar = conj_transpose(a)
    rep = outer_left(a, astar, astar)
    res = penrose_residuals(a, rep.x)
    assert all(v <= 1e-10 * max(1.0, fro_norm(a)) for v in res.values())
    assert rep.side == "left"


def test_outer_left_rank_condition_example():
    rng = np.random.default_rng(9)
    while True:
        a = rand_rank_deficient(6, 9, 4, rng)
        s2 = random_qmat(3, 6, rng)
        t2 = random_qmat(9, 3, rng)
        if rank(mat_mul(mat_mul(s2, a), t2)) == 3:
            break
    rep = outer_left(a, s2, t2)
    assert rep.classification["is_outer"]
    assert rep.residuals["outer"] <= 1e-10 * max(1.0, fro_norm(rep.x))
    assert rank(rep.x) == 3


# -------------------------------------------------------------- outer_both


def test_outer_both_invertible():
    rng = np.random.default_rng(10)
    a = random_qmat(3, 3, rng)
    astar = conj_transpose(a)
    rep = outer_both(a, astar, astar)
    assert qallclose(mat_mul(a, rep.x), QMatrix.eye(3), 1e-10)
    assert rep.classification["is_12_unique"]
    assert not rep.classification["sides_disagree"]


def test_outer_both_conjugate_transpose_is_penrose():
    rng = np.random.default_rng(11)
    a = rand_rank_deficient(5, 4, 2, rng)
    astar = conj_transpose(a)
    rep = outer_both(a, astar, astar)
    res = penrose_residuals(a, rep.x)
    assert all(v <= 1e-10 * max(1.0, fro_norm(a)) for v in res.values())


def test_outer_both_matches_drazin_for_matrix_powers():
    rng = np.random.default_rng(12)
    b = random_qmat(2, 2, rng)
    a = block_diag_q(b, NILP)
    k = mat_index(a)
    assert k == 2
    p = a
    for _ in range(k - 1):
        p = mat_mul(p, a)
    rep = outer_both(a, p, p)
    xd = drazin(a)
    assert qallclose(rep.x, xd, 1e-9)


def test_outer_both_sides_disagree_flag():
    rng = np.random.default_rng(13)
    while True:
        a = random_qmat(5, 5, rng)
        s = rand_rank_deficient(5, 5, 3, rng)
        t = rand_rank_deficient(5, 5, 2, rng)
        w = mat_mul(mat_mul(t, a), s)
        if rank(w) == 2:
            break
    rep = outer_both(a, s, t)
    # rank(TAS)=rank(T)=2 but rank(S)=3: right null matches, right range not
    assert rep.classification["right_nullspace_matches"]
    assert not rep.classification["right_range_matches"]
    assert rep.classification["left_range_matches"]
    assert rep.classification["sides_disagree"]
    assert rep.classification["is_outer"]


# ------------------------------------------------------------ outer_w_* --


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_outer_w_right_conjugate_transpose_gives_penrose(route):
    rng = np.random.default_rng(14)
    a = rand_rank_deficient(6, 4, 3, rng)
    rep = outer_w_right(a, conj_transpose(a), route=route)
    assert rep.exists
    res = penrose_residuals(a, rep.x)
    assert all(v <= 1e-9 * max(1.0, fro_norm(a)) for v in res.values())


def test_outer_w_right_identity_gives_inverse():
    rng = np.random.default_rng(15)
    a = random_qmat(4, 4, rng)
    rep = outer_w_right(a, QMatrix.eye(4))
    assert qallclose(mat_mul(rep.x, a), QMatrix.eye(4), 1e-11)


def test_outer_w_right_prescribes_spaces():
    rng = np.random.default_rng(16)
    while True:
        a = rand_rank_deficient(6, 4, 3, rng)
        w1 = rand_rank_deficient(4, 6, 2, rng)
        fact = full_rank_decompose(w1)
        small = mat_mul(mat_mul(fact.g, a), fact.f)
        if rank(small) == 2:
            break
    rep = outer_w_right(a, w1)
    assert rep.exists
    x = rep.x
    assert fro_norm(mat_mul(mat_mul(x, a), x) - x) <= 1e-10 * max(1.0, fro_norm(x))
    assert same_column_span(x, w1)  # R_r(X) = R_r(W1)
    assert same_row_span(x, w1)  # N_r(X) = N_r(W1)


def test_outer_w_right_singular_small_matrix_flags_nonexistence(monkeypatch):
    # W nilpotent against A = I: G*F is strictly triangular, so no outer
    # inverse with R_r(W), N_r(W) exists.  On both routes the zero X's
    # residuals are known, ||XAX - X|| = 0 and ||AXA - A|| = ||A||, and the
    # report forms no product on that X
    zero_operands = []

    def spy(mul):
        def wrapped(x, y):
            zero_operands.extend(
                m.shape for m in (x, y) if not (m.q1.any() or m.q2.any()))
            return mul(x, y)
        return wrapped

    monkeypatch.setattr(geninv, "mat_mul", spy(mat_mul))
    monkeypatch.setattr(qcore, "mat_mul", spy(mat_mul))
    monkeypatch.setattr(qcore, "crep_mul", spy(qcore.crep_mul))
    a = QMatrix.eye(2)
    for route in ("direct", "crep"):
        rep = outer_w_right(a, NILP, route=route)
        assert not rep.exists
        assert "singular" in rep.reason
        assert fro_norm(rep.x) == 0.0
        assert not rep.classification["is_outer"]
        assert rep.residuals == {"outer": 0.0, "one": fro_norm(a)}
    assert zero_operands == []


def test_outer_w_right_zero_w():
    rng = np.random.default_rng(17)
    a = random_qmat(3, 4, rng)
    rep = outer_w_right(a, QMatrix.zeros(4, 3))
    assert rep.exists
    assert fro_norm(rep.x) == 0.0


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_outer_w_left_conjugate_transpose_gives_penrose(route):
    rng = np.random.default_rng(18)
    a = rand_rank_deficient(4, 6, 3, rng)
    rep = outer_w_left(a, conj_transpose(a), route=route)
    assert rep.exists
    res = penrose_residuals(a, rep.x)
    assert all(v <= 1e-9 * max(1.0, fro_norm(a)) for v in res.values())


def test_outer_w_left_identity_gives_inverse():
    rng = np.random.default_rng(19)
    a = random_qmat(3, 3, rng)
    rep = outer_w_left(a, QMatrix.eye(3))
    assert qallclose(mat_mul(a, rep.x), QMatrix.eye(3), 1e-11)


def test_outer_w_left_prescribes_left_spaces():
    rng = np.random.default_rng(20)
    while True:
        a = rand_rank_deficient(6, 4, 3, rng)
        w2 = rand_rank_deficient(4, 6, 2, rng)
        fact = full_rank_decompose(w2)
        if rank(mat_mul(mat_mul(fact.g, a), fact.f)) == 2:
            break
    rep = outer_w_left(a, w2)
    assert rep.exists
    x = rep.x
    assert fro_norm(mat_mul(mat_mul(x, a), x) - x) <= 1e-10 * max(1.0, fro_norm(x))
    assert same_row_span(x, w2)  # R_l(X) = R_l(W2)
    assert same_column_span(x, w2)  # N_l(X) = N_l(W2)


def test_outer_w_right_consistent_with_urquhart_factors():
    # the W route equals the S,T route run on the same FRD factors
    rng = np.random.default_rng(21)
    a = rand_rank_deficient(6, 5, 4, rng)
    w1 = rand_rank_deficient(5, 6, 3, rng)
    fact = full_rank_decompose(w1)
    rep_w = outer_w_right(a, w1)
    rep_u = outer_right(a, fact.f, fact.g)
    assert rep_w.exists
    assert fro_norm(rep_w.x - rep_u.x) <= 1e-10 * max(1.0, fro_norm(rep_w.x))


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_outer_w_left_is_outer_w_right_bit_for_bit(route):
    # one full rank decomposition fixes W's left and right spaces alike, so
    # the two constructors are one computation under two labels; the last
    # two W give a singular G A F and a zero W
    rng = np.random.default_rng(22)
    a = rand_rank_deficient(6, 5, 4, rng)
    cases = [(a, rand_rank_deficient(5, 6, 3, rng)), (a, conj_transpose(a)),
             (QMatrix.from_real(np.diag([1.0, 0.0])),
              QMatrix.from_real(np.diag([0.0, 1.0]))),
             (a, QMatrix.zeros(5, 6))]
    exists = []
    for a, w in cases:
        right = outer_w_right(a, w, route=route)
        left = outer_w_left(a, w, route=route)
        assert np.array_equal(left.x.q1, right.x.q1)
        assert np.array_equal(left.x.q2, right.x.q2)
        for name in ("exists", "reason", "classification", "residuals",
                     "ranks", "route"):
            assert getattr(left, name) == getattr(right, name), name
        assert (left.side, right.side) == ("left", "right")
        exists.append(right.exists)
    assert exists == [True, True, False, True]


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_outer_w_does_not_depend_on_the_factorization(route):
    # W = F G = (F M)(M* G) for any unitary M of order r, and M cancels in
    # F (G A F)^-1 G: the crep oracle on (F M, M* G) meets the constructor's
    # X within c r kappa(GAF) eps, c = 1.  The largest c measured was 0.43,
    # over 200 random and 120 graded inputs (kappa up to 1e9), both routes
    from test_factor import rand_unitary

    rng = np.random.default_rng(23)
    for m, n, r in [(6, 5, 3), (7, 4, 2), (5, 8, 4), (6, 6, 6)]:
        a = random_qmat(m, n, rng)
        w = rand_rank_deficient(n, m, r, rng)
        x = outer_w_right(a, w, route=route).x
        fact = full_rank_decompose(w, route=route)
        mm = rand_unitary(r, rng)
        oracle, kappa = crep_oracle(a, mat_mul(fact.f, mm),
                                    mat_mul(conj_transpose(mm), fact.g))
        assert rel_gap(crep(x), oracle) <= 1.0 * r * kappa * EPS


# ------------------------------------------------------------------- pinv


@pytest.mark.parametrize("method", ["svd", "frd"])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_scalars(method, route):
    two = QMatrix.from_real(np.array([[2.0]]))
    assert qallclose(pinv(two, method, route),
                     QMatrix.from_real(np.array([[0.5]])), 1e-14)
    qi = QMatrix(np.array([[1j]]), np.zeros((1, 1), dtype=complex))
    expect = QMatrix(np.array([[-1j]]), np.zeros((1, 1), dtype=complex))
    assert qallclose(pinv(qi, method, route), expect, 1e-14)


@pytest.mark.parametrize("method", ["svd", "frd"])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_random_residuals(method, route):
    rng = np.random.default_rng(22)
    a = random_qmat(12, 8, rng)
    x = pinv(a, method, route)
    res = penrose_residuals(a, x)
    assert all(v <= 1e-9 for v in res.values())


def test_pinv_zero_matrix():
    z = QMatrix.zeros(3, 2)
    for method in ("svd", "frd"):
        x = pinv(z, method=method)
        assert x.shape == (2, 3)
        assert fro_norm(x) == 0.0


def test_pinv_realizations_agree():
    rng = np.random.default_rng(23)
    a = rand_rank_deficient(7, 5, 3, rng)
    xs = [pinv(a, method, route)
          for method in ("svd", "frd") for route in ("direct", "crep")]
    for x in xs[1:]:
        assert qallclose(x, xs[0], 1e-10)


def test_pinv_left_route_equals_right_route():
    rng = np.random.default_rng(24)
    a = rand_rank_deficient(6, 4, 2, rng)
    astar = conj_transpose(a)
    x_right = pinv(a)
    x_left = outer_left(a, astar, astar).x
    assert fro_norm(x_left - x_right) <= 1e-10 * max(1.0, fro_norm(x_right))


def test_pinv_report_carries_penrose_residuals():
    rng = np.random.default_rng(25)
    a = random_qmat(5, 3, rng)
    rep = pinv_report(a)
    for key in ("one", "outer", "p3", "p4"):
        assert key in rep.residuals


def test_pinv_solve_matches_pinv_product():
    rng = np.random.default_rng(26)
    a = random_qmat(7, 5, rng)
    b = random_qmat(7, 3, rng)
    for route in ("direct", "crep"):
        x = pinv_solve(a, b, route=route)
        y = mat_mul(pinv(a, route=route), b)
        assert qallclose(x, y, 1e-10)


def test_pinv_solve_beats_composed_formula_when_ill_conditioned():
    # spectrum spanning 1e-4..1: the composed A*(A*AA*)^(1)A* route cubes
    # the condition number; the SVD application must still solve exactly
    rng = np.random.default_rng(27)
    m = 12
    u = qsvd(random_qmat(m, m, rng)).u
    v = qsvd(random_qmat(m, m, rng)).v
    sig = np.logspace(0, -4, m)
    a = mat_mul(QMatrix(u.q1 * sig, u.q2 * sig), conj_transpose(v))
    x_true = random_qmat(m, 2, rng)
    b = mat_mul(a, x_true)
    x = pinv_solve(a, b)
    assert fro_norm(x - x_true) <= 1e-9 * fro_norm(x_true)


def test_pinv_solve_minimum_norm_on_rank_deficient():
    rng = np.random.default_rng(28)
    a = rand_rank_deficient(6, 4, 2, rng)
    b = random_qmat(6, 1, rng)
    x = pinv_solve(a, b)
    assert qallclose(x, mat_mul(pinv(a), b), 1e-9)
    with pytest.raises(ValueError):
        pinv_solve(a, random_qmat(5, 1, rng))
    zero = QMatrix.zeros(3, 2)
    assert fro_norm(pinv_solve(zero, random_qmat(3, 2, rng))) == 0.0


def test_pinv_solve_crep_route_makes_no_pair_product(monkeypatch):
    # the crep route applies its SVD factors with crep products only
    rng = np.random.default_rng(41)
    a, b = random_qmat(6, 4, rng), random_qmat(6, 2, rng)
    calls = []

    def spy(x, y):
        calls.append((x.shape, y.shape))
        return mat_mul(x, y)

    monkeypatch.setattr(geninv, "mat_mul", spy)
    monkeypatch.setattr(qcore, "mat_mul", spy)
    pinv_solve(a, b, route="crep")
    assert calls == []
    pinv_solve(a, b, route="direct")
    assert len(calls) == 2
    # a square A of full rank: the square solve, with no product on either
    # route
    del calls[:]
    a = random_qmat(6, 6, rng)
    pinv_solve(a, b, route="crep")
    pinv_solve(a, b, route="direct")
    assert calls == []


# ------------------------------------------- square nonsingular W = TAS
#
# A square W of full rank has W^-1 as its only {1}-inverse, and X = S W^-1 T
# comes from one factorization in the route's own arithmetic (LAPACK's LU
# with partial pivoting of W^C on crep, the Householder QR of [W | I] in
# pair arithmetic on direct), with no SVD of W.

EPS = np.finfo(float).eps


def crep(x):
    return np.block([[x.q1, x.q2], [-np.conj(x.q2), np.conj(x.q1)]])


def crep_oracle(a, s, t):
    """S (TAS)^-1 T and kappa(TAS), by numpy on the complex representation."""
    wc = crep(t) @ crep(a) @ crep(s)
    return crep(s) @ np.linalg.solve(wc, crep(t)), np.linalg.cond(wc)


def rel_gap(x, y):
    return float(np.linalg.norm(x - y) / np.linalg.norm(y))


def graded(k, kappa, rng):
    """U diag(sigma) V* of order k, sigma graded from 1 down to 1/kappa."""
    from test_factor import rand_unitary

    sigma = QMatrix.from_real(np.diag(np.logspace(0, -np.log10(kappa), k)))
    return mat_mul(mat_mul(rand_unitary(k, rng), sigma),
                   conj_transpose(rand_unitary(k, rng)))


def qsvd_spy(monkeypatch):
    from quatinv import factor

    calls = []
    inner = factor.qsvd

    def spy(a, method="crep", full=True):
        calls.append(a.shape)
        return inner(a, method=method, full=full)

    monkeypatch.setattr(factor, "qsvd", spy)
    monkeypatch.setattr(geninv, "qsvd", spy)
    return calls


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_square_solve_matches_the_crep_oracle(route):
    rng = np.random.default_rng(50)
    for _ in range(10):
        a = random_qmat(7, 6, rng)
        s, t = random_qmat(6, 4, rng), random_qmat(4, 7, rng)
        rep = outer_right(a, s, t, route=route)
        oracle, kappa = crep_oracle(a, s, t)
        assert rep.ranks["w"] == 4
        assert rep.classification["range_matches"]
        assert rep.classification["nullspace_matches"]
        assert rel_gap(crep(rep.x), oracle) <= 4 * 4 * kappa * EPS


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_square_solve_error_grows_with_kappa_times_eps(kappa):
    # unitary S and T keep kappa(W) = kappa(A); both routes and their gap
    # stay within c kappa eps all the way to kappa = 1e10, at k = 8 and
    # k = 40, two orders the benchmark's direct solves reach
    from test_factor import rand_unitary

    rng = np.random.default_rng(int(np.log10(kappa)))
    for k in (8, 40):
        a = graded(k, kappa, rng)
        s, t = rand_unitary(k, rng), rand_unitary(k, rng)
        oracle, kappa_w = crep_oracle(a, s, t)
        assert kappa_w == pytest.approx(kappa, rel=1e-3)
        bound = 2 * k * kappa_w * EPS
        xs = [outer_right(a, s, t, route=route).x
              for route in ("direct", "crep")]
        for x in xs:
            assert rel_gap(crep(x), oracle) <= bound
        assert rel_gap(crep(xs[0]), crep(xs[1])) <= bound


def test_square_solve_route_parity_for_every_constructor():
    # every constructor, each with a square nonsingular W here, agrees
    # across the two routes
    rng = np.random.default_rng(51)
    a = random_qmat(5, 5, rng)
    s, t = random_qmat(5, 3, rng), random_qmat(3, 5, rng)
    w = random_qmat(5, 5, rng)
    for build in (lambda r: outer_right(a, s, t, route=r).x,
                  lambda r: outer_left(a, t, s, route=r).x,
                  lambda r: outer_w_right(a, w, route=r).x,
                  lambda r: outer_w_left(a, w, route=r).x,
                  lambda r: pinv(a, method="svd", route=r),
                  lambda r: pinv(a, method="frd", route=r),
                  lambda r: drazin(a, route=r),
                  lambda r: group_inverse(a, route=r)):
        x, y = build("direct"), build("crep")
        assert fro_norm(x - y) <= 1e-11 * fro_norm(x)


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_square_nonsingular_w_runs_no_qsvd(route, monkeypatch):
    calls = qsvd_spy(monkeypatch)
    rng = np.random.default_rng(52)
    a = random_qmat(6, 5, rng)
    outer_right(a, random_qmat(5, 3, rng), random_qmat(3, 6, rng), route=route)
    pinv_report(random_qmat(4, 4, rng), route=route)
    outer_w_right(a, random_qmat(5, 6, rng), route=route)
    drazin(random_qmat(4, 4, rng), route=route)
    assert calls == []


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_singular_or_rectangular_w_runs_one_qsvd(route, monkeypatch):
    calls = qsvd_spy(monkeypatch)
    rng = np.random.default_rng(53)
    a = rand_rank_deficient(6, 5, 2, rng)
    # W 3x3 of rank 2, then W 2x3
    outer_right(a, random_qmat(5, 3, rng), random_qmat(3, 6, rng), route=route)
    assert calls == [(3, 3)]
    outer_right(a, random_qmat(5, 3, rng), random_qmat(2, 6, rng), route=route)
    assert calls == [(3, 3), (2, 3)]
    # pinv of a rectangular A: W = A is 6x5
    pinv_report(random_qmat(6, 5, rng), route=route)
    assert calls == [(3, 3), (2, 3), (6, 5)]


def test_direct_square_solve_never_forms_a_crep(monkeypatch):
    # rank() still reads A^C, so it is replaced by a numpy oracle here; the
    # factorization, the solve and the products must not call to_crep
    from quatinv import factor

    rng = np.random.default_rng(54)
    a, w = random_qmat(5, 5, rng), random_qmat(5, 5, rng)
    want = (pinv_report(a, route="direct").x,
            outer_w_right(a, w, route="direct").x)

    def forbidden(x):
        raise AssertionError("to_crep on the direct route")

    def numpy_rank(x):
        if 0 in x.shape:
            return 0
        sig = np.linalg.svd(crep(x), compute_uv=False)[0::2]
        return int(np.count_nonzero(sig > max(x.shape) * EPS * sig[0]))

    for mod in (qcore, factor, geninv):
        monkeypatch.setattr(mod, "to_crep", forbidden, raising=False)
    monkeypatch.setattr(geninv, "rank", numpy_rank)
    got = (pinv_report(a, route="direct").x,
           outer_w_right(a, w, route="direct").x)
    for x, y in zip(got, want):
        assert np.array_equal(x.q1, y.q1) and np.array_equal(x.q2, y.q2)


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_empty_and_zero_w(route):
    rng = np.random.default_rng(55)
    a = random_qmat(4, 3, rng)
    # a 0x0 W has rank 0, its order: X = S W^-1 T is the 3x4 zero
    rep = outer_right(a, QMatrix.zeros(3, 0), QMatrix.zeros(0, 4), route=route)
    assert rep.exists and rep.ranks["w"] == 0
    assert rep.x.shape == (3, 4) and fro_norm(rep.x) == 0.0
    # a zero W = 0 (G A F is 0x0)
    rep = outer_w_right(a, QMatrix.zeros(3, 4), route=route)
    assert rep.exists and rep.ranks == {"nu": 3, "s": 0, "t": 0, "w": 0}
    assert rep.x.shape == (3, 4) and fro_norm(rep.x) == 0.0
    # a square zero W = TAS goes through the SVD: X = 0
    rep = outer_right(a, QMatrix.zeros(3, 2), random_qmat(2, 4, rng),
                      route=route)
    assert rep.ranks["w"] == 0 and fro_norm(rep.x) == 0.0


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_report_of_invertible_a_is_its_inverse(route):
    rng = np.random.default_rng(56)
    a = random_qmat(6, 6, rng)
    rep = pinv_report(a, route=route)
    inv = np.linalg.inv(crep(a))
    # W = A: one square solve of A itself, so the error follows kappa(A)
    kappa = np.linalg.cond(crep(a))
    assert rel_gap(crep(rep.x), inv) <= 6 * kappa * EPS
    assert rep.ranks == {"nu": 6, "s": 6, "t": 6, "w": 6}
    assert all(rep.classification.values())
    assert all(v <= 1e-10 for v in rep.residuals.values())


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_z_on_a_nonsingular_w_is_checked_and_ignored(route):
    # W^-1 is the only {1}-inverse of a square W of full rank
    # (W^-1 + Z - W^-1 W Z W W^-1 = W^-1), so any z of W*'s shape returns
    # the X of z = None bit for bit, and a z of another shape is refused
    # before the square solve
    rng = np.random.default_rng(57)
    a = random_qmat(4, 4, rng)
    eye = QMatrix.eye(4)
    s, t = random_qmat(4, 3, rng), random_qmat(3, 4, rng)
    for build, k in ((lambda z: outer_right(a, eye, eye, route=route, z=z), 4),
                     (lambda z: outer_left(a, eye, eye, route=route, z=z), 4),
                     (lambda z: outer_both(a, eye, eye, route=route, z=z), 4),
                     (lambda z: outer_right(a, s, t, route=route, z=z), 3)):
        want = build(None)
        assert want.ranks["w"] == k  # W is k-by-k of full rank
        for z in (QMatrix.zeros(k, k), random_qmat(k, k, rng)):
            x = build(z).x
            assert np.array_equal(x.q1, want.x.q1)
            assert np.array_equal(x.q2, want.x.q2)
        for bad in ((k, k + 1), (k + 1, k), (1, 1), (0, 0)):
            with pytest.raises(ValueError, match="z has shape"):
                build(QMatrix.zeros(*bad))


# ------------------------------------------- pinv_solve by the square rule
#
# A square A of full rank has pinv(A) = A^-1, and pinv_solve takes A^-1 B
# from the core's square solve; any other A applies its compact SVD.  A
# rectangular A is not ranked.


def factor_spy(monkeypatch):
    # the rank and qsvd calls pinv_solve makes, in order:
    # ("rank", shape) and ("qsvd", shape, full)
    calls = []
    real_rank, real_qsvd = geninv.rank, geninv.qsvd

    def spy_rank(a):
        calls.append(("rank", a.shape))
        return real_rank(a)

    def spy_qsvd(a, method="crep", full=True):
        calls.append(("qsvd", a.shape, full))
        return real_qsvd(a, method=method, full=full)

    monkeypatch.setattr(geninv, "rank", spy_rank)
    monkeypatch.setattr(geninv, "qsvd", spy_qsvd)
    return calls


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_solve_factorizations(route, monkeypatch):
    calls = factor_spy(monkeypatch)
    rng = np.random.default_rng(58)
    # square of full rank: one rank, then the square solve
    a, b = random_qmat(6, 6, rng), random_qmat(6, 2, rng)
    x = pinv_solve(a, b, route=route)
    assert calls == [("rank", (6, 6))]
    assert rel_gap(crep(x), np.linalg.solve(crep(a), crep(b))) <= 1e-12
    # rectangular: no rank, one compact SVD
    del calls[:]
    pinv_solve(random_qmat(7, 5, rng), random_qmat(7, 2, rng), route=route)
    assert calls == [("qsvd", (7, 5), False)]
    # square and rank deficient: one rank, then one compact SVD, and still
    # the minimum-norm solution
    del calls[:]
    a = rand_rank_deficient(6, 6, 3, rng)
    x = pinv_solve(a, b, route=route)
    assert calls == [("rank", (6, 6)), ("qsvd", (6, 6), False)]
    assert qallclose(x, mat_mul(pinv(a, route=route), b), 1e-9)


def test_direct_pinv_solve_never_forms_a_crep(monkeypatch):
    # as in test_direct_square_solve_never_forms_a_crep: rank() reads A^C,
    # so a numpy oracle stands in for it, and the solve must not call
    # to_crep
    from quatinv import factor

    rng = np.random.default_rng(59)
    a, b = random_qmat(5, 5, rng), random_qmat(5, 3, rng)
    want = pinv_solve(a, b, route="direct")

    def forbidden(x):
        raise AssertionError("to_crep on the direct route")

    for mod in (qcore, factor, geninv):
        monkeypatch.setattr(mod, "to_crep", forbidden, raising=False)
    monkeypatch.setattr(geninv, "rank",
                        lambda x: np.linalg.matrix_rank(crep(x)) // 2)
    got = pinv_solve(a, b, route="direct")
    assert np.array_equal(got.q1, want.q1) and np.array_equal(got.q2, want.q2)


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_pinv_solve_square_error_grows_with_kappa_times_eps(kappa):
    # graded U diag(sigma) V*: the error against x_true and the route gap
    # each stay within n kappa eps (c = 1; the largest ratio measured over
    # six seeds per kappa was 0.034)
    rng = np.random.default_rng(int(np.log10(kappa)))
    for n in (8, 40):
        a = graded(n, kappa, rng)
        x_true = random_qmat(n, 2, rng)
        b = mat_mul(a, x_true)
        bound = n * np.linalg.cond(crep(a)) * EPS
        xs = [pinv_solve(a, b, route=route) for route in ("direct", "crep")]
        for x in xs:
            assert rel_gap(crep(x), crep(x_true)) <= bound
        assert rel_gap(crep(xs[0]), crep(xs[1])) <= bound


@pytest.mark.parametrize("route", [
    "direct",
    pytest.param("crep", marks=pytest.mark.xfail(
        strict=True, reason="the crep square solve is LAPACK's LU with "
        "partial pivoting, whose growth on this matrix is 2^(n-1) "
        "(ROADMAP item 22)")),
])
def test_pinv_solve_on_wilkinsons_growth_matrix(route):
    # W = I minus the strict lower ones, with a last column of ones
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # 9.4): kappa(W) is only ~27, but partial pivoting grows its last
    # column to 2^(n-1), and at n = 60 the LU's relative error reads
    # 0.3-1.8.  Householder reflectors have no growth factor.  The oracle
    # is the QR of W^C with back substitution, never an LU; the largest
    # error measured over seeds 0-4 was 0.0076 n kappa eps on direct
    n = 60
    w = np.eye(n) - np.tril(np.ones((n, n)), -1)
    w[:, -1] = 1.0
    a = QMatrix.from_real(w)
    assert rank(a) == n
    b = random_qmat(n, 1, np.random.default_rng(0))
    q, r = np.linalg.qr(crep(a))
    y = np.conj(q.T) @ crep(b)
    want = np.zeros_like(y)
    for k in reversed(range(2 * n)):
        want[k] = (y[k] - r[k, k + 1:] @ want[k + 1:]) / r[k, k]
    x = pinv_solve(a, b, route=route)
    assert rel_gap(crep(x), want) <= 0.1 * n * np.linalg.cond(crep(a)) * EPS


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_solve_edge_cases(route, monkeypatch):
    calls = factor_spy(monkeypatch)
    rng = np.random.default_rng(60)
    # 0x0: rank 0 equals the order, and the solve returns 0 x k
    x = pinv_solve(QMatrix.zeros(0, 0), QMatrix.zeros(0, 3), route=route)
    assert x.shape == (0, 3)
    # a 3x3 zero has rank 0 < 3: the SVD path, returning zero
    del calls[:]
    x = pinv_solve(QMatrix.zeros(3, 3), random_qmat(3, 2, rng), route=route)
    assert calls == [("rank", (3, 3)), ("qsvd", (3, 3), False)]
    assert x.shape == (3, 2) and fro_norm(x) == 0.0
    # a non-finite square A is refused by its rank
    a = random_qmat(3, 3, rng)
    q1 = a.q1.copy()
    q1[1, 1] = np.nan
    with pytest.raises(ValueError, match="^rank: .*non-finite"):
        pinv_solve(QMatrix(q1, a.q2), random_qmat(3, 1, rng), route=route)


@pytest.mark.parametrize("shape", [(3, 3), (4, 3)], ids=["square", "rect"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_solve_refuses_a_non_finite_b(route, bad, shape, monkeypatch):
    # as rank refuses a non-finite A, a NaN or Inf in B raises before any
    # factorization, on the square and on the SVD path alike, rather than
    # give a non-finite X
    calls = factor_spy(monkeypatch)
    rng = np.random.default_rng(61)
    b = random_qmat(shape[0], 2, rng)
    for part in range(4):
        # each of the four real components in turn
        q = [b.q1.copy(), b.q2.copy()]
        q[part // 2][1, 0] = (complex(bad, 0.0) if part % 2 == 0
                              else complex(0.0, bad))
        with pytest.raises(ValueError, match="^pinv_solve: .*non-finite"):
            pinv_solve(random_qmat(*shape, rng), QMatrix(*q), route=route)
    assert calls == []


CONSTRUCTORS = {
    "outer_right": lambda a, route: outer_right(a, a, a, route=route),
    "outer_left": lambda a, route: outer_left(a, a, a, route=route),
    "outer_both": lambda a, route: outer_both(a, a, a, route=route),
    "outer_w_right": lambda a, route: outer_w_right(a, a, route=route),
    "outer_w_left": lambda a, route: outer_w_left(a, a, route=route),
    "pinv": lambda a, route: pinv(a, route=route),
    "pinv_report": lambda a, route: pinv_report(a, route=route),
    "pinv_solve": lambda a, route: pinv_solve(a, a, route=route),
    "drazin": lambda a, route: drazin(a, route=route),
    "group_inverse": lambda a, route: group_inverse(a, route=route),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_unknown_route_is_rejected_before_any_rank(name, monkeypatch):
    ranked = []
    real_rank = geninv.rank

    def spy(x):
        ranked.append(x.shape)
        return real_rank(x)

    monkeypatch.setattr(geninv, "rank", spy)
    a = NILP + QMatrix.eye(2)
    with pytest.raises(ValueError, match="unknown route"):
        CONSTRUCTORS[name](a, "complex")
    assert ranked == []


# -------------------------------------------------------------- mat_index


def test_mat_index_invertible_is_zero():
    rng = np.random.default_rng(26)
    assert mat_index(random_qmat(4, 4, rng)) == 0


def test_mat_index_nilpotent_jordan_block():
    assert mat_index(NILP) == 2


def test_mat_index_block_example():
    rng = np.random.default_rng(27)
    a = block_diag_q(random_qmat(2, 2, rng), NILP)
    assert mat_index(a) == 2


def test_mat_index_zero_matrix():
    assert mat_index(QMatrix.zeros(3, 3)) == 1


def test_mat_index_requires_square():
    rng = np.random.default_rng(28)
    with pytest.raises(ValueError):
        mat_index(random_qmat(3, 4, rng))


# ----------------------------------------------------------- drazin/group


def drazin_residuals(a, x, k):
    ak = QMatrix.eye(a.nrows)
    for _ in range(k):
        ak = mat_mul(ak, a)
    ak1 = mat_mul(ak, a)
    return (fro_norm(mat_mul(ak1, x) - ak),
            fro_norm(mat_mul(mat_mul(x, a), x) - x),
            fro_norm(mat_mul(a, x) - mat_mul(x, a)))


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_drazin_invertible_is_inverse(route):
    rng = np.random.default_rng(29)
    a = random_qmat(3, 3, rng)
    x = drazin(a, route=route)
    assert qallclose(mat_mul(a, x), QMatrix.eye(3), 1e-11)


def test_drazin_nilpotent_is_zero():
    assert fro_norm(drazin(NILP)) == 0.0


def test_drazin_block_example():
    rng = np.random.default_rng(30)
    b = random_qmat(2, 2, rng)
    a = block_diag_q(b, NILP)
    x = drazin(a)
    binv = pinv(b)  # invertible, so the Moore-Penrose inverse is B^{-1}
    expect = block_diag_q(binv, QMatrix.zeros(2, 2))
    assert qallclose(x, expect, 1e-9)
    k = mat_index(a)
    scale = 1e-9 * max(1.0, fro_norm(a) ** (k + 1))
    assert all(r <= scale for r in drazin_residuals(a, x, k))


def test_drazin_requires_square():
    rng = np.random.default_rng(31)
    with pytest.raises(ValueError):
        drazin(random_qmat(2, 3, rng))


INDEX_WALKS = {
    "mat_index": lambda a, route: mat_index(a),
    "drazin": drazin,
    "group_inverse": group_inverse,
}


@pytest.mark.parametrize("name", sorted(INDEX_WALKS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_index_walk_refuses_non_finite_input_before_it_starts(name, bad,
                                                              route):
    # an Inf reaching the walk's normalization would emit a RuntimeWarning
    # (an error under the suite's filters) before anything refused it
    rng = np.random.default_rng(35)
    a = random_qmat(4, 4, rng)
    for part in range(4):
        q = [a.q1.copy(), a.q2.copy()]
        q[part // 2][2, 1] = (complex(bad, 0.0) if part % 2 == 0
                              else complex(0.0, bad))
        with pytest.raises(ValueError, match=f"^{name}: .*non-finite"):
            INDEX_WALKS[name](QMatrix(*q), route)


def test_group_inverse_invertible():
    rng = np.random.default_rng(32)
    a = random_qmat(3, 3, rng)
    assert qallclose(mat_mul(a, group_inverse(a)), QMatrix.eye(3), 1e-11)


def test_group_inverse_idempotent_diagonal():
    a = QMatrix.from_real(np.diag([1.0, 0.0]))
    assert qallclose(group_inverse(a), a, 1e-12)


def test_group_inverse_rank_one():
    rng = np.random.default_rng(33)
    while True:
        u = random_qmat(3, 1, rng)
        v = random_qmat(3, 1, rng)
        vstaru = mat_mul(conj_transpose(v), u)
        if fro_norm(vstaru) > 0.1:
            break
    a = mat_mul(u, conj_transpose(v))
    x = group_inverse(a)
    scale = max(1.0, fro_norm(a))
    assert fro_norm(mat_mul(mat_mul(a, x), a) - a) <= 1e-10 * scale
    assert fro_norm(mat_mul(mat_mul(x, a), x) - x) <= 1e-10
    assert fro_norm(mat_mul(a, x) - mat_mul(x, a)) <= 1e-10


def test_group_inverse_fails_for_index_two():
    with pytest.raises(InverseExistenceError):
        group_inverse(NILP)


def test_crep_drazin_and_group_make_no_pair_product(monkeypatch):
    # the index walk forms A^2, A^3, ... with the route's own product, so
    # the crep Drazin and group inverses run crep arithmetic end to end
    rng = np.random.default_rng(34)
    a = block_diag_q(random_qmat(2, 2, rng), NILP)  # Ind(A) = 2
    calls = []

    def spy(x, y):
        calls.append((x.shape, y.shape))
        return mat_mul(x, y)

    monkeypatch.setattr(geninv, "mat_mul", spy)
    monkeypatch.setattr(qcore, "mat_mul", spy)
    drazin(a, route="crep")
    group_inverse(random_qmat(4, 4, rng), route="crep")
    assert calls == []
    drazin(a, route="direct")
    assert calls


# --------------------------------------------------------- subspace tests


def test_right_range_extra_direction_fails():
    # the negative case of the span helpers, so the space assertions above
    # cannot pass vacuously: an added column direction is not equal
    rng = np.random.default_rng(35)
    s = random_qmat(4, 2, rng)
    x = hstack_q([s, random_qmat(4, 1, rng)])
    assert rank(x) == 3
    assert not same_column_span(x, s)
    # of equal dimension, only the side-by-side rank tells two spans apart
    assert same_column_span(mat_mul(s, random_qmat(2, 2, rng)), s)
    assert not same_column_span(random_qmat(4, 2, rng), s)


# --------------------------------------------------------- cross-route


def test_route_agreement_all_constructors():
    rng = np.random.default_rng(39)
    extra = np.random.default_rng(139)
    for _ in range(10):
        a = rand_rank_deficient(5, 4, 3, rng)
        s1 = random_qmat(4, 2, rng)
        t1 = random_qmat(2, 5, rng)
        xd = outer_right(a, s1, t1, route="direct").x
        xc = outer_right(a, s1, t1, route="crep").x
        assert fro_norm(xd - xc) <= 1e-10 * max(1.0, fro_norm(xd))
        w = rand_rank_deficient(4, 5, 2, rng)
        rd = outer_w_right(a, w, route="direct")
        rc = outer_w_right(a, w, route="crep")
        assert rd.exists == rc.exists
        if rd.exists:
            assert fro_norm(rd.x - rc.x) <= 1e-10 * max(1.0, fro_norm(rd.x))
        # the mirrored and both-sided constructors, drawn from their own
        # generator so the inputs above stay as they were
        s2, t2 = random_qmat(2, 5, extra), random_qmat(4, 2, extra)
        s, t = (rand_rank_deficient(4, 5, 2, extra) for _ in range(2))
        w2 = rand_rank_deficient(4, 5, 2, extra)
        for build in (lambda route: outer_left(a, s2, t2, route=route),
                      lambda route: outer_both(a, s, t, route=route),
                      lambda route: outer_w_left(a, w2, route=route)):
            rd, rc = build("direct"), build("crep")
            assert rd.exists == rc.exists
            if rd.exists:
                assert fro_norm(rd.x - rc.x) <= 1e-10 * max(1.0, fro_norm(rd.x))


def test_classification_soundness():
    # whenever a flag is set, the matching residual must be small
    rng = np.random.default_rng(40)
    for _ in range(20):
        m = int(rng.integers(3, 6))
        n = int(rng.integers(3, 6))
        r = int(rng.integers(1, min(m, n) + 1))
        a = rand_rank_deficient(m, n, r, rng) if r < min(m, n) \
            else random_qmat(m, n, rng)
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(1, m + 1))
        rep = outer_right(a, random_qmat(n, p, rng), random_qmat(q, m, rng))
        if rep.classification["is_outer"]:
            assert rep.residuals["outer"] <= 1e-10 * max(1.0, fro_norm(rep.x))
        if rep.classification["is_one_inverse"]:
            assert rep.residuals["one"] <= 1e-10 * max(1.0, fro_norm(a))


# ------------------------------------- bare inverses compute only X
#
# pinv, drazin and group_inverse build no report: no rank(A), no residuals


def rank_spy(monkeypatch, names=("rank",)):
    # every matrix geninv ranks through the named functions, in call order
    ranked = []
    for name in names:
        inner = getattr(geninv, name)

        def spy(x, inner=inner):
            ranked.append(x)
            return inner(x)

        monkeypatch.setattr(geninv, name, spy)
    return ranked


@pytest.mark.parametrize("shape", [(6, 4), (5, 5)], ids=str)
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_svd_ranks_only_w(shape, route, monkeypatch):
    rng = np.random.default_rng(60)
    a = random_qmat(*shape, rng)
    want = pinv_report(a, route=route).x
    ranked = rank_spy(monkeypatch)
    x = pinv(a, route=route)
    # W = I A I = A, m by n
    assert [r.shape for r in ranked] == [shape]
    assert np.array_equal(x.q1, want.q1) and np.array_equal(x.q2, want.q2)


@pytest.mark.parametrize("method", ["svd", "frd"])
@pytest.mark.parametrize("shape", [(6, 4), (5, 5)], ids=str)
def test_crep_pinv_makes_no_pair_product(method, shape, monkeypatch):
    rng = np.random.default_rng(61)
    a = random_qmat(*shape, rng)
    calls = []

    def spy(x, y):
        calls.append((x.shape, y.shape))
        return mat_mul(x, y)

    monkeypatch.setattr(geninv, "mat_mul", spy)
    monkeypatch.setattr(qcore, "mat_mul", spy)
    pinv(a, method=method, route="crep")
    assert calls == []


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_drazin_ranks_each_power_once_and_never_a(route, monkeypatch):
    rng = np.random.default_rng(62)
    # ||A|| > 1, so no normalized power can equal A
    a = block_diag_q(random_qmat(3, 3, rng) * 4.0, NILP)
    k = mat_index(a)
    ranked = rank_spy(monkeypatch, ("rank", "_svd_rank"))
    x = drazin(a, route=route)
    # A^1, ..., A^{k+1}, then G A F of the frd of A^k (rank 3)
    assert k == 2 and len(ranked) == k + 2
    assert [r.shape for r in ranked[-1:]] == [(3, 3)]
    assert not any(np.array_equal(r.q1, a.q1) and np.array_equal(r.q2, a.q2)
                   for r in ranked)
    assert all(v <= 1e-10 for v in drazin_residuals(a, x, k))


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_drazin_tests_only_a_and_gaf_for_full_rank(route, monkeypatch):
    # every power past a singular A^1 is singular too, so the walk runs the
    # full-rank test on A^1 alone, and the core on G A F
    from quatinv import factor

    rng = np.random.default_rng(62)
    a = block_diag_q(random_qmat(3, 3, rng) * 4.0, NILP)
    tested = []
    inner = factor._gram_proves_full_rank

    def spy(c):
        tested.append(c.shape)
        return inner(c)

    monkeypatch.setattr(factor, "_gram_proves_full_rank", spy)
    x = drazin(a, route=route)
    assert tested == [(10, 10), (6, 6)]
    assert all(v <= 1e-10 for v in drazin_residuals(a, x, 2))


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_invertible_drazin_and_group_prove_full_rank_once(route, monkeypatch):
    # the walk's rank of A^1 proves an invertible A of full rank, and the
    # square solve takes A^-1 with no second proof; X is pinv(A) bit for bit
    from quatinv import factor

    a = random_qmat(6, 6, np.random.default_rng(71))
    want = pinv(a, route=route)
    inner = factor._gram_proves_full_rank
    for fn in (drazin, group_inverse):
        tested = []

        def spy(c):
            tested.append(c.shape)
            return inner(c)

        monkeypatch.setattr(factor, "_gram_proves_full_rank", spy)
        x = fn(a, route=route)
        assert tested == [(12, 12)]
        assert np.array_equal(x.q1, want.q1) and np.array_equal(x.q2, want.q2)


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_square_core_solves_for_w_inverse_alone(route, monkeypatch):
    # X = (S W^-1) T: with S or T given, the square solve carries no
    # right-hand side but the identity's, whatever T's width
    rng = np.random.default_rng(64)
    a = random_qmat(7, 5, rng)
    solved = []
    inner = geninv._solve

    def spy(w, b, route):
        solved.append(b)
        return inner(w, b, route)

    monkeypatch.setattr(geninv, "_solve", spy)
    w = rand_rank_deficient(5, 7, 3, rng)
    s1, t1 = random_qmat(5, 4, rng), random_qmat(4, 7, rng)
    d = block_diag_q(random_qmat(3, 3, rng), NILP)
    for run in (lambda: outer_w_right(a, w, route=route),
                lambda: outer_w_left(a, w, route=route),
                lambda: outer_right(a, s1, t1, route=route),
                lambda: pinv_report(a, method="frd", route=route),
                lambda: drazin(d, route=route)):
        solved.clear()
        run()
        assert solved == [None]


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e7, 1e8])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_group_inverse_of_invertible_a_is_solved_at_kappa_eps(kappa, route):
    # Ind(A) = 0, so W = A^0 = I and X = A^-1 from one factorization of A
    n = 6
    for seed in range(3):
        a = graded(n, kappa, np.random.default_rng(seed))
        x = group_inverse(a, route=route)
        inv = np.linalg.inv(crep(a))
        assert rel_gap(crep(x), inv) <= 8 * n * kappa * EPS


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_frd_raises_on_a_singular_gaf(route):
    # A = F G with F = A*, G = I: G A F = A A* squares kappa = 1e10 past
    # the rank cut, so the frd realization finds no inverse
    a = graded(6, 1e10, np.random.default_rng(63))
    rep = pinv_report(a, method="frd", route=route)
    assert not rep.exists and "G*A*F is singular" in rep.reason
    with pytest.raises(InverseExistenceError) as exc:
        pinv(a, method="frd", route=route)
    assert str(exc.value) == rep.reason


FLAGS = ["is_one_inverse", "is_outer", "range_matches", "nullspace_matches",
         "is_12_unique"]


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_every_report_carries_its_keys_in_order(route):
    # one report layout per side, keys in order (the CLI prints the flags
    # in it): the five rank-condition flags, then for both sides each
    # side's space flags and sides_disagree; ranks nu, s, t, w; the two
    # defining residuals, plus the Penrose pair for pinv_report alone.  An
    # inverse that does not exist (a singular G A F, on a rectangular A)
    # reports a zero X of A*'s shape, every flag False, its known residuals,
    # and rank(GAF) and r = rank(W) in its reason
    rng = np.random.default_rng(64)
    a = rand_rank_deficient(6, 4, 3, rng)
    s, t = conj_transpose(a), rand_rank_deficient(4, 6, 2, rng)
    both = FLAGS + ["right_range_matches", "right_nullspace_matches",
                    "left_range_matches", "left_nullspace_matches",
                    "sides_disagree"]
    reports = [
        (outer_right(a, s, t, route=route), "right", FLAGS, False),
        (outer_left(a, t, s, route=route), "left", FLAGS, False),
        (outer_both(a, s, t, route=route), "both", both, False),
        (outer_w_right(a, s, route=route), "right", FLAGS, False),
        (outer_w_left(a, s, route=route), "left", FLAGS, False),
        (pinv_report(a, method="svd", route=route), "right", FLAGS, True),
        (pinv_report(a, method="frd", route=route), "right", FLAGS, True),
    ]
    for rep, side, flags, penrose in reports:
        assert (rep.side, rep.route, rep.exists) == (side, route, True)
        assert list(rep.classification) == flags
        assert list(rep.ranks) == ["nu", "s", "t", "w"]
        assert list(rep.residuals) == ["outer", "one"] + (
            ["p3", "p4"] if penrose else [])
    # W's F spans e1 and its G e2, so G A F is a multiple of A[1, 0] = 0
    a1 = QMatrix.from_real(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    w1 = QMatrix.from_real(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    a2 = graded_rect(8, 5, 5, 1e10, rng)[0]  # GAF squares kappa past the cut
    missing = [(outer_w_left(a1, w1, route=route), a1, 1, "left", {}),
               (pinv_report(a2, method="frd", route=route), a2, 5, "right",
                {"p3": 0.0, "p4": 0.0})]
    for rep, a, r, side, penrose in missing:
        assert (rep.side, rep.exists) == (side, False)
        # the zero X's residuals: XAX - X = 0, AXA - A = -A, AX = XA = 0
        assert rep.residuals == {"outer": 0.0, "one": fro_norm(a), **penrose}
        assert rep.classification == dict.fromkeys(FLAGS, False)
        assert rep.x.shape == (a.ncols, a.nrows) and fro_norm(rep.x) == 0.0
        w = rep.ranks["w"]
        assert rep.ranks["s"] == rep.ranks["t"] == r > w
        assert rep.reason.endswith(f"G*A*F is singular (rank {w} < {r})")


def graded_rect(m, n, r, kappa, rng):
    """(A, A+) for A = U diag(sigma) V* with r orthonormal columns in U
    (m rows) and V (n rows), sigma graded from 1 down to 1/kappa, and
    A+ = V diag(1/sigma) U*."""
    from test_factor import rand_unitary

    u, v = rand_unitary(m, rng), rand_unitary(n, rng)
    u, v = QMatrix(u.q1[:, :r], u.q2[:, :r]), QMatrix(v.q1[:, :r], v.q2[:, :r])
    sig = np.logspace(0, -np.log10(kappa), r)
    return (mat_mul(QMatrix(u.q1 * sig, u.q2 * sig), conj_transpose(v)),
            mat_mul(QMatrix(v.q1 / sig, v.q2 / sig), conj_transpose(u)))


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("shape", [(30, 20, 15), (20, 20, 20), (20, 30, 20)],
                         ids=str)
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_svd_error_grows_with_kappa_times_eps(kappa, shape, route):
    # W = A, so the core factors A itself: the error follows kappa(A), not
    # the kappa(A)^3 of A*AA* (a tall rank-deficient A, a square invertible
    # one and a wide one of full row rank)
    for seed in range(3):
        a, want = graded_rect(*shape, kappa, np.random.default_rng(seed))
        x = pinv(a, "svd", route)
        assert rel_gap(crep(x), crep(want)) <= 2 * kappa * EPS


@pytest.mark.parametrize("case", ["tall", "wide", "square", "singular",
                                  "zero"])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_is_pinv_solve_of_the_identity(case, route):
    # one rule: pinv(A) is the core on W = I A I = A, and pinv_solve(A, I)
    # applies the same square solve or the same compact SVD to B = I
    rng = np.random.default_rng(65)
    a = {"tall": lambda: random_qmat(7, 4, rng),
         "wide": lambda: random_qmat(4, 7, rng),
         "square": lambda: random_qmat(5, 5, rng),
         "singular": lambda: rand_rank_deficient(5, 5, 3, rng),
         "zero": lambda: QMatrix.zeros(4, 3)}[case]()
    x = pinv(a, route=route)
    y = pinv_solve(a, QMatrix.eye(a.nrows), route)
    assert np.array_equal(x.q1, y.q1) and np.array_equal(x.q2, y.q2)


SCALES = [1e110, 1e-110, 1e200, 1e-200, 1e300, 1e-300]


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("method", ["svd", "frd"])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_composed_pinv_is_scale_safe(s, method, route):
    # "svd" works on A itself and "frd" on G A F, which squares A's scale;
    # pinv(sA) = pinv(A) / s all the same.  Only "frd" squares kappa
    rng = np.random.default_rng(64)
    a = random_qmat(4, 3, rng)
    x0 = crep(pinv(a, method, route))
    kappa = np.linalg.cond(crep(a))
    x = crep(pinv(a * s, method, route)) * s
    bound = 8 * kappa if method == "svd" else 4 * kappa ** 3
    assert rel_gap(x, x0) <= bound * EPS
    rep = pinv_report(a * s, method, route)
    assert rep.exists and all(rep.classification.values())
    assert rep.ranks == {"nu": 3, "s": 3, "t": 3, "w": 3}
    assert all(np.isfinite(v) for v in rep.residuals.values())
    assert np.array_equal(crep(rep.x), crep(pinv(a * s, method, route)))


SQUARE_SOLVES = {
    # (scaled result, unscaled result, factor between them)
    "pinv_solve_a": lambda a, b, w, route: (
        pinv_solve(a * 1e-160, b, route=route), pinv_solve(a, b, route=route),
        1e160),
    "pinv_solve_b": lambda a, b, w, route: (
        pinv_solve(a, b * 1e200, route=route), pinv_solve(a, b, route=route),
        1e200),
    "outer_w_right": lambda a, b, w, route: (
        outer_w_right(a * 1e-160, w, route=route).x,
        outer_w_right(a, w, route=route).x, 1e160),
    "group_inverse": lambda a, b, w, route: (
        group_inverse(a * 1e-160, route=route),
        group_inverse(a, route=route), 1e160),
}


@pytest.mark.parametrize("name", sorted(SQUARE_SOLVES))
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_square_solves_are_scale_safe(name, route):
    # each takes the square solve, whose solution here has entries near 1e160
    # or 1e200: their squares overflow, yet the result is the unscaled one
    # rescaled, to rounding, with no floating-point error raised (the
    # largest ratio to kappa eps measured over 30 seeds was 0.23)
    rng = np.random.default_rng(66)
    a, b, w = (random_qmat(5, k, rng) for k in (5, 2, 5))
    with np.errstate(all="raise", under="ignore"):
        got, want, factor = SQUARE_SOLVES[name](a, b, w, route)
    kappa = np.linalg.cond(crep(a)) * np.linalg.cond(crep(w))
    assert rel_gap(crep(got) / factor, crep(want)) <= kappa * EPS


@pytest.mark.parametrize("s", [1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300])
def test_mat_index_is_scale_safe(s):
    rng = np.random.default_rng(65)
    invertible = random_qmat(4, 4, rng)
    nilpotent_block = block_diag_q(random_qmat(2, 2, rng), NILP)
    assert mat_index(invertible * s) == 0
    assert mat_index(nilpotent_block * s) == 2


# ------------------------------------------------ products with no identity


def product_spy(monkeypatch):
    """(product, left operand, right operand) of every route product."""
    calls = []

    def spy(name, inner):
        def product(x, y):
            calls.append((name, x, y))
            return inner(x, y)
        return product

    direct = spy("direct", qcore.mat_mul)
    monkeypatch.setattr(qcore, "mat_mul", direct)
    monkeypatch.setattr(geninv, "mat_mul", direct)
    monkeypatch.setattr(qcore, "crep_mul", spy("crep", qcore.crep_mul))
    return calls


def is_identity(x):
    return (x.nrows == x.ncols and np.array_equal(x.q1, np.eye(x.nrows))
            and not x.q2.any())


def no_identity_operand(calls):
    return not any(is_identity(x) or is_identity(y) for _, x, y in calls)


PINV_CASES = {"tall": ((7, 4), 4), "wide": ((4, 7), 4),
              "singular": ((6, 6), 3), "square": ((5, 5), 5)}


@pytest.mark.parametrize("case", sorted(PINV_CASES))
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_forms_only_the_route_product(case, route, monkeypatch):
    # S = T = I are not multiplied in: a square A of full rank takes the
    # square solve with no product, any other A the one product
    # (V Sigma^-1) U* of its compact SVD, in the route's own arithmetic
    (m, n), r = PINV_CASES[case]
    a = rand_rank_deficient(m, n, r, np.random.default_rng(67))
    calls = product_spy(monkeypatch)
    pinv(a, route=route)
    want = [] if m == n == r else [(route, (n, r), (r, m))]
    assert [(name, x.shape, y.shape) for name, x, y in calls] == want
    calls.clear()
    rep = pinv_report(a, route=route)
    assert rep.exists and calls and no_identity_operand(calls)


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_drazin_of_an_invertible_a_builds_no_identity(route, monkeypatch):
    # W = A^0 = I is never built: the square solve takes A^-1 with the
    # identity written straight into it, so no QMatrix.eye is built
    a = random_qmat(5, 5, np.random.default_rng(69))
    want = pinv(a, route=route)
    built = []
    eye = QMatrix.eye
    monkeypatch.setattr(QMatrix, "eye",
                        classmethod(lambda cls, n: built.append(n) or eye(n)))
    for x in (drazin(a, route=route), group_inverse(a, route=route)):
        assert np.array_equal(x.q1, want.q1) and np.array_equal(x.q2, want.q2)
    assert geninv._spectral(a, route)[:2] == (0, None)
    assert built == []


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_index_walk_multiplies_no_identity(route, monkeypatch):
    # the walk starts from A^1 = A scaled, not from I A
    rng = np.random.default_rng(68)
    calls = product_spy(monkeypatch)
    assert mat_index(random_qmat(4, 4, rng)) == 0
    assert calls == []
    index_two = block_diag_q(random_qmat(3, 3, rng), NILP)
    index_one = rand_rank_deficient(5, 5, 3, rng)
    assert mat_index(index_two) == 2 and mat_index(index_one) == 1
    drazin(index_two, route=route)
    group_inverse(index_one, route=route)
    assert calls and no_identity_operand(calls)


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_w_inverses_multiply_no_identity(route, monkeypatch):
    # the factor G of W is I when W has full column rank, and is not
    # multiplied in.  An invertible A prescribes W = A^0 = I, which is never
    # factored, so its Drazin and group inverses are one solve with A,
    # with no product and no factorization of I; pinv by "frd" of a wide A
    # of full row rank factors W = A* with G = I
    rng = np.random.default_rng(70)
    a, wide = random_qmat(5, 5, rng), random_qmat(4, 7, rng)
    inv, want = np.linalg.inv(crep(a)), crep(pinv(wide))
    calls = product_spy(monkeypatch)
    factored = []

    def frd_spy(w, route="direct"):
        factored.append(w)
        return full_rank_decompose(w, route=route)
    monkeypatch.setattr(geninv, "full_rank_decompose", frd_spy)
    for fn in (drazin, group_inverse):
        x = fn(a, route=route)
        assert calls == [] and factored == []
        assert rel_gap(crep(x), inv) <= 100 * np.linalg.cond(crep(a)) * EPS
    x = pinv(wide, method="frd", route=route)
    assert calls and no_identity_operand(calls)
    assert len(factored) == 1
    assert rel_gap(crep(x), want) <= 1e-12


@pytest.mark.parametrize("shape", [(9, 5), (5, 9)], ids=str)
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_defining_residuals_match_a_crep_oracle(shape, route):
    # XAX and AXA both come from the smaller of AX and XA.  Two evaluations
    # of a residual differ by the rounding of their products, within
    # max(m, n) eps ||A|| ||X|| times ||A|| (AXA) or ||X|| (XAX); the
    # largest gap measured over 30 seeds was 0.005 of that.  W has rank 3,
    # so outer_w_right's X is no {1}-inverse and its "one" residual is O(1)
    m, n = shape
    rng = np.random.default_rng(69)
    a = random_qmat(m, n, rng)
    w = rand_rank_deficient(n, m, 3, rng)
    for rep in (pinv_report(a, route=route), outer_w_right(a, w, route)):
        ac, xc = crep(a), crep(rep.x)
        # ||M^C||_F = sqrt(2) ||M||_F
        one = np.linalg.norm(ac @ xc @ ac - ac) / np.sqrt(2)
        outer = np.linalg.norm(xc @ ac @ xc - xc) / np.sqrt(2)
        scale = max(m, n) * EPS * fro_norm(a) * fro_norm(rep.x)
        assert abs(rep.residuals["one"] - one) <= scale * fro_norm(a)
        assert abs(rep.residuals["outer"] - outer) <= scale * fro_norm(rep.x)


# ------------------------------------------- refusals no other test reaches


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("build", [pinv, pinv_report])
def test_unknown_pinv_method_is_refused(build, route):
    with pytest.raises(ValueError, match="unknown pinv method 'qr'"):
        build(QMatrix.eye(3), method="qr", route=route)


@pytest.mark.parametrize("route", ["direct", "crep"])
@pytest.mark.parametrize("build", [outer_w_right, outer_w_left])
def test_w_of_the_wrong_shape_is_refused(build, route):
    a = QMatrix.zeros(4, 3)
    with pytest.raises(ValueError,
                       match=r"W has shape \(4, 3\), expected \(3, 4\)"):
        build(a, QMatrix.zeros(4, 3), route=route)
