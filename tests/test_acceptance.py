"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
the measured quantity (visible under ``pytest -s`` and in failure reports),
and enforces the stated tolerance and, where given, the runtime bound.
"""

import time

import numpy as np
import pytest

from quatinv.qcore import (
    QMatrix,
    conj_transpose,
    fro_norm,
    from_crep,
    mat_mul,
    random_qmat,
    symmetrize_crep,
    symplectic_residual,
    to_crep,
)
from quatinv.factor import full_rank_decompose, rank
from quatinv.geninv import (
    InverseExistenceError,
    drazin,
    group_inverse,
    mat_index,
    outer_right,
    outer_w_left,
    outer_w_right,
    penrose_residuals,
    pinv,
    pinv_report,
)
from quatinv.apps import (
    ColorImage,
    blur,
    build_blur,
    build_filter_system,
    deblur_quaternion,
    default_order,
    lorenz_simulate,
    metrics,
    real_block_restore,
)


def check(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def rel(x, y):
    return fro_norm(x - y) / max(fro_norm(y), 1e-300)


def low_rank(m, n, r, rng):
    return mat_mul(random_qmat(m, r, rng), random_qmat(r, n, rng))


def test_criterion_1_complex_representation_properties():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    n_mats = 0
    while n_mats < 200:
        m, k, n = rng.integers(1, 9, size=3)
        full = rng.random() < 0.7
        a = random_qmat(m, k, rng) if full else low_rank(m, k, min(m, k), rng)
        b = random_qmat(k, n, rng)
        n_mats += 2
        ca, cb = to_crep(a), to_crep(b)

        # multiplicativity, additivity, adjoint compatibility
        prod = mat_mul(a, b)
        worst = max(worst, np.linalg.norm(to_crep(prod) - ca @ cb)
                    / max(np.linalg.norm(ca @ cb), 1e-300))
        if a.shape == b.shape:
            worst = max(worst, np.linalg.norm(to_crep(a + b) - (ca + cb))
                        / max(np.linalg.norm(ca + cb), 1e-300))
        worst = max(worst,
                    np.linalg.norm(to_crep(conj_transpose(a)) - ca.conj().T)
                    / max(np.linalg.norm(ca), 1e-300))

        # symplectic structure of every representation produced
        worst = max(worst, symplectic_residual(to_crep(prod))
                    / max(np.linalg.norm(to_crep(prod)), 1e-300))

        # norm relation ||Q||_F^2 = 0.5 ||Q^C||_F^2
        worst = max(worst, abs(fro_norm(a) ** 2 - 0.5 * np.linalg.norm(ca) ** 2)
                    / fro_norm(a) ** 2)

        # rank relation, exact
        assert rank(a) * 2 == np.linalg.matrix_rank(ca)

        # low-rank construction exercised too
        c = low_rank(m, n, int(rng.integers(1, min(m, n) + 1)), rng)
        assert rank(c) * 2 == np.linalg.matrix_rank(to_crep(c))

    elapsed = time.perf_counter() - t0
    check("criterion 1 (complex-representation properties)",
          worst <= 1e-12 and elapsed < 5.0,
          f"worst relative deviation {worst:.3e} over {n_mats} matrices, "
          f"rank relation exact, {elapsed:.2f}s")


def test_criterion_2_pinv_residuals_all_realizations():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_all = 0.0
    worst_svd = 0.0
    for k in (5, 10, 20):
        a = random_qmat(3 * k, 2 * k, rng)
        for method in ("svd", "frd"):
            for route in ("direct", "crep"):
                x = pinv(a, method=method, route=route)
                res = penrose_residuals(a, x)
                hi = max(res.values())
                worst_all = max(worst_all, hi)
                if method == "svd":
                    worst_svd = max(worst_svd, hi)
    elapsed = time.perf_counter() - t0
    check("criterion 2 (four pseudoinverse realizations)",
          worst_all <= 1e-8 and worst_svd <= 1e-10 and elapsed < 30.0,
          f"max residual {worst_all:.3e} (SVD routes {worst_svd:.3e}), "
          f"{elapsed:.2f}s")


def test_criterion_3_outer_inverse_uniqueness():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        m, n = 6, 4
        s = int(rng.integers(1, 4))
        a = random_qmat(m, n, rng)
        # rectangular S1, T1 of rank s < p, q so the rank-s small matrix
        # T1 A S1 has many {1}-inverses, each picked by a free matrix z of
        # its conjugate transpose's shape
        s1 = low_rank(n, s + 1, s, rng)
        t1 = low_rank(s + 2, m, s, rng)
        reps = [outer_right(a, s1, t1, z=random_qmat(s + 1, s + 2, rng))
                for _ in range(2)]
        # rank conditions: rank(T1 A S1) = rank(S1) = rank(T1)
        assert all(r.classification["range_matches"]
                   and r.classification["nullspace_matches"] for r in reps)
        worst = max(worst, rel(reps[0].x, reps[1].x))
    check("criterion 3 (uniqueness under rank conditions)",
          worst <= 1e-10,
          f"max pairwise relative difference {worst:.3e} over 20 trials")


def test_criterion_4_route_and_formula_consistency():
    rng = np.random.default_rng(404)
    worst_route = 0.0
    for _ in range(50):
        m, n = 7, 5
        s = int(rng.integers(1, 5))
        a = random_qmat(m, n, rng)
        s1, t1 = random_qmat(n, s, rng), random_qmat(s, m, rng)
        xd = outer_right(a, s1, t1, route="direct").x
        xc = outer_right(a, s1, t1, route="crep").x
        worst_route = max(worst_route, rel(xd, xc))

    worst_form = 0.0
    for _ in range(50):
        m, n = 7, 5
        r = int(rng.integers(1, 5))
        a = random_qmat(m, n, rng)
        w = low_rank(n, m, r, rng)
        rep_w = outer_w_right(a, w)
        assert rep_w.exists
        fact = full_rank_decompose(w)
        rep_u = outer_right(a, fact.f, fact.g)
        worst_form = max(worst_form, rel(rep_w.x, rep_u.x))

    check("criterion 4 (route and formula consistency)",
          worst_route <= 1e-10 and worst_form <= 1e-10,
          f"direct-vs-crep {worst_route:.3e}, "
          f"factored-vs-generator-pair {worst_form:.3e}, 50 trials each")


def _block_example(d, nil, rng):
    """diag(C, N) with C invertible d x d and N nilpotent per ``nil``."""
    if nil[0] == "none":
        c = random_qmat(d, d, rng)
        return c, 0, d
    s = nil[1]
    n_dim = d + s
    q1 = np.zeros((n_dim, n_dim), complex)
    q2 = np.zeros((n_dim, n_dim), complex)
    c = random_qmat(d, d, rng)
    q1[:d, :d], q2[:d, :d] = c.q1, c.q2
    if nil[0] == "shift":
        for i in range(s - 1):
            q1[d + i, d + i + 1] = 1.0
        index = s
    else:  # zero block
        index = 1
    return QMatrix(q1, q2), index, n_dim


def _true_inverse(a):
    return from_crep(symmetrize_crep(np.linalg.inv(to_crep(a))))


def test_criterion_5_drazin_and_group():
    rng = np.random.default_rng(505)
    kinds = [("none",), ("zero", 2), ("shift", 2), ("shift", 3), ("shift", 4)]
    worst_res = 0.0
    worst_inv = 0.0
    for trial in range(20):
        d = int(rng.integers(1, 5))
        nil = kinds[trial % len(kinds)]
        a, want_index, n_dim = _block_example(d, nil, rng)
        k = mat_index(a)
        assert k == want_index, (nil, k, want_index)

        x = drazin(a)
        ax, xa = mat_mul(a, x), mat_mul(x, a)
        pow_k = QMatrix.eye(n_dim)
        for _ in range(k):
            pow_k = mat_mul(pow_k, a)
        na, nx = fro_norm(a), fro_norm(x)
        worst_res = max(
            worst_res,
            fro_norm(mat_mul(xa, x) - x) / nx,
            fro_norm(ax - xa) / (na * nx),
            fro_norm(mat_mul(a, mat_mul(pow_k, x)) - pow_k) / fro_norm(pow_k))

        if k <= 1:
            g = group_inverse(a)
            ag, ga = mat_mul(a, g), mat_mul(g, a)
            worst_res = max(
                worst_res,
                fro_norm(mat_mul(ga, g) - g) / fro_norm(g),
                fro_norm(mat_mul(ag, a) - a) / na,
                fro_norm(ag - ga) / (na * fro_norm(g)))
        else:
            with pytest.raises(InverseExistenceError):
                group_inverse(a)

        if k == 0:
            worst_inv = max(worst_inv, rel(x, _true_inverse(a)),
                            rel(group_inverse(a), _true_inverse(a)))

    check("criterion 5 (spectral inverses on block examples)",
          worst_res <= 1e-9 and worst_inv <= 1e-12,
          f"index exact on 20 examples, max scaled residual {worst_res:.3e}, "
          f"invertible-case deviation {worst_inv:.3e}")


def test_criterion_6_deblur_desk_scale():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    img = ColorImage(*rng.uniform(0.05, 0.95, size=(3, 64, 64)))
    op = build_blur(8, 8, 3.0, 3, 3)
    b = blur(op, img)
    restored, m_q = deblur_quaternion(op, b, truth=img)
    real_img = real_block_restore(op, b)
    m_r = metrics(img, real_img)
    dev_q = float(np.max(np.abs(m_q.corr_restored - m_q.corr_orig)))
    dev_r = float(np.max(np.abs(m_r.corr_restored - m_r.corr_orig)))
    elapsed = time.perf_counter() - t0
    check("criterion 6 (image restoration desk scale)",
          m_q.rr <= 1e-6 and m_q.psnr >= 40.0 and dev_q <= dev_r
          and elapsed < 60.0,
          f"RR {m_q.rr:.3e}, PSNR {m_q.psnr:.1f} dB, correlation deviation "
          f"{dev_q:.3e} (quaternion) vs {dev_r:.3e} (real block), "
          f"{elapsed:.1f}s")


def test_criterion_7_lorenz_filter():
    traj = lorenz_simulate(10.0, 0.05)
    delay = round(1.0 / 0.05)
    order = default_order(traj.shape[0], delay)
    fs = build_filter_system(traj, 0.05, delay, 0.01, order, seed=0)
    ok_desk = fs.e <= 1e-6

    # order-4 integrator: halving the step divides the endpoint error by ~16
    # (short horizon — chaotic error growth skews the ratio on long ones)
    ref = lorenz_simulate(0.5, 0.0005)
    err = {dt: np.linalg.norm(lorenz_simulate(0.5, dt)[-1] - ref[-1])
           for dt in (0.01, 0.005)}
    ratio = err[0.01] / err[0.005]
    ok_ratio = 12.0 <= ratio <= 20.0

    check("criterion 7 (chaotic-signal filter desk scale)",
          ok_desk and ok_ratio,
          f"relative error {fs.e:.3e} (C is {order + 1}x{order + 1}), "
          f"step-halving ratio {ratio:.2f}")

    t0 = time.perf_counter()
    big = lorenz_simulate(50.0, 0.06)
    big_delay = round(1.0 / 0.06)
    big_order = default_order(big.shape[0], big_delay)
    fs_big = build_filter_system(big, 0.06, big_delay, 0.01, big_order,
                                 seed=0)
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        pytest.skip(f"anchor run took {elapsed:.0f}s (>= 300s); "
                    "qualitative check skipped")
    check("criterion 7 anchor (long filter run)",
          fs_big.e <= 1e-6,
          f"relative error {fs_big.e:.3e} "
          f"(C is {big_order + 1}x{big_order + 1}), {elapsed:.1f}s")


SWEEP_OPS = ("outer_right", "outer_w_left", "pinv_svd", "pinv_frd")


def sweep_op(op, route, k, rng):
    """Gated residuals of one constructor call on A (3k x 2k) from rng.

    The outer inverses are gated on ||XAX - X||: outer_right's S has rank
    k < rank(A), so its X is no {1}-inverse.  pinv is gated on all four
    Penrose residuals.
    """
    a = random_qmat(3 * k, 2 * k, rng)
    if op == "outer_right":
        s1 = random_qmat(2 * k, k, rng)
        t1 = random_qmat(k, 3 * k, rng)
        rep = outer_right(a, s1, t1, route=route)
    elif op == "outer_w_left":
        rep = outer_w_left(a, random_qmat(2 * k, 3 * k, rng), route=route)
    else:
        return pinv_report(a, method=op.split("_")[1], route=route).residuals
    return {"outer": rep.residuals["outer"]}


def sweep_residuals(k, trials=3):
    """Residuals keyed (op, route, trial, name); both routes see one input."""
    res = {}
    for op in SWEEP_OPS:
        for route in ("direct", "crep"):
            for trial in range(trials):
                rng = np.random.default_rng([0, k, trial])
                for name, v in sweep_op(op, route, k, rng).items():
                    res[(op, route, trial, name)] = v
    return res


def test_criterion_8_benchmark_harness():
    t0 = time.perf_counter()
    sweeps = {k: sweep_residuals(k) for k in (2, 3, 5, 10, 20)}
    elapsed = time.perf_counter() - t0
    worst = np.max([v for res in sweeps.values() for v in res.values()])
    parity = np.max([abs(v - res[(op, "crep", trial, name)])
                     for res in sweeps.values()
                     for (op, route, trial, name), v in res.items()
                     if route == "direct"])
    repeatable = sweep_residuals(3) == sweeps[3]
    check("criterion 8 (route-parity sweep)",
          worst <= 1e-8 and parity <= 1e-10 and repeatable,
          f"{sum(map(len, sweeps.values()))} residuals, worst {worst:.3e}, "
          f"route parity {parity:.3e}, k=3 repeat identical: {repeatable}, "
          f"{elapsed:.1f}s")
