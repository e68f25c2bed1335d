"""Quaternion FIR filtering of a delayed, noise-corrupted Lorenz signal.

The three Lorenz components ride the imaginary units: the clean target is
d(t) = x(t)*i + y(t)*j + z(t)*k and the observed input is the unit-time
delayed c(t) = d(t-1) + n(t) with purely imaginary Gaussian noise.  Filter
coefficients come from the pseudoinverse solution of the square Toeplitz
system C f = d by ``pinv_solve``: one square solve when C has full rank
(then pinv(C) = C^-1; the Householder QR of [C | d] on direct, LAPACK's LU
of C^C on crep), the compact SVD of C when it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..qcore import QMatrix, fro_norm, mat_mul
from ..geninv import pinv_solve

__all__ = [
    "FilterSystem",
    "lorenz_simulate",
    "default_order",
    "build_filter_system",
    "write_trajectory_csv",
    "write_filter_csv",
]


@dataclass(frozen=True)
class FilterSystem:
    c: QMatrix   # (n+1) x (n+1) Toeplitz data matrix, delayed noisy samples
    d: QMatrix   # (n+1) x 1 clean target
    f: QMatrix   # (n+1) x 1 pseudoinverse filter coefficients
    e: float     # ||C f - d||_F / ||d||_F
    t_start: int  # trajectory index of the first target sample


def lorenz_simulate(T: float, dt: float, alpha: float = 10.0,
                    beta: float = 8.0 / 3.0, rho: float = 28.0,
                    start=(1.0, 1.0, 1.0)) -> np.ndarray:
    """Fixed-step RK4 trajectory with N = floor(T/dt) + 1 samples.

    Raises ``ValueError`` for a T or dt that is not positive and finite, for
    a NaN or infinite alpha, beta or rho, and for a step too large for RK4
    to stay finite.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"step must be positive and finite, got dt={dt}")
    if not 0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got T={T}")
    for name, value in (("alpha", alpha), ("beta", beta), ("rho", rho)):
        if not math.isfinite(value):
            raise ValueError(
                f"model parameter must be finite, got {name}={value}")

    def deriv(x, y, z):
        return alpha * (y - x), x * (rho - z) - y, x * y - beta * z

    # RK4 on Python floats: the same IEEE operations in the same order as on
    # three-element arrays, without an array per stage
    half, sixth = 0.5 * dt, dt / 6.0
    x, y, z = (float(c) for c in start)
    rows = [(x, y, z)]
    for _ in range(math.floor(T / dt)):
        a1, b1, c1 = deriv(x, y, z)
        a2, b2, c2 = deriv(x + half * a1, y + half * b1, z + half * c1)
        a3, b3, c3 = deriv(x + half * a2, y + half * b2, z + half * c2)
        a4, b4, c4 = deriv(x + dt * a3, y + dt * b3, z + dt * c3)
        x = x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y = y + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        z = z + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        rows.append((x, y, z))
    traj = np.array(rows)
    if not np.isfinite(traj).all():
        raise ValueError(f"RK4 diverged at dt={dt}: take a smaller step")
    return traj


def default_order(n_samples: int, delay_samples: int) -> int:
    """Largest filter order whose system indices fit the trajectory."""
    n = (n_samples - 1 - delay_samples) // 2
    if n < 0:
        raise ValueError(
            f"trajectory too short: {n_samples} samples cannot cover a "
            f"{delay_samples}-sample delay")
    return n


def _imag_rows(samples: np.ndarray) -> QMatrix:
    """Stack (k, 3) real rows as a k x 1 purely imaginary quaternion column."""
    r, g, b = samples[:, 0], samples[:, 1], samples[:, 2]
    return QMatrix((1j * r)[:, None], (g + 1j * b)[:, None])


def build_filter_system(traj: np.ndarray, dt: float, delay_samples: int,
                        noise_sigma: float, order: int, seed=None,
                        route: str = "crep") -> FilterSystem:
    """Assemble C f = d at anchor index t0 = delay_samples + order and solve.

    C[u, v] = c(t0 + u - v) and d[u] = d(t0 + u) for u, v in 0..order, so the
    trajectory must hold at least delay_samples + 2*order + 1 samples.  Noise
    is drawn once per time index (the same corrupted sample reappears along
    each Toeplitz diagonal), i.i.d. Gaussian per imaginary component, of
    standard deviation noise_sigma, which must be finite and >= 0.
    """
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(
            f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    traj = np.asarray(traj, dtype=float)
    n = int(order)
    delay = int(delay_samples)
    if n < 0 or delay < 0:
        raise ValueError(f"order and delay must be >= 0, got {n}, {delay}")
    need = delay + 2 * n + 1
    if traj.shape[0] < need:
        raise ValueError(
            f"trajectory too short: need {need} samples for delay {delay} "
            f"and order {n}, have {traj.shape[0]}")
    t0 = delay + n

    # observed input over indices delay .. delay+2n (contiguous block)
    rng = np.random.default_rng(seed)
    clean = traj[0:2 * n + 1]
    c_samples = clean + rng.normal(0.0, noise_sigma, size=(2 * n + 1, 3))

    idx = n + np.arange(n + 1)[:, None] - np.arange(n + 1)[None, :]
    cr, cg, cb = c_samples[:, 0], c_samples[:, 1], c_samples[:, 2]
    c_mat = QMatrix(1j * cr[idx], cg[idx] + 1j * cb[idx])
    d_vec = _imag_rows(traj[t0:t0 + n + 1])

    # the data matrix can be very ill conditioned (chaotic samples on sliding
    # windows); solve with C itself (its QR or LU at full rank, else its
    # SVD), not through a composed inverse
    f = pinv_solve(c_mat, d_vec, route=route)
    resid = mat_mul(c_mat, f) - d_vec
    d_norm = fro_norm(d_vec)
    if d_norm == 0.0:
        raise ValueError("target signal is identically zero")
    return FilterSystem(c_mat, d_vec, f, fro_norm(resid) / d_norm, t0)


def write_trajectory_csv(path, traj: np.ndarray, dt: float) -> None:
    """The trajectory as CSV: header ``t,x,y,z``, then one row per sample,
    sample i at time i dt."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,x,y,z\n")
        for i, (x, y, z) in enumerate(np.asarray(traj, dtype=float)):
            fh.write(f"{i * dt:.17g},{x:.17g},{y:.17g},{z:.17g}\n")


def write_filter_csv(path, fs: FilterSystem, dt: float) -> None:
    """Target vs filtered estimate, one row per system equation."""
    d_hat = mat_mul(fs.c, fs.f)
    dr, dg, db = fs.d.q1.imag[:, 0], fs.d.q2.real[:, 0], fs.d.q2.imag[:, 0]
    hr, hg, hb = d_hat.q1.imag[:, 0], d_hat.q2.real[:, 0], d_hat.q2.imag[:, 0]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,dr,dg,db,dhat_r,dhat_g,dhat_b\n")
        for u in range(fs.d.shape[0]):
            t = (fs.t_start + u) * dt
            fh.write(f"{t:.17g},{dr[u]:.17g},{dg[u]:.17g},{db[u]:.17g},"
                     f"{hr[u]:.17g},{hg[u]:.17g},{hb[u]:.17g}\n")
