"""The four workloads: seeded inputs, the timed operation and its checks.

All inputs are drawn here with numpy from the run's seed; the library only
receives the generated arrays.  Checks recompute residuals on the 2m-by-2n
complex representation with plain numpy, so a defect in the library's own
products cannot vouch for itself.  Library functions are looked up through
their modules at call time, so the tracer's wrappers see every call.

Every bound is either one of the repository's test gates or a multiple of
the constructed input's conditioning; README.md lists them with reasons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import quatinv.apps as apps
import quatinv.apps.deblur as deblur_mod
import quatinv.geninv as geninv
from quatinv.apps import ColorImage
from quatinv.qcore import QMatrix

EPS = float(np.finfo(float).eps)
ROUTES = ("direct", "crep")

# test gates reused as bounds (tests/test_acceptance.py, criteria 6 and 7)
DEBLUR_RR_GATE = 1e-6
DEBLUR_PSNR_GATE = 40.0
LORENZ_E_GATE = 1e-6
DRAZIN_INDEX = 3


@dataclass
class Verdict:
    """Outcome of one op's checks.

    error    -- relative defining error of the op (feeds accuracy_digits)
    refusals -- the library itself reported that the inverse does not exist
    problems -- outputs returned as valid that fail a check
    """

    error: float
    refusals: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.refusals or self.problems)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict      # parameter sets: "full" for runs, "tiny" for the smoke test
    pool: int        # distinct inputs per run, visited round robin
    make: Callable   # (rng, params) -> input dict
    run: Callable    # (input, route) -> output; the timed op
    check: Callable  # (input, output) -> Verdict
    parity: Callable  # (input, out_direct, out_crep) -> (relative gap, problems)


# ------------------------------------------------------------ numpy helpers


def _uniform(rng, m, n):
    """(Q1, Q2) with all four real components uniform on [0, 1)."""
    w, x, y, z = (rng.random((m, n)) for _ in range(4))
    return w + 1j * x, y + 1j * z


def _pair_mul(a, b):
    (a1, a2), (b1, b2) = a, b
    return a1 @ b1 - a2 @ np.conj(b2), a1 @ b2 + a2 @ np.conj(b1)


def _crep(x):
    """Complex representation of a QMatrix or a (Q1, Q2) pair."""
    q1, q2 = (x.q1, x.q2) if isinstance(x, QMatrix) else x
    return np.block([[q1, q2], [-np.conj(q2), np.conj(q1)]])


def _gaussian(rng, m, n):
    """(Q1, Q2) with all four real components standard normal."""
    w, x, y, z = (rng.standard_normal((m, n)) for _ in range(4))
    return w + 1j * x, y + 1j * z


def _orthonormal(rng, m, k):
    """(Q1, Q2) of an m-by-k quaternion matrix with orthonormal columns.

    The polar factor U V^H of a complex representation is itself a complex
    representation, so its first block row is the quaternion polar factor.
    """
    u, _, vh = np.linalg.svd(_crep(_gaussian(rng, m, k)), full_matrices=False)
    q = u @ vh
    return q[:m, :k], q[:m, k:]


def _randsvd(rng, m, n, r):
    """(Q1, Q2) of U diag(sigma) V* with rank r and sigma uniform on [1, 2]."""
    u1, u2 = _orthonormal(rng, m, r)
    v1, v2 = _orthonormal(rng, n, r)
    sigma = rng.uniform(1.0, 2.0, size=r)
    return _pair_mul((u1 * sigma, u2 * sigma), (v1.conj().T, -v2.T))


def _svals(x):
    """Quaternion singular values: every one appears twice in the crep."""
    return np.linalg.svd(_crep(x), compute_uv=False)[0::2]


def _qrank(x):
    s = _svals(x)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(x.shape) * EPS * s[0]))


def _kappa(x, r):
    """sigma_1 / sigma_r of x."""
    s = _svals(x)
    return float(s[0] / s[r - 1])


def _outer_cond(a, w, r):
    """kappa(W)^2 ||A|| ||X|| for the outer inverse X with W's spaces.

    ||A|| ||X|| is the condition number of X.  For W = U Sigma V* of rank r,
    X = U (V* A U)^-1 V*, so ||X|| = 1 / sigma_min(V* A U): it depends on
    the angle between W's spaces and A, which kappa(A) does not see.
    kappa(W)^2 covers the factors of W the library builds instead of U, V.
    """
    u, s, vh = np.linalg.svd(_crep(w))
    ac = _crep(a)
    small = vh[:2 * r] @ ac @ u[:, :2 * r]
    s_min = np.linalg.svd(small, compute_uv=False)[-1]
    return float((s[0] / s[2 * r - 1]) ** 2 * np.linalg.norm(ac, 2) / s_min)


def _ratio(num, den):
    return float(np.linalg.norm(num)) / float(np.linalg.norm(den))


def _rel(x, y):
    """||X - Y||_F / ||Y||_F for quaternion matrices."""
    return _ratio(_crep((x.q1 - y.q1, x.q2 - y.q2)), _crep(y))


def _finite(*mats):
    return all(np.isfinite(m.q1).all() and np.isfinite(m.q2).all()
               for m in mats)


def _over(name, value, bound):
    # `not <=` so that NaN fails too
    return [] if value <= bound else [f"{name} {value:.3e} > {bound:.3e}"]


# ------------------------------------------------------------------- pinv


def _make_pinv(rng, p):
    m, n, r = p["m"], p["n"], p["r"]
    a = QMatrix(*_pair_mul(_uniform(rng, m, r), _uniform(rng, r, n)))
    # the composed formula inverts A*AA*, whose condition number is kappa^3
    tol = max(m, n) * _kappa(a, r) ** 3 * EPS
    return {"a": a, "rank": r, "tol": tol}


def _run_pinv(inp, route):
    return geninv.pinv_report(inp["a"], method="svd", route=route)


def _check_pinv(inp, rep):
    x = rep.x
    if not _finite(x):
        return Verdict(math.inf, problems=["non-finite entries in X"])
    a, xc = _crep(inp["a"]), _crep(x)
    ax, xa = a @ xc, xc @ a
    res = {"one": _ratio(ax @ a - a, a),
           "outer": _ratio(xa @ xc - xc, xc),
           "p3": _ratio(ax.conj().T - ax, ax),
           "p4": _ratio(xa.conj().T - xa, xa)}
    problems = []
    for name, value in res.items():
        problems += _over(f"relative Penrose residual {name}", value,
                          inp["tol"])
    if rep.ranks.get("nu") != inp["rank"]:
        problems.append(
            f"rank(A) = {rep.ranks.get('nu')}, constructed {inp['rank']}")
    return Verdict(max(res.values()), problems=problems)


def _parity_pinv(inp, d, c):
    gap = _rel(d.x, c.x)
    return gap, _over("route gap", gap, inp["tol"])


# ------------------------------------------------------------- prescribed


def _make_prescribed(rng, p):
    m, n, wr = p["m"], p["n"], p["w_rank"]
    a = QMatrix(*_uniform(rng, m, n))
    # W, B and P have singular values in [1, 2]; see README.md for why
    # products of uniform factors are not used here
    w1 = QMatrix(*_randsvd(rng, n, m, wr))
    w2 = QMatrix(*_randsvd(rng, n, m, wr))
    # D = P diag(B, N) P^-1 with B invertible and N made of 3x3 shift blocks,
    # so Ind(D) = 3 and rank(D^3) = size of B
    nb, blocks = p["d_core"], p["nil_blocks"]
    dn = nb + 3 * blocks
    core1 = np.zeros((dn, dn), dtype=complex)
    core2 = np.zeros((dn, dn), dtype=complex)
    core1[:nb, :nb], core2[:nb, :nb] = _randsvd(rng, nb, nb, nb)
    for blk in range(blocks):
        o = nb + 3 * blk
        core1[o, o + 1] = core1[o + 1, o + 2] = 1.0
    pmat = _randsvd(rng, dn, dn, dn)
    # P^-1 through the complex representation: its first block row
    pinv_c = np.linalg.inv(_crep(pmat))
    d = QMatrix(*_pair_mul(_pair_mul(pmat, (core1, core2)),
                           (pinv_c[:dn, :dn], pinv_c[:dn, dn:])))
    d_c = _crep(d)
    tol_w = max(m, n) * EPS * max(_outer_cond(a, w, wr) for w in (w1, w2))
    return {"a": a, "w1": w1, "w2": w2, "d": d, "d_c": d_c,
            "d_pow": np.linalg.matrix_power(d_c, DRAZIN_INDEX),
            "nu": min(m, n), "w_rank": wr, "core": nb, "tol_w": tol_w,
            "index": None}


def _run_prescribed(inp, route):
    return (geninv.outer_w_right(inp["a"], inp["w1"], route=route),
            geninv.outer_w_left(inp["a"], inp["w2"], route=route),
            geninv.drazin(inp["d"], route=route))


def _check_prescribed(inp, out):
    verdict = Verdict(0.0)
    wr = inp["w_rank"]
    want = {"nu": inp["nu"], "s": wr, "t": wr, "w": wr}
    a = _crep(inp["a"])
    for label, rep in zip(("outer_w_right", "outer_w_left"), out[:2]):
        if not rep.exists:
            verdict.refusals.append(f"{label}: {rep.reason} "
                                    f"(ranks {rep.ranks}, constructed {want})")
            continue
        if rep.ranks != want:
            verdict.problems.append(
                f"{label}: ranks {rep.ranks}, constructed {want}")
        cls = rep.classification
        if not (cls.get("range_matches") and cls.get("nullspace_matches")):
            verdict.problems.append(f"{label}: classification {cls}")
        if not _finite(rep.x):
            verdict.problems.append(f"{label}: non-finite entries in X")
            continue
        xc = _crep(rep.x)
        err = _ratio(xc @ a @ xc - xc, xc)
        verdict.problems += _over(f"{label}: relative outer residual", err,
                                  inp["tol_w"])
        verdict.error = max(verdict.error, err)

    x = out[2]
    if not _finite(x):
        verdict.problems.append("drazin: non-finite entries in X")
        verdict.error = math.inf
        return verdict
    if inp["index"] is None:  # a property of D alone: computed once
        inp["index"] = geninv.mat_index(inp["d"])
    if inp["index"] != DRAZIN_INDEX:
        verdict.problems.append(
            f"mat_index(D) = {inp['index']}, constructed {DRAZIN_INDEX}")
    rank_x = _qrank(x)
    if rank_x != inp["core"]:
        verdict.problems.append(
            f"drazin: rank(X) = {rank_x}, constructed {inp['core']}")
    # Drazin accuracy is reported, not gated: no conditioning bound holds it
    d, dk, xc = inp["d_c"], inp["d_pow"], _crep(x)
    verdict.error = max(
        verdict.error,
        _ratio(xc @ d @ xc - xc, xc),
        _ratio(d @ xc - xc @ d, d) / float(np.linalg.norm(xc)),
        _ratio(dk @ d @ xc - dk, dk))
    return verdict


def _parity_prescribed(inp, d, c):
    gap_w = max(_rel(d[0].x, c[0].x), _rel(d[1].x, c[1].x))
    # Drazin's route gap, like its accuracy, is reported but not gated
    gap = max(gap_w, _rel(d[2], c[2]))
    return gap, _over("W-inverse route gap", gap_w, inp["tol_w"])


# ----------------------------------------------------------------- deblur


def _make_deblur(rng, p):
    """Smooth gradients plus shared rectangular edges, scaled into [0.05, 0.95]."""
    h, w = p["p"] * p["q"], p["width"]
    yy, xx = np.mgrid[0:h, 0:w]
    yy, xx = yy / h, xx / w
    planes = []
    for _ in range(3):
        fy, fx = rng.uniform(0.5, 3.0, size=2)
        py, px = rng.uniform(0.0, 2.0 * math.pi, size=2)
        planes.append(np.sin(2 * math.pi * fy * yy + py)
                      * np.cos(2 * math.pi * fx * xx + px)
                      + rng.uniform(-0.5, 0.5) * xx)
    planes = np.array(planes)
    for _ in range(4):
        r0, c0 = rng.integers(0, h), rng.integers(0, w)
        hh, ww = rng.integers(h // 8 + 1, h // 2 + 2, size=2)
        planes[:, r0:r0 + hh, c0:c0 + ww] += rng.uniform(-0.6, 0.6, size=(3, 1, 1))
    lo, hi = planes.min(), planes.max()
    img = ColorImage(*(0.05 + 0.9 * (planes - lo) / (hi - lo)))
    return {"img": img, "truth": QMatrix(1j * img.r, img.g + 1j * img.b),
            "params": p, "tol": None}


def _run_deblur(inp, route):
    p = inp["params"]
    seen = []
    show = deblur_mod.qmat_to_image

    def capture(x, *args, **kwargs):
        # deblur_quaternion clamps X_hat for display; keep the raw estimate
        seen.append(x)
        return show(x, *args, **kwargs)

    deblur_mod.qmat_to_image = capture
    try:
        op = apps.build_blur(p["p"], p["q"], p["sigma"], p["r"], p["s"])
        b = apps.blur(op, inp["img"])
        img, quality = apps.deblur_quaternion(op, b, truth=inp["img"],
                                              route=route)
    finally:
        deblur_mod.qmat_to_image = show
    return {"op": op, "img": img, "metrics": quality, "x_hat": seen}


def _check_deblur(inp, out):
    if len(out["x_hat"]) != 1:
        return Verdict(math.inf, problems=[
            f"expected one unclamped estimate, saw {len(out['x_hat'])}"])
    x_hat = out["x_hat"][0]
    if not _finite(x_hat):
        return Verdict(math.inf, problems=["non-finite entries in X_hat"])
    rr = _rel(x_hat, inp["truth"])
    problems = _over("relative restoration error", rr, DEBLUR_RR_GATE)
    psnr = out["metrics"].psnr
    if not psnr >= DEBLUR_PSNR_GATE:
        problems.append(f"PSNR {psnr:.1f} dB < {DEBLUR_PSNR_GATE} dB")
    if inp["tol"] is None:
        # A = A1 mu with A1 = kron(T0, T1): kappa(A) = kappa(T0) kappa(T1);
        # pinv(A) goes through the composed formula, so kappa^3
        op = out["op"]
        kappa = np.linalg.cond(op.t0_blur) * np.linalg.cond(op.t1_blur)
        inp["tol"] = op.h * kappa ** 3 * EPS
    return Verdict(rr, problems=problems)


def _parity_deblur(inp, d, c):
    gap = _rel(d["x_hat"][0], c["x_hat"][0])
    return gap, _over("route gap", gap, inp["tol"])


# ----------------------------------------------------------------- lorenz


def _make_lorenz(rng, p):
    return {"noise_seed": int(rng.integers(2 ** 32)), "params": p,
            "tol": None}


def _run_lorenz(inp, route):
    p = inp["params"]
    traj = apps.lorenz_simulate(p["T"], p["dt"])
    delay = round(1.0 / p["dt"])
    order = apps.default_order(traj.shape[0], delay)
    return apps.build_filter_system(traj, p["dt"], delay, p["noise"], order,
                                    seed=inp["noise_seed"], route=route)


def _check_lorenz(inp, fs):
    if not _finite(fs.f):
        return Verdict(math.inf, problems=["non-finite filter taps"])
    c = _crep(fs.c)
    resid = _ratio(c @ _crep(fs.f) - _crep(fs.d), _crep(fs.d))
    problems = (_over("reported residual e", fs.e, LORENZ_E_GATE)
                + _over("recomputed residual", resid, LORENZ_E_GATE))
    if inp["tol"] is None:
        # pinv_solve applies the SVD of C itself: error grows with kappa(C)
        inp["tol"] = fs.c.nrows * np.linalg.cond(c) * EPS
    return Verdict(fs.e, problems=problems)


def _parity_lorenz(inp, d, c):
    gap = _rel(d.f, c.f)
    return gap, _over("route gap", gap, inp["tol"])


WORKLOADS = {
    "pinv": Workload(
        "pinv",
        {"full": {"m": 120, "n": 80, "r": 60}, "tiny": {"m": 6, "n": 4, "r": 3}},
        8, _make_pinv, _run_pinv, _check_pinv, _parity_pinv),
    "prescribed": Workload(
        "prescribed",
        {"full": {"m": 120, "n": 80, "w_rank": 40, "d_core": 48,
                  "nil_blocks": 4},
         "tiny": {"m": 6, "n": 4, "w_rank": 2, "d_core": 3, "nil_blocks": 1}},
        32, _make_prescribed, _run_prescribed, _check_prescribed,
        _parity_prescribed),
    "deblur": Workload(
        "deblur",
        {"full": {"p": 16, "q": 8, "sigma": 3.0, "r": 3, "s": 3, "width": 128},
         "tiny": {"p": 2, "q": 8, "sigma": 3.0, "r": 1, "s": 3, "width": 16}},
        4, _make_deblur, _run_deblur, _check_deblur, _parity_deblur),
    "lorenz": Workload(
        "lorenz",
        {"full": {"T": 10.0, "dt": 0.05, "noise": 0.01},
         "tiny": {"T": 2.0, "dt": 0.05, "noise": 0.01}},
        8, _make_lorenz, _run_lorenz, _check_lorenz, _parity_lorenz),
}
