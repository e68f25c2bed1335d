"""Color-image deblurring through the quaternion pseudoinverse.

The blur acts on images of height h = p*q by left multiplication with the
purely imaginary operator A = mu*kron(T0, T1), where T0 is a p x p Gaussian
band, T1 a q x q box band and mu = i - j/2 - k/2 a quaternion scalar; in
components A = A1*i + A2*j + A3*k with A1 = kron(T0, T1) and
A2 = A3 = -0.5*A1.  Restoration is X_hat = pinv(A) @ B, and a real matrix
commutes with a quaternion scalar, so
pinv(A) = mu^-1 kron(pinv(T0), pinv(T1)) = kron(pinv(mu T0), pinv(T1))
= kron(I_p, pinv(T1)) kron(pinv(mu T0), I_q)
(Van Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math., 2000).
``pinv`` inverts mu T0 and T1 on the route, one square solve each when the
factor is invertible and its compact SVD when it is not (a box band that is
singular at its size q); the h x h A is never factored.  pinv(mu T0) acts
along p as one product of the route, on B seen as a p x (q n) matrix, and
pinv(T1), which is real, acts along q as a real product, with no transpose
and no panels.  For an invertible A the error grows with
kappa(A) = kappa(T0) kappa(T1), not with a power of it.  The blur itself,
B = mu kron(T0, T1) X, belongs to neither route: mu X is formed entrywise
and the real T0 and T1 act on its real planes as real products (Hansen,
Nagy & O'Leary, "Deblurring Images", SIAM, 2006, ch. 4), with no quaternion
product; T1 acts along q there as in the restore.  So a ``deblur`` run does
no h x h work: ``BlurOperator.a`` is formed only when something asks for
it.  The metrics work one channel at a time, and SSIM on strips of a fixed
number of rows, whose four moment maps are smoothed together; so their
transient arrays grow with the width of the image, never with its height.

A real-valued alternative stacks the three channels and solves the 3h x 3h
skew block system; its matrix is rank deficient for this operator family, so
that route degrades channel correlations.  Both are provided so the two can
be compared on equal terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..qcore import QMatrix, _route_mul
from ..factor import rank
from ..geninv import pinv
from .ppm import ColorImage, qmat_to_image

__all__ = [
    "BlurOperator",
    "RestorationMetrics",
    "build_blur",
    "blur",
    "deblur_quaternion",
    "real_block_restore",
    "metrics",
    "deblur_report",
]

# PSNR of two bit-identical images is infinite; reports use this sentinel.
PSNR_CAP_DB = 300.0

_SSIM_WIN = 11
_SSIM_SIGMA = 1.5
# the constants (K L)^2 of Wang et al. for K1 = 0.01, K2 = 0.03 and the
# dynamic range L = 1
_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2
# windows per block of the SSIM band products, down and across; 24 to 32
# measured fastest on 128 x 128 and 400 x 256 planes with one BLAS thread
_SSIM_BLOCK = 32
# window rows per SSIM strip: a 128 x 128 plane is one strip
_SSIM_STRIP = 4 * _SSIM_BLOCK

# mu = i - j/2 - k/2, the blur's quaternion scalar, as components (w, x, y, z)
_MU = (0.0, 1.0, -0.5, -0.5)


@dataclass(frozen=True)
class BlurOperator:
    """Banded Toeplitz-Kronecker blur A = mu*kron(T0, T1), mu = i - j/2 - k/2.

    The operator is held as its two factors.  ``blur``,
    ``deblur_quaternion`` and ``real_block_system`` read only those; the
    h x h ``a`` is formed on first access and kept.  Only the general solve
    ``pinv_solve(op.a, b, route)`` and checks against the dense product
    still need it.
    """

    p: int
    q: int
    sigma: float
    r: int
    s: int
    t0_blur: np.ndarray  # p x p Gaussian band
    t1_blur: np.ndarray  # q x q box band

    @property
    def h(self) -> int:
        return self.p * self.q

    @cached_property
    def a(self) -> QMatrix:
        """The h x h quaternion matrix mu*kron(T0, T1), h = p*q."""
        return _times_mu(np.kron(self.t0_blur, self.t1_blur))


@dataclass(frozen=True)
class RestorationMetrics:
    psnr: float
    ssim: float
    rr: float
    corr_orig: np.ndarray      # 3x3 Pearson matrix of the reference channels
    corr_restored: np.ndarray  # same for the restored channels


def _band_toeplitz(n: int, half: int, weight) -> np.ndarray:
    """n x n Toeplitz with entry weight(|i-j|) inside the band, else 0."""
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    t = np.where(dist <= half, weight(dist), 0.0)
    return t


def _times_mu(t: np.ndarray) -> QMatrix:
    """The quaternion matrix mu*T of a real T; every entry is exact."""
    return QMatrix.from_components(*(c * t for c in _MU))


def build_blur(p: int, q: int, sigma: float, r: int, s: int) -> BlurOperator:
    """Assemble the blur operator for images of height p*q.

    T0 is p x p with gaussian weights exp(-d^2/(2 sigma^2))/(sigma sqrt(2 pi))
    on the band d = |i-j| <= r; T1 is q x q with constant weight 1/(2s-1) on
    the band d <= s.  A1 = kron(T0, T1).

    Box bands of halfwidth s are exactly singular at many sizes q (whenever a
    sampled sine hits a zero of the Dirichlet kernel); callers wanting an
    invertible operator must pick q accordingly (e.g. q = 8 works for s = 3).
    Only the two bands are built; the h x h ``a`` waits until it is read.
    """
    if p < 1 or q < 1:
        raise ValueError(f"image grid must be positive, got p={p}, q={q}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if r < 0:
        raise ValueError(f"gaussian band halfwidth must be >= 0, got r={r}")
    if s < 1:
        raise ValueError(f"box width 2s-1 must be >= 1, got s={s}")

    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    t0 = _band_toeplitz(p, r, lambda d: norm * np.exp(-d**2 / (2.0 * sigma**2)))
    t1 = _band_toeplitz(q, s, lambda d: np.full_like(d, 1.0 / (2 * s - 1),
                                                     dtype=float))
    return BlurOperator(p, q, float(sigma), r, s, t0, t1)


def blur(op: BlurOperator, img: ColorImage) -> QMatrix:
    """B = A @ X for the purely imaginary embedding of the image.

    A = mu kron(T0, T1) is applied in real arithmetic, never as the h x h
    matrix and with no quaternion product.  mu X = C1 + C2 j is formed
    entrywise from the three planes; then the real T0 acts along the p axis
    and T1 along the q axis of C1 and C2, each viewed as a real array of
    twice its width (a real matrix acts on each real plane alone).  mu goes
    first, so its rounding is smoothed by the bands, as in the dense
    product, rather than added after them, where the restore would amplify
    it by kappa(A).  B agrees with ``mat_mul(op.a, X)`` to rounding.  B
    generally has a nonzero real part; keep all of it for restoration.
    """
    if img.h != op.h:
        raise ValueError(
            f"image height {img.h} does not match operator size {op.h}")
    p, q = op.p, op.q
    # mu X = C1 + C2 j entrywise, for mu = w + x i + y j + z k and
    # X = R i + G j + B k: the real part is -(x R + y G + z B), and the
    # vector part w (R, G, B) + (x, y, z) cross (R, G, B)
    w, x, y, z = _MU
    r, g, b = img.r, img.g, img.b
    c1 = np.empty(r.shape, dtype=complex)
    c2 = np.empty_like(c1)
    c1.real = -(x * r + y * g + z * b)
    c1.imag = w * r + y * b - z * g
    c2.real = w * g + z * r - x * b
    c2.imag = w * b + x * g - y * r
    # T0 acts along p on each component seen as a p x (2 q n) real matrix,
    # for an image of width n, and then T1 along q
    t0c = (op.t0_blur @ c.view(float).reshape(p, 2 * q * img.w)
           for c in (c1, c2))
    return QMatrix._own(*(_along_q(op.t1_blur, m) for m in t0c))


def deblur_quaternion(op: BlurOperator, b: QMatrix,
                      truth: ColorImage | None = None,
                      route: str = "direct"):
    """Restore X_hat = pinv(A) @ B and project to channels.

    Since T1 is real, X_hat = kron(pinv(mu T0), pinv(T1)) B.
    :func:`quatinv.geninv.pinv` inverts mu T0 and T1 on ``route`` (one
    square solve for an invertible factor, its compact SVD for a singular
    box band); pinv(mu T0) then acts along p as one product of the route,
    and the real pinv(T1) along q as a real product.  So every quaternion
    operation of the restore runs on ``route``, and only p x p and q x q
    matrices are factored, never the h x h A.  Ranks are decided on T0 and
    T1, each by its own max(n) eps sigma_1 rule, not on A by
    h eps sigma_1(A); the two can differ only when the smallest singular
    value of a factor lies within a factor h/p (or h/q) of its threshold.
    ``pinv_solve(op.a, b, route)`` is the general path.
    Returns ``(image, metrics)``; metrics are computed against ``truth`` when
    it is given and are ``None`` otherwise.  A ``truth`` that ``metrics``
    cannot score (another shape than B, or smaller than the SSIM window)
    raises ``ValueError`` before X_hat is solved for.
    """
    if b.shape[0] != op.h:
        raise ValueError(
            f"blurred data height {b.shape[0]} does not match operator {op.h}")
    if truth is not None:
        _require_comparable((truth.h, truth.w), b.shape)
    img = qmat_to_image(_factor_solve(op, b, route))
    return img, (metrics(truth, img) if truth is not None else None)


def _along_q(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    # kron(I_p, T) Y for a real q x q T and the quaternion matrix Y of p q
    # rows whose complex component, seen as real, is the p x (2 q n) array
    # x: row (j, l) of Y, j < p and l < q, is row l of x's j-th real
    # q x 2n slice, and a real matrix acts on each real plane alone.
    # Returns that component of the product, (p q) x n.  Every shape is
    # spelled out, so an image of no columns passes too
    p, q = x.shape[0], t.shape[0]
    n = x.shape[1] // (2 * q)
    out = np.empty((p * q, n), dtype=complex)
    np.matmul(t, x.reshape(p, q, 2 * n),
              out=out.view(float).reshape(p, q, 2 * n))
    return out


def _factor_solve(op: BlurOperator, b: QMatrix, route: str) -> QMatrix:
    # X_hat = kron(I_p, pinv(T1)) kron(pinv(mu T0), I_q) B.  pinv(mu T0)
    # acts along p as one product of the route, on B seen as a p x (q n)
    # matrix (row j holds rows (j, 0) .. (j, q - 1) of B), and then the real
    # pinv(T1) along q.  pinv(T1) is read as its q1.real: T1 is real, the
    # square solve of real data (reflectors on direct, an LU on crep) stays
    # exactly real on both routes, and the compact SVD of a singular box
    # band leaves imaginary and j parts of rounding size at most, no larger
    # than the error pinv(T1) carries anyway
    p, q, n = op.p, op.q, b.ncols
    t0_inv = pinv(_times_mu(op.t0_blur), route=route)
    t1_inv = pinv(QMatrix.from_real(op.t1_blur), route=route).q1.real
    y = _route_mul(route)(
        t0_inv, QMatrix(*(c.reshape(p, q * n) for c in (b.q1, b.q2))))
    return QMatrix._own(*(_along_q(t1_inv, c.view(float))
                          for c in (y.q1, y.q2)))


def real_block_system(op: BlurOperator) -> np.ndarray:
    """The 3h x 3h real block matrix [[0,-A3,A2],[A3,0,-A1],[-A2,A1,0]].

    A1 = kron(T0, T1) and A2 = A3 = -A1/2 come straight from the bands;
    ``op.a`` is not formed.  Its components are exact scalings of
    kron(T0, T1), so the matrix is bit for bit the one they give.
    """
    a1 = np.kron(op.t0_blur, op.t1_blur)
    a2 = -0.5 * a1
    # signed zeros as in op.a: its k part is +0 where A1 is 0, since its
    # complex component adds -0.5 A1 to +0, and adding +0 turns -0 to +0
    a3 = a2 + 0.0
    z = np.zeros_like(a1)
    return np.block([[z, -a3, a2], [a3, z, -a1], [-a2, a1, z]])


def real_block_restore(op: BlurOperator, b: QMatrix) -> ColorImage:
    """Channel-stacked real least-squares restoration.

    Solves A_R @ [X_R; X_G; X_B] = [B_R; B_G; B_B] by real pseudoinverse,
    using only the imaginary parts of B.  A_R is singular for this operator
    family, so the minimum-norm solution loses part of the signal.
    """
    if b.shape[0] != op.h:
        raise ValueError(
            f"blurred data height {b.shape[0]} does not match operator {op.h}")
    h = op.h
    rhs = np.vstack([b.q1.imag, b.q2.real, b.q2.imag])
    sol = np.linalg.pinv(real_block_system(op)) @ rhs
    return ColorImage(np.clip(sol[:h], 0.0, 1.0),
                      np.clip(sol[h:2 * h], 0.0, 1.0),
                      np.clip(sol[2 * h:], 0.0, 1.0))


def _require_comparable(ref_shape: tuple, shape: tuple) -> None:
    """Raise ``ValueError`` unless two images can be scored by ``metrics``."""
    if ref_shape != shape:
        raise ValueError(f"image dimensions differ: {ref_shape} vs {shape}")
    if min(ref_shape) < _SSIM_WIN:
        raise ValueError(
            f"image {ref_shape} smaller than the {_SSIM_WIN}x{_SSIM_WIN} window")


def _gaussian_band(n: int) -> np.ndarray:
    """The (n - 10) x n band whose row i holds the normalized 11-tap
    Gaussian (sigma 1.5) in columns i..i+10."""
    half = _SSIM_WIN // 2
    x = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-(x**2) / (2.0 * _SSIM_SIGMA**2))
    rows = np.arange(n - _SSIM_WIN + 1)
    band = np.zeros((rows.size, n))
    for t, tap in enumerate(g / g.sum()):
        band[rows, rows + t] = tap
    return band


def _smooth(maps: np.ndarray, band: np.ndarray) -> np.ndarray:
    # G @ M for each map M of a (k, n + 10, w) stack and the n-row band G
    # of ``_gaussian_band``, returned transposed as (k, w, n): two calls
    # smooth down and then across, and the second hands back the stack's
    # own layout.  G is Toeplitz, so rows j c .. j c + c - 1 of G @ M are
    # band @ M[j c : j c + c + 10] for c = len(band).  One batched product
    # over a strided view of the stack takes every full block, one more
    # the rest
    k, rows, w = maps.shape
    c = band.shape[0]
    full, rest = divmod(rows - _SSIM_WIN + 1, c)
    out = np.empty((k, w, full * c + rest))
    s0, s1, s2 = maps.strides
    blocks = as_strided(maps, (k, full, w, c + _SSIM_WIN - 1),
                        (s0, c * s1, s2, s1), writeable=False)
    np.matmul(blocks, band.T, out=out[..., :full * c].reshape(
        k, w, full, c).transpose(0, 2, 1, 3))
    if rest:
        np.matmul(maps[:, full * c:].transpose(0, 2, 1),
                  band[:rest, :rest + _SSIM_WIN - 1].T, out=out[..., full * c:])
    return out


def _ssim_planes(x, y) -> np.ndarray:
    """Mean SSIM of each plane of x against the same plane of y.

    x and y are equal-length sequences of h x w planes, such as (planes, h,
    w) stacks.  The local means, variances and covariance are weighted by
    the 11x11 Gaussian window (sigma 1.5) of Wang, Bovik, Sheikh &
    Simoncelli, "Image quality assessment: from error visibility to
    structural similarity" (IEEE TIP, 2004), and the mean runs over every
    fully interior window.  The window is separable, k = g g^T with g the
    normalized 1-D Gaussian, so smoothing a map P over all those windows is
    the band product G_h @ P @ G_w^T (see ``_gaussian_band``).  SSIM reads
    the two variances only as their sum, so a plane pair takes four
    smoothed maps, of x, y, x^2 + y^2 and x y.  A plane pair runs in strips
    of ``_SSIM_STRIP`` window rows (``_ssim_sum``), so transient arrays grow
    with the width and not with the height.  A strip's four maps are
    stacked and smoothed together, down and then across (``_smooth``), each
    axis by one batched band product over blocks of ``_SSIM_BLOCK`` windows
    and one more for the partial block.
    """
    h, w = x[0].shape
    rows = h - _SSIM_WIN + 1
    band = _gaussian_band(_SSIM_BLOCK + _SSIM_WIN - 1)
    out = []
    for xp, yp in zip(x, y):
        total = 0.0
        for i in range(0, rows, _SSIM_STRIP):
            xs, ys = (t[i:i + _SSIM_STRIP + _SSIM_WIN - 1] for t in (xp, yp))
            total += _ssim_sum(xs, ys, band)
        out.append(total / (rows * (w - _SSIM_WIN + 1)))
    return np.array(out)


def _ssim_sum(xs, ys, band) -> float:
    # the SSIM of every window of one strip of x and y, summed.  The stack
    # of the four maps is freed once it is smoothed down, and the rest on
    # return, so no strip's arrays stay alive beside the next one's
    down = _smooth(np.stack((xs, ys, xs * xs + ys * ys, xs * ys)), band)
    mu_x, mu_y, s2, sxy = _smooth(down, band)
    # in place, which measured 8% faster than the plain expression:
    # mu_x becomes the denominator (mu_x^2 + mu_y^2 + C1)
    # (s2 - mu_x^2 - mu_y^2 + C2) and mu_xy the numerator
    # (2 mu_x mu_y + C1) (2 (sxy - mu_x mu_y) + C2)
    mu_xy = mu_x * mu_y
    mu_x *= mu_x
    mu_y *= mu_y
    mu_x += mu_y
    s2 -= mu_x
    s2 += _SSIM_C2
    mu_x += _SSIM_C1
    mu_x *= s2
    sxy -= mu_xy
    sxy *= 2.0
    sxy += _SSIM_C2
    mu_xy *= 2.0
    mu_xy += _SSIM_C1
    mu_xy *= sxy
    mu_xy /= mu_x
    return float(np.sum(mu_xy))


def _pearson3(planes) -> np.ndarray:
    # the 3 x 3 Pearson matrix, normalized as np.corrcoef does, from the
    # three centred planes without stacking them; a constant channel has
    # zero variance: NaN correlations, not a warning
    dev = [p - p.mean() for p in planes]
    cov = np.array([[np.vdot(a, b) for b in dev] for a in dev])
    std = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.clip(cov / std[:, None] / std[None, :], -1.0, 1.0)


def _corr_json(corr: np.ndarray) -> list:
    """A correlation matrix as nested lists, NaN (undefined) as None."""
    return [[None if math.isnan(v) else v for v in row]
            for row in corr.tolist()]


def metrics(x: ColorImage, x_hat: ColorImage) -> RestorationMetrics:
    """PSNR / SSIM / relative residual / channel correlations.

    PSNR uses peak 1.0 with the MSE averaged over all three channels and is
    capped at ``PSNR_CAP_DB`` for identical inputs.  SSIM is the mean over
    the three channels of each channel's mean SSIM over all fully interior
    11x11 Gaussian windows (Wang et al., IEEE TIP, 2004), smoothed with the
    separable window as batched band products on strips of rows (see
    ``_ssim_planes``); images smaller than the window are an error.  RR is
    the Frobenius relative error over the stacked channels (zero reference
    is an error).  A correlation with a constant channel is undefined and
    comes back as NaN, without a warning.  Every quantity is summed one
    channel at a time, so no (3, h, w) stack is formed.
    """
    _require_comparable((x.h, x.w), (x_hat.h, x_hat.w))
    ref, est = (x.r, x.g, x.b), (x_hat.r, x_hat.g, x_hat.b)
    err2 = ref2 = 0.0
    for r, e in zip(ref, est):
        d = r - e
        err2 += float(np.vdot(d, d))
        ref2 += float(np.vdot(r, r))
    mse = err2 / (3 * x.h * x.w)
    psnr = PSNR_CAP_DB if mse == 0.0 else min(
        PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse))
    ssim = float(np.mean(_ssim_planes(ref, est)))
    if ref2 == 0.0:
        raise ValueError("relative residual undefined for a zero reference")
    rr = math.sqrt(err2) / math.sqrt(ref2)
    return RestorationMetrics(psnr, ssim, rr, _pearson3(ref), _pearson3(est))


def deblur_report(op: BlurOperator, truth: ColorImage,
                  quat_metrics: RestorationMetrics,
                  real_metrics: RestorationMetrics | None) -> dict:
    """JSON-ready summary of one deblurring run.

    ``blur_rank`` holds the ranks of T0 and T1, each from ``rank``: its
    Gram-Cholesky full-rank proof, and an SVD only for a singular band.  A
    is singular exactly when one of them is short of its order.
    """
    report = {
        "psnr_db": quat_metrics.psnr,
        "ssim": quat_metrics.ssim,
        "rr": quat_metrics.rr,
        "corr_orig": _corr_json(quat_metrics.corr_orig),
        "corr_quat": _corr_json(quat_metrics.corr_restored),
        "corr_real": (_corr_json(real_metrics.corr_restored)
                      if real_metrics is not None else None),
        "params": {"p": op.p, "q": op.q, "sigma": op.sigma,
                   "r": op.r, "s": op.s,
                   "height": truth.h, "width": truth.w},
        "blur_rank": {"t0": rank(QMatrix.from_real(op.t0_blur)),
                      "t1": rank(QMatrix.from_real(op.t1_blur))},
    }
    return report
