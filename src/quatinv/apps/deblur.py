"""Color-image deblurring through the quaternion pseudoinverse.

The blur acts on images of height h = p*q by left multiplication with the
purely imaginary operator A = A1*i + A2*j + A3*k, where A1 = T0 (x) T1 is a
Kronecker product of two banded Toeplitz factors (Gaussian band and box band)
and A2 = A3 = -0.5*A1.  Restoration is X_hat = pinv(A) @ B.

A real-valued alternative stacks the three channels and solves the 3h x 3h
skew block system; its matrix is rank deficient for this operator family, so
that route degrades channel correlations.  Both are provided so the two can
be compared on equal terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..qcore import QMatrix, _route_mul, mat_mul
from ..geninv import pinv
from .ppm import ColorImage, image_to_qmat, qmat_to_image

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
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


@dataclass(frozen=True)
class BlurOperator:
    """Banded Toeplitz-Kronecker blur A = A1*i - 0.5*A1*j - 0.5*A1*k."""

    p: int
    q: int
    sigma: float
    r: int
    s: int
    t0_blur: np.ndarray  # p x p Gaussian band
    t1_blur: np.ndarray  # q x q box band
    a: QMatrix           # h x h, h = p*q

    @property
    def h(self) -> int:
        return self.p * self.q


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


def build_blur(p: int, q: int, sigma: float, r: int, s: int) -> BlurOperator:
    """Assemble the blur operator for images of height p*q.

    T0 is p x p with gaussian weights exp(-d^2/(2 sigma^2))/(sigma sqrt(2 pi))
    on the band d = |i-j| <= r; T1 is q x q with constant weight 1/(2s-1) on
    the band d <= s.  A1 = kron(T0, T1).

    Box bands of halfwidth s are exactly singular at many sizes q (whenever a
    sampled sine hits a zero of the Dirichlet kernel); callers wanting an
    invertible operator must pick q accordingly (e.g. q = 8 works for s = 3).
    """
    if p < 1 or q < 1:
        raise ValueError(f"image grid must be positive, got p={p}, q={q}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if r < 0:
        raise ValueError(f"gaussian band halfwidth must be >= 0, got r={r}")
    if s < 1:
        raise ValueError(f"box width 2s-1 must be >= 1, got s={s}")

    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    t0 = _band_toeplitz(p, r, lambda d: norm * np.exp(-d**2 / (2.0 * sigma**2)))
    t1 = _band_toeplitz(q, s, lambda d: np.full_like(d, 1.0 / (2 * s - 1),
                                                     dtype=float))
    a1 = np.kron(t0, t1)
    # gamma1 = A1*i, gamma2 = A2 + A3*i with A2 = A3 = -0.5*A1
    a = QMatrix(1j * a1, -0.5 * a1 * (1.0 + 1.0j))
    return BlurOperator(p, q, float(sigma), r, s, t0, t1, a)


def blur(op: BlurOperator, img: ColorImage) -> QMatrix:
    """B = A @ X for the purely imaginary embedding of the image.

    B generally has a nonzero real part; keep all of it for restoration.
    """
    if img.h != op.h:
        raise ValueError(
            f"image height {img.h} does not match operator size {op.h}")
    return mat_mul(op.a, image_to_qmat(img))


def deblur_quaternion(op: BlurOperator, b: QMatrix,
                      truth: ColorImage | None = None,
                      route: str = "direct"):
    """Restore X_hat = pinv(A) @ B and project to channels.

    Returns ``(image, metrics)``; metrics are computed against ``truth`` when
    it is given and are ``None`` otherwise.  A ``truth`` that ``metrics``
    cannot score (another shape than B, or smaller than the SSIM window)
    raises ``ValueError`` before the pseudoinverse is computed.
    """
    if b.shape[0] != op.h:
        raise ValueError(
            f"blurred data height {b.shape[0]} does not match operator {op.h}")
    if truth is not None:
        _require_comparable((truth.h, truth.w), b.shape)
    x_hat = _route_mul(route)(pinv(op.a, method="svd", route=route), b)
    img = qmat_to_image(x_hat)
    return img, (metrics(truth, img) if truth is not None else None)


def real_block_system(op: BlurOperator) -> np.ndarray:
    """The 3h x 3h real block matrix [[0,-A3,A2],[A3,0,-A1],[-A2,A1,0]]."""
    a1 = op.a.q1.imag
    a2 = op.a.q2.real
    a3 = op.a.q2.imag
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


def _ssim_planes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean SSIM of each plane of x against the same plane of y.

    x and y are (planes, h, w) stacks.  The local means, variances and
    covariance are weighted by the 11x11 Gaussian window (sigma 1.5) of Wang,
    Bovik, Sheikh & Simoncelli, "Image quality assessment: from error
    visibility to structural similarity" (IEEE TIP, 2004), and the mean runs
    over every fully interior window.  The window is separable, k = g g^T
    with g the normalized 1-D Gaussian, so smoothing a map P over all those
    windows is the band product G_h @ P @ G_w^T (see ``_gaussian_band``),
    taken for all planes of one moment map at a time.
    """
    h, w = x.shape[-2:]
    g_h = _gaussian_band(h)
    g_w = g_h if w == h else _gaussian_band(w)
    mu_x, mu_y, sxx, syy, sxy = (g_h @ p @ g_w.T
                                 for p in (x, y, x * x, y * y, x * y))
    sxx -= mu_x**2
    syy -= mu_y**2
    sxy -= mu_x * mu_y
    c1 = (_SSIM_K1 * 1.0)**2
    c2 = (_SSIM_K2 * 1.0)**2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * sxy + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (sxx + syy + c2)
    return np.mean(num / den, axis=(-2, -1))


def _pearson3(planes: np.ndarray) -> np.ndarray:
    # a constant channel has zero variance: NaN correlations, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.corrcoef(planes.reshape(3, -1))


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
    separable window as two band products; images smaller than the window
    are an error.  RR is the Frobenius relative error over the stacked
    channels (zero reference is an error).  A correlation with a constant
    channel is undefined and comes back as NaN, without a warning.
    """
    _require_comparable((x.h, x.w), (x_hat.h, x_hat.w))
    ref, est = x.planes(), x_hat.planes()
    diff = ref - est
    mse = float(np.mean(diff**2))
    psnr = PSNR_CAP_DB if mse == 0.0 else min(
        PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse))
    ssim = float(np.mean(_ssim_planes(ref, est)))
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("relative residual undefined for a zero reference")
    rr = float(np.linalg.norm(diff)) / ref_norm
    return RestorationMetrics(psnr, ssim, rr, _pearson3(ref), _pearson3(est))


def deblur_report(op: BlurOperator, truth: ColorImage,
                  quat_metrics: RestorationMetrics,
                  real_metrics: RestorationMetrics | None) -> dict:
    """JSON-ready summary of one deblurring run."""
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
    }
    return report
