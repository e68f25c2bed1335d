import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from quatinv.apps import (
    ColorImage,
    PpmFormatError,
    blur,
    build_blur,
    build_filter_system,
    deblur_quaternion,
    deblur_report,
    default_order,
    image_to_qmat,
    lorenz_simulate,
    metrics,
    qmat_to_image,
    read_ppm,
    real_block_restore,
    write_filter_csv,
    write_ppm,
    write_trajectory_csv,
)
import quatinv.apps.deblur as deblur_mod
from quatinv import geninv, qcore
from quatinv.apps.deblur import PSNR_CAP_DB, real_block_system
from quatinv.qcore import QMatrix, fro_norm, mat_mul, random_qmat


def rand_image(h, w, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    r, g, b = rng.uniform(lo, hi, size=(3, h, w))
    return ColorImage(r, g, b)


# ---- images and PPM I/O ----

def test_color_image_validation():
    ok = ColorImage(np.zeros((2, 3)), np.zeros((2, 3)), np.ones((2, 3)))
    assert ok.h == 2 and ok.w == 3
    with pytest.raises(ValueError):
        ColorImage(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ColorImage(np.zeros((2, 2)), np.full((2, 2), 1.5), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ColorImage(np.zeros((2, 2)), np.zeros((2, 2)),
                   np.full((2, 2), np.nan))


def test_quaternion_embedding_round_trip():
    img = rand_image(5, 7, seed=1)
    x = image_to_qmat(img)
    assert np.all(x.q1.real == 0.0)  # purely imaginary
    back = qmat_to_image(x)
    assert np.array_equal(back.r, img.r)
    assert np.array_equal(back.g, img.g)
    assert np.array_equal(back.b, img.b)


def test_qmat_to_image_clamps():
    x = QMatrix(np.array([[0.3 + 2.0j]]), np.array([[-1.0 - 0.5j]]))
    img = qmat_to_image(x)
    assert img.r[0, 0] == 1.0 and img.g[0, 0] == 0.0 and img.b[0, 0] == 0.0


def test_ppm_p6_round_trip(tmp_path):
    img = rand_image(9, 5, seed=2)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    # quantized to 8 bits, so equality is at the half-step level
    assert np.max(np.abs(back.planes() - img.planes())) <= 0.5 / 255.0
    # re-writing the quantized image is bitwise stable
    path2 = tmp_path / "img2.ppm"
    write_ppm(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_ppm_p3_round_trip(tmp_path):
    # the writer writes P6 only; a P3 file, written here as text, reads back
    # to the same samples
    img = rand_image(4, 6, seed=3)
    p6 = tmp_path / "a.ppm"
    p3 = tmp_path / "b.ppm"
    write_ppm(p6, img)
    raw = np.rint(np.stack([img.r, img.g, img.b], axis=-1) * 255.0)
    rows = (" ".join(str(int(v)) for v in row)
            for row in raw.reshape(img.h, img.w * 3))
    p3.write_text(f"P3\n{img.w} {img.h}\n255\n" + "\n".join(rows) + "\n")
    assert np.array_equal(read_ppm(p3).planes(), read_ppm(p6).planes())
    assert p6.read_bytes().startswith(b"P6")


def test_ppm_header_comments(tmp_path):
    path = tmp_path / "c.ppm"
    body = " ".join(["0 128 255"] * 2)
    path.write_bytes(b"P3\n# a comment\n2 1\n# another\n255\n"
                     + body.encode() + b"\n")
    img = read_ppm(path)
    assert img.w == 2 and img.h == 1
    assert img.g[0, 0] == 128.0 / 255.0


@pytest.mark.parametrize("data", [
    b"",
    b"P5\n2 2\n255\n" + bytes(12),
    b"P6\n2 2\n65535\n" + bytes(24),
    b"P6\n2 2\n255\n" + bytes(5),   # truncated raster
    b"P3\n2 1\n255\n1 2 3 4 5\n",   # missing sample
    b"P6\n0 4\n255\n",
])
def test_ppm_rejects_malformed(tmp_path, data):
    path = tmp_path / "bad.ppm"
    path.write_bytes(data)
    with pytest.raises(PpmFormatError):
        read_ppm(path)


# ---- blur operator ----

def test_build_blur_structure():
    op = build_blur(5, 6, sigma=3.0, r=3, s=2)
    assert op.a.shape == (30, 30)
    # banded: Gaussian factor vanishes beyond halfwidth r
    p = 5
    for i in range(p):
        for j in range(p):
            if abs(i - j) > 3:
                assert op.t0_blur[i, j] == 0.0
    # box factor: halfwidth s, weight 1/(2s-1)
    assert op.t1_blur[0, 1] == pytest.approx(1.0 / 3.0)
    assert op.t1_blur[0, 2] == pytest.approx(1.0 / 3.0)
    assert op.t1_blur[0, 3] == 0.0
    # purely imaginary with A2 = A3 = -0.5*A1 entrywise exact
    a1 = op.a.q1.imag
    assert np.all(op.a.q1.real == 0.0)
    assert np.array_equal(op.a.q2.real, -0.5 * a1)
    assert np.array_equal(op.a.q2.imag, -0.5 * a1)
    assert np.array_equal(a1, np.kron(op.t0_blur, op.t1_blur))


def test_build_blur_scalar_value():
    # 1x1 case: A1 = (1/(sigma sqrt(2 pi))) * 1/(2s-1), frozen for sigma=3, s=3
    op = build_blur(1, 1, sigma=3.0, r=3, s=3)
    assert op.a.q1[0, 0] == pytest.approx(0.02659615202676218j, abs=1e-17)


def test_build_blur_s1_is_unit_tridiagonal():
    op = build_blur(2, 5, sigma=2.0, r=1, s=1)
    idx = np.arange(5)
    band = (np.abs(idx[:, None] - idx[None, :]) <= 1).astype(float)
    assert np.array_equal(op.t1_blur, band)


@pytest.mark.parametrize("bad", [
    dict(p=0, q=1, sigma=1.0, r=1, s=1),
    dict(p=1, q=0, sigma=1.0, r=1, s=1),
    dict(p=1, q=1, sigma=0.0, r=1, s=1),
    dict(p=1, q=1, sigma=1.0, r=-1, s=1),
    dict(p=1, q=1, sigma=1.0, r=0, s=0),  # box width 2s-1 would be -1
])
def test_build_blur_rejects_bad_params(bad):
    with pytest.raises(ValueError):
        build_blur(**bad)


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
def test_build_blur_refuses_a_non_finite_sigma(sigma):
    # an infinite sigma would build an all-zero T0, a NaN one a NaN T0
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        build_blur(2, 8, sigma=sigma, r=3, s=3)


def test_blur_zero_image_and_norm_bound():
    op = build_blur(4, 2, sigma=3.0, r=3, s=2)
    zero = ColorImage(*np.zeros((3, 8, 8)))
    assert fro_norm(blur(op, zero)) == 0.0
    img = rand_image(8, 8, seed=4)
    b = blur(op, img)
    assert fro_norm(b) <= fro_norm(op.a) * fro_norm(image_to_qmat(img)) + 1e-12
    # blurring mixes into the real part in general
    assert np.max(np.abs(b.q1.real)) > 0.0


@pytest.mark.parametrize("width", [1, 31, 77, 128])
@pytest.mark.parametrize("p,q", [(16, 8), (2, 16)], ids=["h128", "box2x16"])
def test_blur_matches_the_dense_product(p, q, width):
    # blur applies mu entrywise, then T0 and T1 as real products (widths
    # from one column to 128), against the dense product with the h x h A.
    # Each product's rounding error is within a few h eps |A| |X| entrywise
    # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), and
    # |A| = kron(|mu T0|, |T1|), so the gap stays within
    # h eps ||A||_F ||X||_F; q = 16 is the singular box band
    truth = rand_image(p * q, width, seed=40 + width)
    op = build_blur(p, q, sigma=3.0, r=3, s=3)
    x = image_to_qmat(truth)
    want = mat_mul(op.a, x)
    gap = fro_norm(blur(op, truth) - want)
    assert gap <= op.h * np.finfo(float).eps * fro_norm(op.a) * fro_norm(x)


@pytest.mark.parametrize("p,q", [(16, 8), (2, 16)], ids=["h128", "box2x16"])
def test_blur_runs_no_quaternion_product(p, q, monkeypatch):
    # the blur is real bands acting on mu X: no product of either route,
    # and op.a stays unformed
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((qcore, "mat_mul"), (qcore, "crep_mul")):
        spy(module, name)
    op = build_blur(p, q, sigma=3.0, r=3, s=3)
    blur(op, rand_image(p * q, 128, seed=42))
    assert calls == []
    assert "a" not in vars(op)


def test_deblur_never_forms_the_h_by_h_operator():
    # build_blur, blur and deblur_quaternion (with metrics) read only the
    # two factors; op.a is formed when asked for, and then it is bit for bit
    # mu kron(T0, T1) formed from the components, signed zeros included
    truth = rand_image(128, 40, seed=41, lo=0.05, hi=0.95)
    op = build_blur(16, 8, sigma=3.0, r=3, s=3)
    for route in ("direct", "crep"):
        deblur_quaternion(op, blur(op, truth), truth=truth, route=route)
    assert "a" not in vars(op)
    k = np.kron(op.t0_blur, op.t1_blur)
    want = QMatrix.from_components(*(c * k for c in (0.0, 1.0, -0.5, -0.5)))
    assert op.a.q1.tobytes() == want.q1.tobytes()
    assert op.a.q2.tobytes() == want.q2.tobytes()
    assert np.signbit(op.a.q2.real).any()
    assert op.a is op.a


def test_blur_height_mismatch():
    op = build_blur(4, 2, sigma=3.0, r=3, s=2)
    with pytest.raises(ValueError):
        blur(op, rand_image(9, 4, seed=5))


# ---- real block system vs quaternion product ----

def test_real_block_matches_imaginary_parts():
    # exact identity: for purely imaginary A and X, the i,j,k parts of A@X
    # equal the 3-block real product
    rng = np.random.default_rng(6)
    a1, a2, a3 = rng.standard_normal((3, 10, 10))
    a = QMatrix(1j * a1, a2 + 1j * a3)
    img = rand_image(10, 4, seed=7)
    x = image_to_qmat(img)
    prod = mat_mul(a, x)

    z = np.zeros_like(a1)
    ar = np.block([[z, -a3, a2], [a3, z, -a1], [-a2, a1, z]])
    stacked = ar @ np.vstack([img.r, img.g, img.b])
    got = np.vstack([prod.q1.imag, prod.q2.real, prod.q2.imag])
    assert np.max(np.abs(got - stacked)) <= 1e-12 * max(1.0, fro_norm(prod))


def test_real_block_system_is_singular_for_blur_family():
    op = build_blur(3, 3, sigma=3.0, r=2, s=2)
    ar = real_block_system(op)
    assert np.linalg.matrix_rank(ar) < ar.shape[0]


def test_real_block_system_comes_from_the_bands():
    # the restore builds the system from T0 and T1 without forming op.a,
    # and it is bit for bit the one op.a's components give, signed zeros
    # included
    op = build_blur(4, 8, sigma=3.0, r=3, s=3)
    real_block_restore(op, blur(op, rand_image(32, 6, seed=43)))
    assert "a" not in vars(op)
    a1, a2, a3 = op.a.q1.imag, op.a.q2.real, op.a.q2.imag
    z = np.zeros_like(a1)
    want = np.block([[z, -a3, a2], [a3, z, -a1], [-a2, a1, z]])
    assert real_block_system(op).tobytes() == want.tobytes()


def test_real_block_restore_zero_is_zero():
    op = build_blur(3, 2, sigma=3.0, r=2, s=2)
    b = QMatrix(np.zeros((6, 4), complex), np.zeros((6, 4), complex))
    img = real_block_restore(op, b)
    assert np.all(img.planes() == 0.0)


# ---- deblurring round trips ----

def test_deblur_round_trip_desk_scale():
    # q = 8 keeps the box factor invertible for s = 3
    truth = rand_image(64, 16, seed=8, lo=0.05, hi=0.95)
    op = build_blur(8, 8, sigma=3.0, r=3, s=3)
    b = blur(op, truth)
    restored, m = deblur_quaternion(op, b, truth=truth)
    assert m.rr <= 1e-8
    assert m.psnr >= 40.0
    assert m.ssim >= 0.999
    assert np.max(np.abs(restored.planes() - truth.planes())) <= 1e-8


@pytest.mark.parametrize("p,q", [(8, 8), (16, 8)], ids=["h64", "h128"])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_deblur_error_is_bounded_by_kappa(route, p, q, monkeypatch):
    # A = kron(T0, T1) mu with the quaternion scalar mu = i - j/2 - k/2, so
    # kappa(A) = kappa(T0) kappa(T1); the unclamped X_hat of an invertible
    # blur is one square solve per factor and products, so its error stays
    # within h kappa(A) eps
    truth = rand_image(p * q, 24, seed=25, lo=0.05, hi=0.95)
    op = build_blur(p, q, sigma=3.0, r=3, s=3)
    seen = []
    show = deblur_mod.qmat_to_image

    def capture(x):
        seen.append(x)
        return show(x)

    monkeypatch.setattr(deblur_mod, "qmat_to_image", capture)
    deblur_quaternion(op, blur(op, truth), route=route)
    x = image_to_qmat(truth)
    rr = fro_norm(seen[0] - x) / fro_norm(x)
    kappa = np.linalg.cond(op.t0_blur) * np.linalg.cond(op.t1_blur)
    assert rr <= op.h * kappa * np.finfo(float).eps


@pytest.mark.parametrize("p,q,want_rank", [(8, 8, 64), (16, 8, 128),
                                            (2, 16, 30), (4, 16, 60)],
                         ids=["h64", "h128", "box2x16", "box4x16"])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_deblur_agrees_with_the_general_solve(route, p, q, want_rank,
                                              monkeypatch):
    # the unclamped X_hat against pinv_solve of the whole A on the same
    # route.  The box band of halfwidth 3 has rank 15 at q = 16, and its zero
    # singular values (~1e-17 sigma_1) lie far below both rank rules, so
    # both paths return pinv of the same rank-r matrix (r = h when A is
    # invertible) applied to a consistent B.  Each is backward stable with an
    # O(h eps) relative perturbation that keeps the rank, and for such
    # perturbations the pseudoinverse moves by a multiple of
    # kappa_r = sigma_1/sigma_r (Wedin, "Perturbation theory for
    # pseudo-inverses", BIT, 1973), which is kappa(T0) kappa(T1) for an
    # invertible A: the gap stays within h kappa_r eps
    op = build_blur(p, q, sigma=3.0, r=3, s=3)
    seen = []
    show = deblur_mod.qmat_to_image

    def capture(x):
        seen.append(x)
        return show(x)

    monkeypatch.setattr(deblur_mod, "qmat_to_image", capture)
    sigma = np.linalg.svd(np.kron(op.t0_blur, op.t1_blur), compute_uv=False)
    r = int(np.sum(sigma > op.h * np.finfo(float).eps * sigma[0]))
    assert r == want_rank
    # B of one column, of even and odd widths, and of 128 columns, the
    # full width of the benchmark's 128x128 image
    for width in (1, 24, 31, 77, 128):
        b = blur(op, rand_image(p * q, width, seed=26, lo=0.05, hi=0.95))
        seen.clear()
        deblur_quaternion(op, b, route=route)
        want = geninv.pinv_solve(op.a, b, route=route)
        assert fro_norm(seen[0] - want) / fro_norm(want) \
            <= op.h * sigma[0] / sigma[r - 1] * np.finfo(float).eps


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_deblur_factors_only_the_two_bands(route, monkeypatch):
    # pinv sees T0 (p x p) and T1 (q x q), never the h x h A
    op = build_blur(4, 8, sigma=3.0, r=3, s=3)
    shapes = []
    invert = deblur_mod.pinv

    def spy(a, method="svd", route="direct"):
        shapes.append(a.shape)
        return invert(a, method=method, route=route)

    monkeypatch.setattr(deblur_mod, "pinv", spy)
    deblur_quaternion(op, blur(op, rand_image(32, 12, seed=28)), route=route)
    assert sorted(shapes) == [(4, 4), (8, 8)]


@pytest.mark.parametrize("width", [1, 31, 128])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_deblur_restores_by_one_product_of_its_route(route, width,
                                                     monkeypatch):
    # the restore applies pinv(mu T0) along p as one product of its own
    # route, p x p times p x (q n), and the real pinv(T1) along q with no
    # quaternion product; the invertible bands are inverted by the square
    # solve alone
    p, q = 16, 8
    op = build_blur(p, q, sigma=3.0, r=3, s=3)
    b = blur(op, rand_image(p * q, width, seed=44))
    calls = []

    def spy(name):
        real = getattr(qcore, name)

        def counted(x, y):
            calls.append((name, x.shape, y.shape))
            return real(x, y)

        monkeypatch.setattr(qcore, name, counted)

    spy("mat_mul")
    spy("crep_mul")
    deblur_quaternion(op, b, route=route)
    name = {"direct": "mat_mul", "crep": "crep_mul"}[route]
    assert calls == [(name, (p, p), (p, q * width))]


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_pinv_of_an_invertible_box_band_is_exactly_real(route):
    # the restore reads pinv(T1) as its real part: the square solve of real
    # data (reflectors on direct, an LU on crep) makes no imaginary and no
    # j part at all
    op = build_blur(2, 8, sigma=3.0, r=3, s=3)
    t1_inv = geninv.pinv(QMatrix.from_real(op.t1_blur), route=route)
    assert np.all(t1_inv.q1.imag == 0.0)
    assert np.all(t1_inv.q2 == 0.0)
    assert np.abs(t1_inv.q1.real).max() > 0.0


@pytest.mark.parametrize("p,q", [(16, 8), (2, 16)], ids=["h128", "box2x16"])
@pytest.mark.parametrize("route", ["direct", "crep"])
def test_an_image_of_no_columns_blurs_and_restores(route, p, q):
    op = build_blur(p, q, sigma=3.0, r=3, s=3)
    b = blur(op, ColorImage(*np.zeros((3, p * q, 0))))
    assert b.shape == (p * q, 0)
    img, m = deblur_quaternion(op, b, route=route)
    assert (img.h, img.w) == (p * q, 0) and m is None


def test_deblur_routes_agree():
    truth = rand_image(64, 6, seed=9, lo=0.1, hi=0.9)
    op = build_blur(8, 8, sigma=3.0, r=3, s=3)
    b = blur(op, truth)
    direct, _ = deblur_quaternion(op, b, route="direct")
    crep, _ = deblur_quaternion(op, b, route="crep")
    assert np.max(np.abs(direct.planes() - crep.planes())) <= 5e-9


def test_deblur_crep_route_makes_no_pair_product(monkeypatch):
    # the crep route solves for X_hat with its own arithmetic alone
    truth = rand_image(16, 12, seed=10, lo=0.1, hi=0.9)
    op = build_blur(2, 8, sigma=3.0, r=1, s=3)
    b = blur(op, truth)
    want, _ = deblur_quaternion(op, b, route="crep")

    def pair_product(x, y):
        raise AssertionError("pair product on the crep route")

    monkeypatch.setattr(geninv, "mat_mul", pair_product)
    monkeypatch.setattr(qcore, "mat_mul", pair_product)
    got, m = deblur_quaternion(op, b, truth=truth, route="crep")
    assert np.array_equal(got.planes(), want.planes())
    assert m.rr <= 1e-6


@pytest.mark.parametrize("b_shape,truth_shape", [((16, 16), (16, 12)),
                                                  ((8, 8), (8, 8))],
                         ids=["16x12", "8x8"])
def test_deblur_rejects_truth_before_the_inverse(b_shape, truth_shape,
                                                 monkeypatch):
    # a truth of another shape than B, or one smaller than the SSIM window,
    # is refused on entry and not after the h x h solve
    op = build_blur(b_shape[0] // 4, 4, sigma=3.0, r=3, s=2)
    b = blur(op, rand_image(*b_shape, seed=23))
    calls = []
    monkeypatch.setattr(deblur_mod, "pinv",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError):
        deblur_quaternion(op, b, truth=rand_image(*truth_shape, seed=24))
    assert calls == []


def test_real_block_restore_loses_correlation_structure():
    truth = rand_image(64, 16, seed=10, lo=0.05, hi=0.95)
    op = build_blur(8, 8, sigma=3.0, r=3, s=3)
    b = blur(op, truth)
    quat_img, quat_m = deblur_quaternion(op, b, truth=truth)
    real_img = real_block_restore(op, b)
    real_m = metrics(truth, real_img)
    dev_quat = np.max(np.abs(quat_m.corr_restored - quat_m.corr_orig))
    dev_real = np.max(np.abs(real_m.corr_restored - real_m.corr_orig))
    assert dev_quat <= dev_real
    assert quat_m.rr < real_m.rr


def test_deblur_report_fields():
    truth = rand_image(16, 16, seed=11, lo=0.1, hi=0.9)
    op = build_blur(4, 4, sigma=3.0, r=3, s=2)
    b = blur(op, truth)
    _, qm = deblur_quaternion(op, b, truth=truth)
    rm = metrics(truth, real_block_restore(op, b))
    report = deblur_report(op, truth, qm, rm)
    assert set(report) == {"psnr_db", "ssim", "rr", "corr_orig", "corr_quat",
                           "corr_real", "params", "blur_rank"}
    assert len(report["corr_quat"]) == 3
    report2 = deblur_report(op, truth, qm, None)
    assert report2["corr_real"] is None


# ---- restoration metrics ----

def test_metrics_identical_images():
    img = rand_image(16, 16, seed=12)
    m = metrics(img, img)
    assert m.psnr == PSNR_CAP_DB
    assert m.ssim == pytest.approx(1.0, abs=1e-12)
    assert m.rr == 0.0
    assert np.allclose(m.corr_orig, m.corr_restored)


def test_metrics_frozen_psnr():
    # uniform 0.1 offset on one of three channels: MSE = 0.01/3 exactly
    img = rand_image(16, 16, seed=13, lo=0.2, hi=0.6)
    shifted = ColorImage(img.r + 0.1, img.g, img.b)
    m = metrics(img, shifted)
    assert m.psnr == pytest.approx(24.771212547196626, abs=1e-12)


def test_metrics_psnr_monotone_in_noise():
    img = rand_image(16, 16, seed=14, lo=0.3, hi=0.7)
    rng = np.random.default_rng(15)
    noise = rng.uniform(-1.0, 1.0, size=(3, 16, 16))
    psnrs = []
    for amp in (0.01, 0.05, 0.2):
        noisy = ColorImage(*(img.planes() + amp * noise))
        psnrs.append(metrics(img, noisy).psnr)
    assert psnrs[0] > psnrs[1] > psnrs[2]


def test_metrics_ssim_penalizes_distortion():
    img = rand_image(24, 24, seed=16, lo=0.2, hi=0.8)
    rng = np.random.default_rng(17)
    noisy = ColorImage(*np.clip(
        img.planes() + 0.15 * rng.standard_normal((3, 24, 24)), 0.0, 1.0))
    m = metrics(img, noisy)
    assert m.ssim < 0.99


def ssim_2d_window(x, y):
    """Mean SSIM of one plane pair over all fully interior 11x11 windows,
    smoothing with the 2-D Gaussian window over a sliding window view: the
    reference for the separable band products of ``metrics``."""
    t = np.arange(-5, 6, dtype=float)
    g = np.exp(-(t**2) / (2.0 * 1.5**2))
    k = np.outer(g, g)
    k /= k.sum()

    def smooth(img):
        win = sliding_window_view(img, (11, 11))
        return np.tensordot(win, k, axes=([2, 3], [0, 1]))

    mu_x = smooth(x)
    mu_y = smooth(y)
    sxx = smooth(x * x) - mu_x**2
    syy = smooth(y * y) - mu_y**2
    sxy = smooth(x * y) - mu_x * mu_y
    c1, c2 = 0.01**2, 0.03**2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * sxy + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (sxx + syy + c2)
    return float(np.mean(num / den))


def _noisy(img, amp, seed):
    rng = np.random.default_rng(seed)
    return ColorImage(*np.clip(
        img.planes() + amp * rng.standard_normal(img.planes().shape), 0.0, 1.0))


def _constant(h, w, value):
    return ColorImage(*np.full((3, h, w), value))


@pytest.mark.parametrize("ref,est", [
    pytest.param(rand_image(11, 11, seed=25), rand_image(11, 11, seed=26),
                 id="11x11-one-window"),
    pytest.param(rand_image(12, 40, seed=27), rand_image(12, 40, seed=28),
                 id="12x40"),
    pytest.param(rand_image(64, 16, seed=29), rand_image(64, 16, seed=30),
                 id="64x16"),
    pytest.param(rand_image(128, 128, seed=31), rand_image(128, 128, seed=32),
                 id="128x128"),
    pytest.param(rand_image(48, 48, seed=34, lo=0.1, hi=0.9),
                 _noisy(rand_image(48, 48, seed=34, lo=0.1, hi=0.9), 0.3, 35),
                 id="clipped-noisy"),
    # no side a multiple of a block of windows, and one window row or column
    pytest.param(rand_image(37, 131, seed=36), rand_image(37, 131, seed=37),
                 id="37x131"),
    pytest.param(rand_image(11, 200, seed=38), rand_image(11, 200, seed=39),
                 id="11x200"),
    pytest.param(rand_image(200, 11, seed=40), rand_image(200, 11, seed=41),
                 id="200x11"),
    # window rows or columns a whole number of blocks (32 and 64)
    pytest.param(rand_image(42, 74, seed=42), rand_image(42, 74, seed=43),
                 id="42x74"),
    pytest.param(rand_image(74, 42, seed=44), rand_image(74, 42, seed=45),
                 id="74x42"),
    # windows across a strip boundary: one window row past a strip, and
    # two full strips
    pytest.param(rand_image(139, 40, seed=46), rand_image(139, 40, seed=47),
                 id="139x40"),
    pytest.param(rand_image(266, 30, seed=48), rand_image(266, 30, seed=49),
                 id="266x30"),
])
def test_metrics_ssim_matches_the_2d_window(ref, est):
    want = np.mean([ssim_2d_window(x, y)
                    for x, y in zip(ref.planes(), est.planes())])
    assert abs(metrics(ref, est).ssim - want) <= 1e-13


@pytest.mark.parametrize("est", [_constant(20, 30, 0.4),
                                 _noisy(_constant(20, 30, 0.4), 0.1, 33)],
                         ids=["equal", "noisy"])
def test_ssim_of_a_constant_plane_matches_the_2d_window(est):
    # sigma_x^2 = 0, so only C1 and C2 keep the quotient finite.  Scored per
    # plane: metrics() also returns channel correlations, which a constant
    # channel leaves undefined
    ref = _constant(20, 30, 0.4)
    want = [ssim_2d_window(x, y) for x, y in zip(ref.planes(), est.planes())]
    got = deblur_mod._ssim_planes(ref.planes(), est.planes())
    assert np.abs(got - want).max() <= 1e-13


def test_ssim_transient_memory_does_not_grow_with_height():
    # the planes run in strips of a fixed number of window rows, so the
    # peak allocation depends on the width alone
    peaks = []
    for h in (400, 800, 1600):
        x, y = (np.random.default_rng(seed).uniform(size=(1, h, 256))
                for seed in (50, 51))
        tracemalloc.start()
        try:
            deblur_mod._ssim_planes(x, y)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.1 * min(peaks), peaks


def test_metrics_correlation_of_identical_channels():
    rng = np.random.default_rng(18)
    plane = rng.uniform(0.0, 1.0, size=(12, 12))
    img = ColorImage(plane, plane, plane)
    m = metrics(img, img)
    assert np.allclose(m.corr_orig, np.ones((3, 3)))


def test_metrics_errors():
    img = rand_image(16, 16, seed=19)
    with pytest.raises(ValueError):
        metrics(img, rand_image(16, 12, seed=20))
    zero = ColorImage(*np.zeros((3, 16, 16)))
    with pytest.raises(ValueError):
        metrics(zero, img)  # zero reference: RR undefined
    small = rand_image(8, 8, seed=21)
    with pytest.raises(ValueError):
        metrics(small, small)  # smaller than the SSIM window


# ---- Lorenz simulation ----

def test_rk4_one_step_degenerate_frozen():
    # alpha=beta=rho=0 decouples dx=0, dy=-y-xz, dz=xy; single hand-checked step
    traj = lorenz_simulate(T=0.1, dt=0.1, alpha=0.0, beta=0.0, rho=0.0)
    assert traj.shape == (2, 3)
    assert traj[1, 0] == pytest.approx(1.0, abs=0.0)
    assert traj[1, 1] == pytest.approx(0.80515833333333331, abs=1e-16)
    assert traj[1, 2] == pytest.approx(1.0901708333333333, abs=1e-16)


def test_rk4_one_step_standard_frozen():
    traj = lorenz_simulate(T=0.05, dt=0.05)
    assert traj[1, 0] == pytest.approx(1.2914490668402778, abs=1e-15)
    assert traj[1, 1] == pytest.approx(2.3939333196017669, abs=1e-15)
    assert traj[1, 2] == pytest.approx(0.96345561528257517, abs=1e-15)


def rk4_on_arrays(T, dt, alpha=10.0, beta=8.0 / 3.0, rho=28.0,
                  start=(1.0, 1.0, 1.0)):
    """The RK4 of lorenz_simulate on three-element numpy arrays."""
    def deriv(v):
        x, y, z = v
        return np.array([alpha * (y - x), x * (rho - z) - y, x * y - beta * z])

    n_steps = math.floor(T / dt)
    traj = np.empty((n_steps + 1, 3))
    traj[0] = start
    v = np.array(start, dtype=float)
    for i in range(n_steps):
        k1 = deriv(v)
        k2 = deriv(v + 0.5 * dt * k1)
        k3 = deriv(v + 0.5 * dt * k2)
        k4 = deriv(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[i + 1] = v
    return traj


@pytest.mark.parametrize("args,kwargs", [
    ((10.0, 0.05), {}),
    ((50.0, 0.06), {}),
    ((7.3, 0.013), {"alpha": 9.5, "beta": 2.5, "rho": 30.0,
                    "start": (-3.0, 2.5, 20.0)}),
], ids=["T10-dt0.05", "T50-dt0.06", "custom-start-and-params"])
def test_rk4_on_floats_is_bit_identical_to_arrays(args, kwargs):
    traj = lorenz_simulate(*args, **kwargs)
    want = rk4_on_arrays(*args, **kwargs)
    assert traj.dtype == want.dtype and traj.shape == want.shape
    assert np.array_equal(traj, want)


def test_lorenz_sample_counts():
    assert lorenz_simulate(T=10.0, dt=0.05).shape == (201, 3)
    assert lorenz_simulate(T=50.0, dt=0.06).shape == (834, 3)


def test_lorenz_origin_is_fixed_point():
    traj = lorenz_simulate(T=1.0, dt=0.1, start=(0.0, 0.0, 0.0))
    assert np.all(traj == 0.0)


def test_lorenz_rejects_bad_steps():
    with pytest.raises(ValueError):
        lorenz_simulate(T=1.0, dt=0.0)
    with pytest.raises(ValueError):
        lorenz_simulate(T=-1.0, dt=0.1)


@pytest.mark.parametrize("kwargs", [
    dict(T=math.inf), dict(T=math.nan), dict(dt=math.inf), dict(dt=math.nan),
], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
def test_lorenz_refuses_non_finite_parameters(kwargs):
    # T = inf once raised OverflowError from math.floor(T / dt), and
    # dt = inf returned the start point alone
    (name, value), = kwargs.items()
    with pytest.raises(ValueError, match=f"positive and finite, got {name}="):
        lorenz_simulate(**{"T": 1.0, "dt": 0.1, **kwargs})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta", "rho"])
def test_lorenz_refuses_non_finite_model_parameters(name, value):
    # these once ran every RK4 step and then blamed the step: "RK4 diverged
    # at dt=0.1: take a smaller step"
    with pytest.raises(ValueError, match=f"must be finite, got {name}="):
        lorenz_simulate(T=1.0, dt=0.1, **{name: value})


def test_lorenz_rejects_a_diverging_step():
    with pytest.raises(ValueError, match="RK4 diverged"):
        lorenz_simulate(T=200.0, dt=0.5)


def test_rk4_step_halving_is_fourth_order():
    # endpoint error vs a fine reference shrinks ~16x when dt halves
    ref = lorenz_simulate(T=0.5, dt=0.0005)[-1]
    err1 = np.linalg.norm(lorenz_simulate(T=0.5, dt=0.01)[-1] - ref)
    err2 = np.linalg.norm(lorenz_simulate(T=0.5, dt=0.005)[-1] - ref)
    assert 12.0 <= err1 / err2 <= 20.0


# ---- filter system ----

def test_filter_scalar_case():
    traj = lorenz_simulate(T=1.0, dt=0.1)
    fs = build_filter_system(traj, dt=0.1, delay_samples=0, noise_sigma=0.0,
                             order=0, seed=0)
    assert fs.c.shape == (1, 1) and fs.f.shape == (1, 1)
    assert fs.e <= 1e-12
    assert fs.t_start == 0


@pytest.mark.parametrize("noise_sigma", [math.inf, math.nan, -0.01])
def test_filter_refuses_a_bad_noise_sigma(noise_sigma):
    # a NaN sigma once ran without noise, an infinite one failed in rank()
    traj = lorenz_simulate(T=3.0, dt=0.1)
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        build_filter_system(traj, 0.1, delay_samples=10,
                            noise_sigma=noise_sigma, order=5, seed=0)


def test_filter_desk_scale():
    traj = lorenz_simulate(T=4.0, dt=0.05)
    delay = 20
    order = default_order(traj.shape[0], delay)
    assert order == 30
    fs = build_filter_system(traj, 0.05, delay, noise_sigma=0.01,
                             order=order, seed=1)
    assert fs.c.shape == (31, 31)
    assert fs.e <= 1e-8
    assert fs.t_start == 50


def test_filter_toeplitz_structure_and_delay():
    traj = lorenz_simulate(T=3.0, dt=0.1)
    fs = build_filter_system(traj, 0.1, delay_samples=10, noise_sigma=0.0,
                             order=5, seed=2)
    # constant diagonals
    assert fs.c.q1[0, 0] == fs.c.q1[3, 3]
    assert fs.c.q2[1, 0] == fs.c.q2[4, 3]
    # with zero noise, C entries are delayed trajectory samples exactly
    assert fs.c.q1[0, 0] == pytest.approx(1j * traj[5, 0])
    assert fs.d.q1[0, 0] == pytest.approx(1j * traj[15, 0])


def test_filter_noise_is_reproducible():
    traj = lorenz_simulate(T=3.0, dt=0.1)
    kw = dict(dt=0.1, delay_samples=10, noise_sigma=0.05, order=5)
    a = build_filter_system(traj, seed=3, **kw)
    b = build_filter_system(traj, seed=3, **kw)
    c = build_filter_system(traj, seed=4, **kw)
    assert np.array_equal(a.c.q1, b.c.q1) and a.e == b.e
    assert not np.array_equal(a.c.q1, c.c.q1)


def test_filter_trajectory_too_short():
    traj = lorenz_simulate(T=1.0, dt=0.1)  # 11 samples
    with pytest.raises(ValueError):
        build_filter_system(traj, 0.1, delay_samples=10, noise_sigma=0.0,
                            order=1, seed=0)
    with pytest.raises(ValueError):
        default_order(5, 10)


def test_filter_routes_agree():
    traj = lorenz_simulate(T=3.0, dt=0.1)
    kw = dict(dt=0.1, delay_samples=10, noise_sigma=0.01, order=5, seed=5)
    fd = build_filter_system(traj, route="direct", **kw)
    fc = build_filter_system(traj, route="crep", **kw)
    assert fro_norm(fd.f - fc.f) <= 1e-10 * max(1.0, fro_norm(fc.f))


# ---- CSV outputs ----

def test_trajectory_csv(tmp_path):
    traj = lorenz_simulate(T=0.5, dt=0.1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj, 0.1)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == traj.shape[0] + 1
    t, x, y, z = (float(v) for v in lines[3].split(","))
    assert t == pytest.approx(0.2) and x == traj[2, 0]


def test_filter_csv(tmp_path):
    traj = lorenz_simulate(T=3.0, dt=0.1)
    fs = build_filter_system(traj, 0.1, delay_samples=10, noise_sigma=0.01,
                             order=4, seed=6)
    path = tmp_path / "filt.csv"
    write_filter_csv(path, fs, 0.1)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,dr,dg,db,dhat_r,dhat_g,dhat_b"
    assert len(lines) == fs.d.shape[0] + 1
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == pytest.approx(fs.t_start * 0.1)
    assert row[1] == fs.d.q1.imag[0, 0]
    # filtered estimate reproduces the target to the solve tolerance
    assert abs(row[4] - row[1]) <= 1e-6


# ---- refusals no other test reaches ----

@pytest.mark.parametrize("data, message", [
    (b"P3\n2 x\n255\n", "truncated or non-numeric header"),
    (b"P3\n1 1\n255\n1 two 3\n", "non-numeric raster sample"),
    (b"P3\n1 1\n255\n1 256 3\n", r"sample out of range 0\.\.255"),
])
def test_ppm_refusals_name_their_fault(tmp_path, data, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(data)
    with pytest.raises(PpmFormatError, match=message):
        read_ppm(path)


@pytest.mark.parametrize("restore", ["quaternion", "real"])
def test_restores_refuse_data_of_another_height(restore):
    op = build_blur(2, 3, sigma=1.0, r=1, s=1)
    b = QMatrix.zeros(5, 4)
    with pytest.raises(ValueError, match="blurred data height 5 does not "
                                         "match operator 6"):
        if restore == "quaternion":
            deblur_quaternion(op, b)
        else:
            real_block_restore(op, b)


@pytest.mark.parametrize("order, delay", [(-1, 0), (2, -3)])
def test_filter_system_refuses_a_negative_order_or_delay(order, delay):
    traj = lorenz_simulate(1.0, 0.01)
    with pytest.raises(ValueError, match=f"order and delay must be >= 0, "
                                         f"got {order}, {delay}"):
        build_filter_system(traj, 0.01, delay, 0.0, order)


@pytest.mark.parametrize("route", ["direct", "crep"])
def test_filter_system_refuses_an_all_zero_target(route):
    # the origin is a fixed point of the Lorenz system, so every sample is 0
    traj = lorenz_simulate(1.0, 0.01, start=(0.0, 0.0, 0.0))
    assert not traj.any()
    with pytest.raises(ValueError, match="target signal is identically zero"):
        build_filter_system(traj, 0.01, 2, 0.0, 3, route=route)
