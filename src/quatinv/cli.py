"""Command-line interface: one subcommand per constructor plus both pipelines.

Exit codes: 0 success; 1 the requested inverse does not exist (a diagnostic
JSON is still produced); 2 usage, input-format or numerical errors (one line
on stderr, no traceback), a floating-point overflow, invalid value or
division by zero in numpy included.  All machine-readable
output is JSON (``--json``) or the documented CSV/PPM/.qmat files; stdout
carries a short human summary.

Each subcommand accepts only the shared flags it reads; any other is a usage
error (exit 2):

  =======================  =======  ======  =====  =====  ======
  subcommand               --route  --seed  --tol  --out  --json
  =======================  =======  ======  =====  =====  ======
  pinv, outer, outer-w     yes              yes    yes    yes
  drazin, group, frd, svd  yes                     yes    yes
  rank                                                    yes
  deblur                   yes                     yes    yes
  lorenz-filter            yes      yes            yes    yes
  =======================  =======  ======  =====  =====  ======
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .qcore import (
    QMatrix,
    QmatFormatError,
    fro_norm,
    mat_mul,
    read_qmat,
    write_qmat,
)
from .factor import full_rank_decompose, qsvd, rank as qrank
from .geninv import (
    InverseExistenceError,
    _spectral,
    outer_both,
    outer_left,
    outer_right,
    outer_w_right,
    pinv_report,
)
from .apps import (
    PpmFormatError,
    blur,
    build_blur,
    build_filter_system,
    deblur_quaternion,
    deblur_report,
    default_order,
    lorenz_simulate,
    metrics,
    read_ppm,
    real_block_restore,
    write_filter_csv,
    write_ppm,
    write_trajectory_csv,
)

__all__ = ["main", "build_parser"]


def _emit_json(args, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_payload(op, a, rep, tol):
    # --tol judges one = ||AXA - A|| and outer = ||XAX - X|| relative to
    # ||A|| and ||X||, whose scale they carry (a zero norm divides nothing);
    # p3 and p4 (AX and XA Hermitian) carry no scale and are taken as they are.
    # The zero X of an inverse that does not exist is not judged
    norms = {"one": fro_norm(a), "outer": fro_norm(rep.x)}
    scaled = {k: v / norms[k] if norms.get(k) else v
              for k, v in rep.residuals.items()}
    name, worst = max(scaled.items(), key=lambda kv: kv[1],
                      default=("", 0.0))
    within = bool(worst <= tol)  # a NaN residual is not
    if rep.exists and not within:
        print(f"{op}: warning: worst scaled residual {name} = {worst:.3e} "
              f"exceeds --tol {tol:g}", file=sys.stderr)
    return {
        "op": op,
        "route": rep.route,
        "side": rep.side,
        "exists": rep.exists,
        "reason": rep.reason,
        "classification": rep.classification,
        "ranks": rep.ranks,
        "residuals": rep.residuals,
        "within_tol": rep.exists and within,
        "shape": list(rep.x.shape),
    }


def _maybe_write(args, x: QMatrix) -> None:
    if args.out:
        write_qmat(args.out, x)


def _finish_report(args, op, a, rep, summary, **extra) -> int:
    # the one exit path of pinv, outer and outer-w: --out only for an X that
    # exists, then the JSON, then the summary (0) or the reason on stderr (1)
    payload = {**_report_payload(op, a, rep, args.tol), **extra}
    if rep.exists:
        _maybe_write(args, rep.x)
    _emit_json(args, payload)
    if not rep.exists:
        print(f"{op}: {rep.reason}", file=sys.stderr)
        return 1
    print(summary)
    return 0


def cmd_pinv(args) -> int:
    a = read_qmat(args.infile)
    rep = pinv_report(a, method=args.method, route=args.route)
    return _finish_report(
        args, "pinv", a, rep,
        f"pinv {a.shape[0]}x{a.shape[1]} method={args.method} "
        f"route={args.route}: max residual "
        f"{max(rep.residuals.values()):.3e}", method=args.method)


# --side -> the outer constructor it names
_OUTER = {"right": outer_right, "left": outer_left, "both": outer_both}


def cmd_outer(args) -> int:
    a = read_qmat(args.infile)
    rep = _OUTER[args.side](a, read_qmat(args.s), read_qmat(args.t),
                            route=args.route)
    flags = ", ".join(k for k, v in rep.classification.items() if v is True)
    return _finish_report(
        args, "outer", a, rep,
        f"outer side={args.side}: {flags or 'no classification flags set'}")


def cmd_outer_w(args) -> int:
    a = read_qmat(args.infile)
    rep = outer_w_right(a, read_qmat(args.w), route=args.route)
    return _finish_report(
        args, "outer-w", a, rep,
        f"outer-w: outer residual {rep.residuals['outer']:.3e}")


def _cmd_spectral(args, group: bool) -> int:
    # drazin and group: X from the one index walk, then three residuals
    op = "group" if group else "drazin"
    a = read_qmat(args.infile)
    k, pow_k, x = _spectral(a, args.route, group=group)
    _maybe_write(args, x)
    ax, xa = mat_mul(a, x), mat_mul(x, a)
    res = {"outer": fro_norm(mat_mul(xa, x) - x), "commute": fro_norm(ax - xa)}
    if group:
        res["one"] = fro_norm(mat_mul(ax, a) - a)
        summary = (f"residuals one={res['one']:.3e} "
                   f"commute={res['commute']:.3e}")
    else:
        if pow_k is None:  # A^0 = I
            pow_k = QMatrix.eye(a.nrows)
        res["power"] = fro_norm(mat_mul(a, mat_mul(pow_k, x)) - pow_k)
        summary = (f"index {k}, residuals outer={res['outer']:.3e} "
                   f"commute={res['commute']:.3e} power={res['power']:.3e}")
    _emit_json(args, {"op": op, "route": args.route, "index": k,
                      "shape": list(a.shape), "residuals": res})
    print(f"{op}: {summary}")
    return 0


def cmd_rank(args) -> int:
    a = read_qmat(args.infile)
    r = qrank(a)
    _emit_json(args, {"op": "rank", "shape": list(a.shape), "rank": r})
    print(f"rank {r}")
    return 0


def cmd_frd(args) -> int:
    a = read_qmat(args.infile)
    fact = full_rank_decompose(a, route=args.route)
    if args.out:
        write_qmat(args.out + ".F.qmat", fact.f)
        write_qmat(args.out + ".G.qmat", fact.g)
    recon = fro_norm(mat_mul(fact.f, fact.g) - a)
    _emit_json(args, {"op": "frd", "route": args.route,
                      "rank": fact.r, "shape": list(a.shape),
                      "f_shape": list(fact.f.shape),
                      "g_shape": list(fact.g.shape),
                      "reconstruction_residual": recon})
    print(f"frd: rank {fact.r}, ||FG-A|| = {recon:.3e}")
    return 0


def cmd_svd(args) -> int:
    a = read_qmat(args.infile)
    sv = qsvd(a, method=args.route)
    if args.out:
        write_qmat(args.out + ".U.qmat", sv.u)
        write_qmat(args.out + ".V.qmat", sv.v)
    _emit_json(args, {"op": "svd", "route": args.route,
                      "shape": list(a.shape), "rank": sv.rank,
                      "sigma": [float(s) for s in sv.sigma]})
    print(f"svd: rank {sv.rank}, sigma_max {sv.sigma[0] if len(sv.sigma) else 0.0:.6g}")
    return 0


def cmd_deblur(args) -> int:
    img = read_ppm(args.image)
    # before build_blur, whose p x p and q x q bands can outgrow memory
    if args.p * args.q != img.h:
        raise ValueError(f"image height {img.h} does not match operator "
                         f"size {args.p * args.q}")
    op = build_blur(args.p, args.q, args.sigma, args.r, args.s)
    b = blur(op, img)
    restored, quat_m = deblur_quaternion(op, b, truth=img, route=args.route)
    real_m = None
    if args.compare_real or args.real_out:
        real_img = real_block_restore(op, b)
        real_m = metrics(img, real_img)
        if args.real_out:
            write_ppm(args.real_out, real_img)
    if args.out:
        write_ppm(args.out, restored)
    _emit_json(args, deblur_report(op, img, quat_m, real_m))
    print(f"deblur {img.h}x{img.w}: PSNR {quat_m.psnr:.2f} dB, "
          f"SSIM {quat_m.ssim:.4f}, RR {quat_m.rr:.3e}")
    return 0


def cmd_lorenz_filter(args) -> int:
    traj = lorenz_simulate(args.T, args.dt)
    delay = round(1.0 / args.dt)
    order = args.order if args.order is not None \
        else default_order(traj.shape[0], delay)
    fs = build_filter_system(traj, args.dt, delay, args.noise_sigma,
                             order, seed=args.seed, route=args.route)
    if args.out:
        write_trajectory_csv(args.out + ".trajectory.csv", traj, args.dt)
        write_filter_csv(args.out + ".filter.csv", fs, args.dt)
    _emit_json(args, {"op": "lorenz-filter", "T": args.T, "dt": args.dt,
                      "n_samples": int(traj.shape[0]),
                      "delay_samples": delay, "order": order,
                      "noise_sigma": args.noise_sigma, "seed": args.seed,
                      "relative_error": fs.e})
    print(f"lorenz-filter: C is {order + 1}x{order + 1}, e = {fs.e:.6e}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line, as for every other exit-2 failure
        self.exit(2, f"{self.prog}: error: {message}\n")


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one shared flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The ``quatinv`` argument parser: one subcommand per constructor and
    pipeline, each taking only the shared flags its command reads."""
    route = _flag("--route", choices=["direct", "crep"], default="direct",
                  help="quaternion arithmetic or complex representation")
    seed = _flag("--seed", type=int, default=0,
                 help="seed of the measurement noise (default: 0)")
    tol = _flag("--tol", type=float, default=1e-8,
                help="tolerance for within_tol on the residuals one/||A|| "
                "and outer/||X|| (p3, p4 as they are); a worst one above "
                "it prints a warning on stderr")
    out = _flag("--out", default=None,
                help="output file (or prefix for multi-file commands)")
    report = _flag("--json", default=None,
                   help="write the JSON report here instead of stdout")
    source = _flag("--in", dest="infile", required=True,
                   help="input matrix (.qmat)")
    # each subcommand takes exactly the shared flags its cmd_* reads
    checked = [source, route, tol, out, report]  # pinv, outer, outer-w
    plain = [source, route, out, report]         # drazin, group, frd, svd

    parser = _Parser(
        prog="quatinv",
        description="Generalized inverses of quaternion matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", parents=checked,
                       help="Moore-Penrose inverse")
    p.add_argument("--method", choices=["svd", "frd"], default="svd")
    p.set_defaults(func=cmd_pinv)

    p = sub.add_parser("outer", parents=checked,
                       help="outer inverse from generator pair (S, T)")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--side", choices=list(_OUTER), default="right")
    p.set_defaults(func=cmd_outer)

    p = sub.add_parser("outer-w", parents=checked,
                       help="outer inverse with all four spaces of W")
    p.add_argument("--w", required=True,
                   help="W (.qmat), n x m for an m x n A; its factorization "
                   "W = F G gives X = F (G A F)^-1 G")
    p.set_defaults(func=cmd_outer_w)

    p = sub.add_parser("drazin", parents=plain, help="Drazin inverse")
    p.set_defaults(func=lambda args: _cmd_spectral(args, group=False))

    p = sub.add_parser("group", parents=plain, help="group inverse")
    p.set_defaults(func=lambda args: _cmd_spectral(args, group=True))

    p = sub.add_parser("rank", parents=[source, report], help="numerical rank")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("frd", parents=plain,
                       help="full rank decomposition A = F G")
    p.set_defaults(func=cmd_frd)

    p = sub.add_parser("svd", parents=plain,
                       help="quaternion singular value decomposition")
    p.set_defaults(func=cmd_svd)

    p = sub.add_parser("deblur", parents=[route, out, report],
                       help="blur + pseudoinverse restore a PPM image")
    p.add_argument("--image", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sigma", type=float, default=3.0)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--compare-real", action="store_true",
                   help="also restore through the real block system")
    p.add_argument("--real-out", default=None,
                   help="write the real-block restoration here (PPM); "
                        "implies --compare-real")
    p.set_defaults(func=cmd_deblur)

    p = sub.add_parser("lorenz-filter", parents=[route, seed, out, report],
                       help="quaternion FIR filter on a Lorenz trajectory")
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--noise-sigma", type=float, default=0.01)
    p.add_argument("--order", type=int, default=None,
                   help="filter order n (default: largest that fits)")
    p.set_defaults(func=cmd_lorenz_filter)

    return parser


def main(argv=None) -> int:
    """Run ``quatinv`` on argv (default ``sys.argv[1:]``) and return its
    exit code: 0 success, 1 the requested inverse does not exist, 2 a usage,
    input or numerical error, reported as one stderr line."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # a numpy overflow (or an invalid value or division by zero) stops
        # the command rather than printing a warning and going on with Inf
        with np.errstate(all="raise", under="ignore"):
            return args.func(args)
    except InverseExistenceError as exc:
        _emit_json(args, {"op": args.command, "exists": False,
                          "reason": str(exc)})
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except (QmatFormatError, PpmFormatError, ValueError, OSError,
            RuntimeError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        print(f"{args.command}: error: floating-point overflow or invalid "
              f"value ({exc.args[-1]})", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"{args.command}: error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
