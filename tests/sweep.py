"""Same-results sweep: every public function of ``quatinv.factor`` and
``quatinv.geninv`` on both routes over one fixed seeded family of inputs.

A refactor that claims to change no floating-point operation is checked by
running the sweep on the tree before and after it and comparing::

    python tests/sweep.py --src OLD/src --out old.json
    python tests/sweep.py --src NEW/src --out new.json
    python tests/sweep.py --compare old.json new.json

``--src`` names the ``src`` directory whose ``quatinv`` is imported (it
must not already be importable from elsewhere first).  ``--out`` writes,
per output array of every call, its SHA-256 digest and largest magnitude
(or the exception's type and message) to FILE, and the arrays themselves
to FILE.npz.  ``--compare`` lists each output that differs, with its
largest relative difference ``max|a - b| / max(max|a|, max|b|)``; it exits
1 when anything differs.  Run it with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``) on both sides: a threaded BLAS may round a
product differently from one run to the next.

The family, for each order n from 1 to ``--max-order`` (12 by default), in
square n-by-n, tall (n + 3)-by-n and wide n-by-(n + 3) shapes: full rank,
rank deficient (rank about n / 2), zero, and graded (columns scaled from 1
down to 1e-10), plus, for square orders above k, an A of index k for
k = 0 to 3 (a unitary similarity of an invertible block and a nilpotent
Jordan block of order k).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

KINDS = ("full", "deficient", "zero", "graded")
ROUTES = ("direct", "crep")


def _qmul(x, y):
    # the quaternion product of component pairs (x1, x2) and (y1, y2)
    return (x[0] @ y[0] - x[1] @ np.conj(y[1]),
            x[0] @ y[1] + x[1] @ np.conj(y[0]))


def _random(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)),
            rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def _matrix(kind, m, n, rng):
    # the components (q1, q2) of one input of the family
    if kind == "full":
        return _random(rng, m, n)
    if kind == "deficient":
        r = max(1, min(m, n) // 2)
        return _qmul(_random(rng, m, r), _random(rng, r, n))
    if kind == "zero":
        return np.zeros((m, n), complex), np.zeros((m, n), complex)
    scale = np.logspace(0, -10, n)  # graded
    q1, q2 = _random(rng, m, n)
    return q1 * scale, q2 * scale


def _indexed(k, n, rng):
    # U (C (+) J_k) U* for a complex unitary U, so A has index k exactly;
    # j U* = U^T j, so (U B U*)2 = U B2 U^T
    b1, b2 = _random(rng, n, n)
    b1[n - k:, :] = b2[n - k:, :] = 0.0
    b1[:, n - k:] = b2[:, n - k:] = 0.0
    for i in range(n - k, n - 1):
        b1[i, i + 1] = 1.0
    u = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    return u @ b1 @ np.conj(u.T), u @ b2 @ u.T


def family(max_order):
    """(name, (q1, q2)) of every input, in a fixed order and from one seed."""
    rng = np.random.default_rng(20261022)
    for n in range(1, max_order + 1):
        for shape, (m, c) in (("square", (n, n)), ("tall", (n + 3, n)),
                              ("wide", (n, n + 3))):
            for kind in KINDS:
                yield f"n{n}-{shape}-{kind}", _matrix(kind, m, c, rng)
        for k in range(min(3, n - 1) + 1):
            yield f"n{n}-index{k}", _indexed(k, n, rng)


def _calls(quatinv, a, rng):
    # (constructor, route or None, thunk) of every call made on a: the
    # extra operands are drawn now, so each call sees the same ones.  S
    # (n, q) and T (q, m) generate rank-q spaces on the right (swapped on
    # the left); W and Z have A*'s shape
    fa, gi = quatinv.factor, quatinv.geninv
    QMatrix = quatinv.qcore.QMatrix
    m, n = a.shape
    q = max(1, min(m, n) // 2 + 1)

    def draw(rows, cols):
        return QMatrix(*_random(rng, rows, cols))

    z, b, s, t, w = (draw(n, m), draw(m, 2), draw(n, q), draw(q, m),
                     draw(n, m))
    yield "rank", None, lambda: fa.rank(a)
    yield "penrose_residuals", None, lambda: gi.penrose_residuals(a, z)
    if m == n:
        yield "mat_index", None, lambda: gi.mat_index(a)
    for route in ROUTES:
        yield "qsvd-full", route, lambda r=route: fa.qsvd(a, r, full=True)
        yield "qsvd-compact", route, lambda r=route: fa.qsvd(a, r, full=False)
        yield ("full_rank_decompose", route,
               lambda r=route: fa.full_rank_decompose(a, r))
        yield "one_inverse", route, lambda r=route: fa.one_inverse(a, None, r)
        yield "one_inverse-z", route, lambda r=route: fa.one_inverse(a, z, r)
        for method in ("svd", "frd"):
            yield (f"pinv-{method}", route,
                   lambda r=route, mt=method: gi.pinv(a, mt, r))
            yield (f"pinv_report-{method}", route,
                   lambda r=route, mt=method: gi.pinv_report(a, mt, r))
        yield "pinv_solve", route, lambda r=route: gi.pinv_solve(a, b, r)
        yield "outer_right", route, lambda r=route: gi.outer_right(a, s, t, r)
        yield "outer_left", route, lambda r=route: gi.outer_left(a, t, s, r)
        yield "outer_both", route, lambda r=route: gi.outer_both(a, w, z, r)
        yield "outer_w_right", route, lambda r=route: gi.outer_w_right(a, w, r)
        yield "outer_w_left", route, lambda r=route: gi.outer_w_left(a, w, r)
        if m == n:
            yield "drazin", route, lambda r=route: gi.drazin(a, r)
            yield ("group_inverse", route,
                   lambda r=route: gi.group_inverse(a, r))


def _arrays(out):
    # the named arrays of a constructor's result
    if isinstance(out, (int, np.integer)):
        return {"value": np.asarray(out)}
    if isinstance(out, dict):  # penrose_residuals
        return {key: np.asarray(value) for key, value in sorted(out.items())}
    if hasattr(out, "q1"):  # a QMatrix
        return {"x": np.stack([out.q1, out.q2])}
    if hasattr(out, "sigma"):  # QSvdResult
        return {"u": np.stack([out.u.q1, out.u.q2]), "sigma": out.sigma,
                "v": np.stack([out.v.q1, out.v.q2]),
                "rank": np.asarray(out.rank)}
    if hasattr(out, "g"):  # FullRankFactorization
        return {"f": np.stack([out.f.q1, out.f.q2]),
                "g": np.stack([out.g.q1, out.g.q2]), "r": np.asarray(out.r)}
    arrays = {"x": np.stack([out.x.q1, out.x.q2]),  # InverseReport
              "exists": np.asarray(out.exists)}
    for field in ("classification", "residuals", "ranks"):
        for key, value in sorted(getattr(out, field).items()):
            arrays[f"{field}.{key}"] = np.asarray(
                np.nan if value is None else value)
    return arrays


def _digest(arr):
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def sweep(quatinv, max_order):
    """(records, arrays): per call id, {output: {digest, max}} or
    {"error": "Type: message"}, and per output id its array."""
    QMatrix = quatinv.qcore.QMatrix
    records, arrays = {}, {}
    rng = np.random.default_rng(1)
    for name, (q1, q2) in family(max_order):
        a = QMatrix(q1, q2)
        for ctor, route, call in _calls(quatinv, a, rng):
            key = f"{name}/{ctor}" + (f"/{route}" if route else "")
            try:
                with np.errstate(all="ignore"):
                    out = _arrays(call())
            except Exception as exc:  # recorded, as an output would be
                records[key] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            records[key] = {}
            for out_name, arr in out.items():
                records[key][out_name] = {
                    "digest": _digest(arr),
                    "max": float(np.max(np.abs(arr), initial=0.0))}
                arrays[f"{key}|{out_name}"] = arr
    return records, arrays


def _import(src):
    # quatinv from the src directory given, refusing one found elsewhere
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import quatinv
    import quatinv.factor
    import quatinv.geninv

    where = quatinv.factor.__file__  # quatinv is a namespace package
    if not Path(where).resolve().is_relative_to(src):
        raise SystemExit(f"quatinv loads from {where}, not from {src}")
    return quatinv


def compare(path_a, path_b):
    """The lines that describe each output that differs between two runs."""
    rec_a = json.loads(Path(path_a).read_text())
    rec_b = json.loads(Path(path_b).read_text())
    arr_a = np.load(f"{path_a}.npz")
    arr_b = np.load(f"{path_b}.npz")
    lines = []
    for key in sorted(rec_a.keys() | rec_b.keys()):
        a, b = rec_a.get(key), rec_b.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {path_a if b is None else path_b}")
        elif "error" in a or "error" in b:
            if a != b:
                lines.append(f"{key}: {a.get('error', 'returned')} | "
                             f"{b.get('error', 'returned')}")
        else:
            for out in sorted(a.keys() | b.keys()):
                if a.get(out) == b.get(out):
                    continue
                x, y = arr_a.get(f"{key}|{out}"), arr_b.get(f"{key}|{out}")
                if x is None or y is None or x.shape != y.shape:
                    lines.append(f"{key} {out}: missing or of another shape")
                    continue
                x, y = x.astype(complex), y.astype(complex)
                top = max(np.max(np.abs(x), initial=0.0),
                          np.max(np.abs(y), initial=0.0))
                diff = np.max(np.abs(x - y), initial=0.0)
                lines.append(f"{key} {out}: largest relative difference "
                             f"{diff / top if top else diff:.3e}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="the src directory to import from")
    parser.add_argument("--out", help="the JSON record to write")
    parser.add_argument("--max-order", type=int, default=12)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) if lines else
              "every output of every constructor is equal bit for bit")
        return 1 if lines else 0
    if not (args.src and args.out):
        parser.error("--src and --out are needed unless --compare is given")
    records, arrays = sweep(_import(args.src), args.max_order)
    Path(args.out).write_text(json.dumps(records, indent=1, sort_keys=True))
    with open(f"{args.out}.npz", "wb") as fh:
        np.savez(fh, **arrays)
    print(f"{len(records)} calls, {len(arrays)} output arrays -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
