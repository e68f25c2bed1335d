"""Span recorder for the traced run.

Timing wrappers replace every module attribute of the library that is bound
to one of the public functions in LAYERS, so calls through by-name imports
(``geninv`` imports ``rank``, ``qsvd`` and ``mat_mul``; ``apps.deblur``
imports ``pinv``) and through ``QMatrix.__matmul__`` are all seen.  A span is
(name, start, end, parent, op id); spans stay in memory and are written out
when the run ends.  Calls made outside an op (input generation, checks) are
passed straight through and not recorded.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

from perfbench.workloads import ROUTES

# layer name -> (module, attribute)
LAYERS = {
    "qcore.mat_mul": ("quatinv.qcore", "mat_mul"),
    "qcore.crep_mul": ("quatinv.qcore", "crep_mul"),
    "qcore.to_crep": ("quatinv.qcore", "to_crep"),
    "qcore.from_crep": ("quatinv.qcore", "from_crep"),
    "qcore.symmetrize_crep": ("quatinv.qcore", "symmetrize_crep"),
    "factor.rank": ("quatinv.factor", "rank"),
    "factor.qsvd": ("quatinv.factor", "qsvd"),
    "factor.full_rank_decompose": ("quatinv.factor", "full_rank_decompose"),
    "factor.one_inverse": ("quatinv.factor", "one_inverse"),
    "geninv.pinv_report": ("quatinv.geninv", "pinv_report"),
    "geninv.outer_w_right": ("quatinv.geninv", "outer_w_right"),
    "geninv.outer_w_left": ("quatinv.geninv", "outer_w_left"),
    "geninv.drazin": ("quatinv.geninv", "drazin"),
    "geninv.mat_index": ("quatinv.geninv", "mat_index"),
    "geninv.pinv_solve": ("quatinv.geninv", "pinv_solve"),
    "geninv.penrose_residuals": ("quatinv.geninv", "penrose_residuals"),
    "apps.build_blur": ("quatinv.apps.deblur", "build_blur"),
    "apps.blur": ("quatinv.apps.deblur", "blur"),
    "apps.deblur_quaternion": ("quatinv.apps.deblur", "deblur_quaternion"),
    "apps.metrics": ("quatinv.apps.deblur", "metrics"),
    "apps.lorenz_simulate": ("quatinv.apps.lorenz", "lorenz_simulate"),
    "apps.build_filter_system": ("quatinv.apps.lorenz", "build_filter_system"),
}

# layers reported once per route, split by the argument that picks it
SPLIT = {"factor.qsvd": "method", "factor.full_rank_decompose": "route"}

# products whose flops are computed from operand shapes: A (m, k) @ B (k, n)
# is 4 complex GEMMs of m k n (mat_mul) or one of m 2k 2n (crep_mul), and a
# complex multiply-add is 8 real flops, so 32 m k n either way
GEMM_LAYERS = ("qcore.mat_mul", "qcore.crep_mul")


def layer_names():
    """Every reported layer, with the split layers expanded per route."""
    names = []
    for name in LAYERS:
        if name in SPLIT:
            names += [f"{name}.{route}" for route in ROUTES]
        else:
            names.append(name)
    return names


class Recorder:
    """Installs the wrappers and keeps the spans of the ops it is told about."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, op, flops]
        self.scales = []      # per op: the speed-probe scale of its times
        self._ops = 0
        self._op = None
        self._stack = []
        self._patched = []    # (module, attribute, original)
        self.t0 = time.perf_counter()

    # -- op boundaries ------------------------------------------------------

    def begin_op(self):
        self._op = self._ops
        self._ops += 1

    def end_op(self):
        self._op = None
        self._stack.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        param = SPLIT.get(name)
        sig = inspect.signature(fn) if param else None
        gemm = name in GEMM_LAYERS

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            label = name
            if param:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                label = f"{name}.{bound.arguments[param]}"
            flops = 0
            if gemm:
                (m, k), n = args[0].shape, args[1].shape[1]
                flops = 32 * m * k * n
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [label, 0.0, 0.0, parent, self._op, flops]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "quatinv" or key.startswith("quatinv.")]
        for name, (mod_name, attr) in LAYERS.items():
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def per_layer(self):
        """Per-op call counts, self times and computed GEMM rates.

        Self times carry the op's speed-probe scale, like the end-to-end
        times, once the caller has set ``scales``; the GEMM rates follow
        from them."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        flops = defaultdict(int)
        for idx, (name, start, end, _, op, fl) in enumerate(self.spans):
            calls[name] += 1
            scale = self.scales[op] if self.scales else 1.0
            self_s[name] += (end - start - child[idx]) * scale
            flops[name] += fl
        ops = max(self._ops, 1)
        out = {}
        for name in layer_names():
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / ops
        out["svd.calls"] = sum(out[f"{name}.calls"] for name in (
            "factor.rank", "factor.qsvd.direct", "factor.qsvd.crep"))
        for name in GEMM_LAYERS:
            out[f"{name}.gflops"] = (flops[name] / self_s[name] / 1e9
                                     if self_s[name] > 0 else 0.0)
        return out

    def write_spans(self, path):
        """One JSON object per line; times in seconds from the recorder's
        creation, parent as an index into the file's lines (-1: none)."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent,
                                     "op": op}) + "\n")
