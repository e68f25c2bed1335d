"""Closed-loop measurement of one workload on both routes.

One client runs the workload's op on each input of a seeded pool, first on
the ``direct`` route and then on ``crep``, waiting for each op to finish,
until ``--seconds`` have passed and every input has been seen at least once.
Every op is checked; a failure is counted and never stops the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with the span recorder installed and prints the
per-layer metrics.  Metric names and units come from BENCHMARK.json at the
repository root.  The last line of standard output is one JSON object; a
fuller record with the environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import THREAD_VARS
from perfbench.spans import Recorder
from perfbench.workloads import ROUTES, WORKLOADS, Verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_REPEATS = 3
TAIL_BEYOND = 10      # samples the tail percentile must leave above it
ERROR_FLOOR = 1e-17   # an exactly zero error reads as 17 digits
MAX_NOTES = 3         # failure notes kept per kind
PROBE_REF_S = 2.5e-3  # probe time that defines one normalized millisecond
PROBE_WINDOW = 2      # probes on each side of an op's own that set its scale


class SpeedProbe:
    """Fixed work timed just before every op.

    On a small shared machine the speed of one core drifts between states
    up to 1.5x apart, over seconds, with nothing else running in the
    container.  Each op time is therefore scaled by PROBE_REF_S over the
    mean of five probe times: the one just before the op and those just
    before the two ops on either side.  The state can change from one op to
    the next; a mean weighs the states by how often they were seen, where a
    median would pick one of them.  Reported times are wall milliseconds at
    a fixed probe speed; raw wall times are kept in the run's record.  The
    probe is a loop of rank-1 updates on small complex arrays, the kind of
    numpy work both routes spend their time in; of the probes tried (a
    LAPACK SVD, pure interpreter work, mixes) its time tracked op times most
    closely.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.random((80, 60)) + 1j * rng.random((80, 60))

    def __call__(self) -> float:
        start = time.perf_counter()
        a = self._mat.copy()
        for i in range(a.shape[1]):
            col = a[i:, i]
            nrm = np.sqrt(np.sum(np.abs(col) ** 2))
            a[i:, i:] -= np.outer(col / nrm, np.conj(col) @ a[i:, i:]) / nrm
        return time.perf_counter() - start


@dataclass
class LoopResult:
    probes: list = field(default_factory=list)  # probe seconds, one per op
    ops: list = field(default_factory=list)     # (route, seconds, passed)
    errors: dict = field(default_factory=dict)  # (input, route) -> error
    gaps: dict = field(default_factory=dict)    # input -> route gap
    attempted: int = 0
    failed: int = 0
    raised: int = 0
    refused: int = 0
    wrong: int = 0
    parity_violations: int = 0
    notes: dict = field(default_factory=dict)   # kind -> first few texts

    def note(self, kind, text):
        kept = self.notes.setdefault(kind, [])
        if len(kept) < MAX_NOTES:
            kept.append(text)

    def scales(self):
        """Per op: PROBE_REF_S over the mean of the neighbouring probes."""
        p, k = self.probes, PROBE_WINDOW
        return [PROBE_REF_S / statistics.fmean(p[max(0, j - k):j + k + 1])
                for j in range(len(p))]

    def latency(self, route, raw=False):
        """Seconds of the ops on `route` that passed, scaled unless raw."""
        return [dt * (1.0 if raw else scale)
                for (r, dt, passed), scale in zip(self.ops, self.scales())
                if r == route and passed]

    def merge(self, other):
        for key in ("attempted", "failed", "raised", "refused", "wrong",
                    "parity_violations"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        for kind, texts in other.notes.items():
            for text in texts:
                self.note(kind, text)


def _call(wl, inp, route):
    """Run one op; returns (output, traceback text or None, seconds)."""
    start = time.perf_counter()
    try:
        return wl.run(inp, route), None, time.perf_counter() - start
    except Exception:  # a raising op is a counted failure, not a crash
        return None, traceback.format_exc(), time.perf_counter() - start


def _check(wl, inp, out):
    try:
        return wl.check(inp, out)
    except Exception:  # output too malformed to check: a wrong answer
        return Verdict(math.inf, problems=[traceback.format_exc(limit=2)])


def timed_loop(wl, pool, seconds, probe, recorder=None):
    res = LoopResult()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(pool) or time.perf_counter() < deadline:
        k = i % len(pool)
        inp = pool[k]
        good = {}
        for route in ROUTES:
            res.attempted += 1
            res.probes.append(probe())
            if recorder is not None:
                recorder.begin_op()
            try:
                out, tb, dt = _call(wl, inp, route)
            finally:
                if recorder is not None:
                    recorder.end_op()
            res.ops.append((route, dt, False))
            if tb is not None:
                res.failed += 1
                res.raised += 1
                res.note("raised", f"input {k} {route}: "
                                   f"{tb.strip().splitlines()[-1]}")
                continue
            verdict = _check(wl, inp, out)
            if not verdict.ok:
                res.failed += 1
                res.wrong += bool(verdict.problems)
                res.refused += not verdict.problems
                for text in verdict.problems:
                    res.note("wrong", f"input {k} {route}: {text}")
                for text in verdict.refusals:
                    res.note("refused", f"input {k} {route}: {text}")
                continue
            res.ops[-1] = (route, dt, True)
            res.errors[k, route] = verdict.error
            good[route] = out
        if len(good) == len(ROUTES):
            gap, problems = wl.parity(inp, good["direct"], good["crep"])
            res.gaps[k] = gap
            if problems:
                res.parity_violations += 1
                for text in problems:
                    res.note("parity", f"input {k}: {text}")
        i += 1
    if recorder is not None:
        recorder.scales = res.scales()
    return res


def set_up(wl, params, seed, probe):
    """Generate the input pool and run one untimed op per route.

    Returns (pool, seconds, probe scale measured just before)."""
    scale = PROBE_REF_S / probe()
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    pool = [wl.make(rng, params) for _ in range(wl.pool)]
    for route in ROUTES:
        _call(wl, pool[0], route)  # failures show up in the timed loop
    return pool, time.perf_counter() - start, scale


def tail(samples):
    """(percentile, value): the highest whole percentile that still has
    TAIL_BEYOND samples above it, by the nearest-rank rule."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    pct = (100 * (n - TAIL_BEYOND)) // n
    return pct, xs[math.ceil(pct * n / 100) - 1]


def _digits(value):
    return -math.log10(max(value, ERROR_FLOOR))


def _median_digits(values):
    """Digits of the median error; every input counts once."""
    return _digits(statistics.median(values)) if values else None


def end_to_end(loop, setup_s):
    """The end-to-end metrics plus what is printed beside them."""
    metrics, extra = {}, {}
    for route in ROUTES:
        xs = loop.latency(route)
        p50 = tl = None
        if xs:
            pct, value = tail(xs)
            p50, tl = 1e3 * statistics.median(xs), 1e3 * value
            raw = statistics.median(loop.latency(route, raw=True))
            extra[f"{route}.op_ms.p50"] = (
                f"N={len(xs)}, raw wall {1e3 * raw:.1f} ms")
            extra[f"{route}.op_ms.tail"] = f"p{pct} of N={len(xs)}"
        metrics[f"{route}.op_ms.p50"], metrics[f"{route}.op_ms.tail"] = p50, tl
    # ops that passed, per second spent in them: failures are counted apart,
    # and their share varies with the seed
    passed = [x for route in ROUTES for x in loop.latency(route)]
    metrics["ops_per_s"] = len(passed) / sum(passed) if passed else None
    errors, gaps = list(loop.errors.values()), list(loop.gaps.values())
    metrics["accuracy_digits"] = _median_digits(errors)
    metrics["parity_digits"] = _median_digits(gaps)
    if errors:
        extra["accuracy_digits"] = (f"median over {len(errors)} input-route "
                                    f"pairs; worst {_digits(max(errors)):.3f}")
    if gaps:
        extra["parity_digits"] = (f"median over {len(gaps)} inputs; "
                                  f"worst {_digits(max(gaps)):.3f}")
    metrics["setup_s"] = setup_s
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, extra


def _p50_sum(loop):
    xs = [statistics.median(v) for v in map(loop.latency, ROUTES) if v]
    return sum(xs) if len(xs) == len(ROUTES) else None


def git_commit(root):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def metric_specs(kind):
    """[(name, unit)] of the end_to_end or per_layer list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None, import_s=0.0):
    """Run one measurement; ``import_s`` is the caller's import time."""
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    params = wl.sizes[args.size]
    probe = SpeedProbe()

    recorder = None
    if args.trace:
        pool, _, _ = set_up(wl, params, args.seed, probe)
        loop = timed_loop(wl, pool, args.seconds / 2, probe)
        recorder = Recorder()
        recorder.install()
        try:
            traced = timed_loop(wl, pool, args.seconds / 2, probe, recorder)
        finally:
            recorder.uninstall()
        metrics, extra = recorder.per_layer(), {}
        base, with_spans = _p50_sum(loop), _p50_sum(traced)
        metrics["trace.overhead"] = (with_spans / base if base and with_spans
                                     else None)
        loop.merge(traced)
        specs = metric_specs("per_layer")
    else:
        took, scales = [], []
        for _ in range(SETUP_REPEATS):
            pool, seconds, scale = set_up(wl, params, args.seed, probe)
            took.append(seconds)
            scales.append(scale)
        setup_s = ((import_s + statistics.median(took))
                   * statistics.median(scales))
        loop = timed_loop(wl, pool, args.seconds, probe)
        metrics, extra = end_to_end(loop, setup_s)
        specs = metric_specs("end_to_end")

    correct = (loop.wrong == 0 and loop.parity_violations == 0
               and all(metrics[name] is not None for name, _ in specs))
    result = {"correct": correct, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in specs}}

    probe_ms = 1e3 * statistics.median(loop.probes)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in specs:
        note = f"  ({extra[name]})" if name in extra else ""
        print(f"  {name:<40} {_fmt(metrics[name]):>12} {unit}{note}")
    print(f"  fail_ratio {loop.failed}/{loop.attempted} = "
          f"{loop.failed / loop.attempted:.4g}  (raised {loop.raised}, "
          f"refused {loop.refused}, wrong {loop.wrong}; "
          f"parity violations {loop.parity_violations})")
    print(f"  speed probe median {probe_ms:.3f} ms "
          f"(times are scaled to {1e3 * PROBE_REF_S:g} ms)")
    for kind, texts in loop.notes.items():
        for text in texts:
            print(f"  {kind}: {text}")

    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / (f"{args.workload}-{args.size}-seed{args.seed}"
                      f"-trace{args.trace}")
    record = {"args": vars(args), "environment": env, "result": result,
              "extra": extra, "probe_ms_median": probe_ms,
              "counts": {key: getattr(loop, key) for key in (
                  "attempted", "failed", "raised", "refused", "wrong",
                  "parity_violations")},
              "latency_ms": {r: [1e3 * x for x in loop.latency(r)]
                             for r in ROUTES},
              "raw_latency_ms": {r: [1e3 * x for x in loop.latency(r, True)]
                                 for r in ROUTES},
              "probe_ms": [1e3 * x for x in loop.probes],
              "notes": loop.notes}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if recorder is not None:
        recorder.write_spans(stem.with_suffix(".spans.jsonl"))
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']['name']} {env['blas']['version']}, "
          f"cpus {env['cpu_count']} affinity {env['affinity']}, "
          f"threads {env['threads']}, commit {env['commit']}")
    print(f"  record: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0
