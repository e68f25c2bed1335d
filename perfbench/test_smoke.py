"""Tiny-size smoke test of the benchmark itself (a few seconds in all)."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import quatinv.factor
import quatinv.geninv
from perfbench import bench, workloads
from quatinv.qcore import QMatrix


def run_tiny(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.01",
            "--trace", str(trace), "--size", "tiny"]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_run_prints_every_metric(capsys, workload, trace):
    result = run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # both routes on every input of the pool, at least once
    assert result["attempted"] >= 2 * bench.WORKLOADS[workload].pool
    kind = "per_layer" if trace else "end_to_end"
    assert [name for name, _ in bench.metric_specs(kind)] == list(
        result["metrics"])
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("workload,svd_calls", [("pinv", 5.0), ("lorenz", 1.0)])
def test_traced_svd_counts(capsys, workload, svd_calls):
    metrics = run_tiny(capsys, workload, 1)["metrics"]
    assert metrics["svd.calls"]["value"] == svd_calls


def test_prescribed_crep_route_runs_no_qsvd(capsys):
    metrics = run_tiny(capsys, "prescribed", 1)["metrics"]
    assert metrics["factor.qsvd.crep.calls"]["value"] == 0.0
    assert metrics["factor.full_rank_decompose.crep.calls"]["value"] > 0.0


def test_tracer_restores_the_library(capsys):
    run_tiny(capsys, "pinv", 1)
    for fn in (quatinv.geninv.rank, quatinv.geninv.mat_mul,
               quatinv.factor.qsvd, quatinv.geninv.pinv_report):
        assert not hasattr(fn, "__wrapped__")


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 46))  # N = 45
    pct, value = bench.tail(samples)
    assert pct == 77
    assert sum(x > value for x in samples) >= 10
    assert sum(x > bench.tail(samples[:11])[1] for x in samples[:11]) == 10


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pinv", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(reason="known defect: full_rank_decompose takes rounding "
                          "noise in the rank-deficient tail for a 41st pivot")
@pytest.mark.parametrize("route", workloads.ROUTES)
def test_elimination_rank_of_uniform_rank_40_product(route):
    # a uniform product of rank 40 at the prescribed workload's W size:
    # sigma_40/sigma_1 = 2e-3 and sigma_41/sigma_1 = 3e-16, a clean rank
    rng = np.random.default_rng(7)
    w = QMatrix(*workloads._pair_mul(workloads._uniform(rng, 80, 40),
                                     workloads._uniform(rng, 40, 120)))
    assert quatinv.factor.full_rank_decompose(w, route=route).r == 40
