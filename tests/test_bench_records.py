"""Every benchmark record at the repository root is well formed.

A speed claim counts only with before/after numbers recorded in a
``BENCH_*.json`` next to ``BENCHMARK.json``; these checks keep each record
readable and its claim tied to a workload and a metric the benchmark has.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("parent_commit", "change", "claim", "pairs", "end_to_end",
        "environment")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_carries_its_provenance_and_a_known_claim(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert [key for key in KEYS if key not in record] == []
    claim = record["claim"]
    if isinstance(claim, dict):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert claim["workload"] in {w["name"] for w in bench["workloads"]}
        assert claim["metric"] in {m["name"] for m in bench["end_to_end"]}
        # and the record carries the numbers the claim rests on
        assert claim["metric"] in \
            record["end_to_end"][claim["workload"]]["metrics"]
