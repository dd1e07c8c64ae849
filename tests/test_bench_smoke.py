"""Smoke runs of `bench/run.py`, so the benchmark harness cannot rot unnoticed.

One short run of every workload on a seed kept apart from the tuning
seeds, untraced and traced; `bench/run.py` checks every pass against its
xfo-free oracle (for school_rules: the exact (tick, rule) sequence of rule
firings and every run's completion tick). A traced run also runs the
per-layer probes, and must report every per-layer metric BENCHMARK.json
declares.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke(workload: str, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "990001", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    return result["metrics"]


def test_bench_traffic_fleet_smoke():
    _smoke("traffic_fleet")


@pytest.mark.parametrize("workload", ["school_rules", "catalog_check", "history_query"])
def test_bench_smoke(workload):
    _smoke(workload)


@pytest.mark.parametrize("workload", ["traffic_fleet", "school_rules", "catalog_check", "history_query"])
def test_bench_traced_smoke(workload):
    metrics = _smoke(workload, trace=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted({m["name"] for m in declared} - set(metrics)) == []
