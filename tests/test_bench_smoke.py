"""Smoke runs of `bench/run.py`, so the benchmark harness cannot rot unnoticed.

One short run of every workload on a seed kept apart from the tuning
seeds; `bench/run.py` checks every pass against its xfo-free oracle
(for school_rules: the exact (tick, rule) sequence of rule firings and
every run's completion tick).
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "990001", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0


def test_bench_traffic_fleet_smoke():
    _smoke("traffic_fleet")


@pytest.mark.parametrize("workload", ["school_rules", "catalog_check", "history_query"])
def test_bench_smoke(workload):
    _smoke(workload)
