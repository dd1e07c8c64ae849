"""Smoke run of `bench/run.py`, so the benchmark harness cannot rot unnoticed.

One short traffic_fleet run on a seed kept apart from the tuning seeds;
`bench/run.py` checks every pass against its xfo-free oracle.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_traffic_fleet_smoke():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "traffic_fleet",
         "--seed", "990001", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
