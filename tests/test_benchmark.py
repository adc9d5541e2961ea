"""Smoke test of the benchmark contract: each workload of `perfbench/run.py`
runs one traced second against this tree and checks every row it produces.

A traced run goes through every wrapper of `perfbench/tracing.py`, so this
fails when a name, field or signature the benchmark relies on goes away.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, attempted",
                         [("direct-ba", 11), ("dualgap-ba", 4), ("affine10-box", 16)])
def test_benchmark_workload_runs_traced_and_correct(workload, attempted):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == attempted
