"""Every benchmark workload runs one traced pass without a failed item.

The benchmark wraps rkpos's public functions and reads fields of their
results, such as a certificate's `n_distinct_restrictions`, so a change
that breaks a name or a field it uses shows up here as a failed item.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_traces_without_failures(workload):
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0", "--mode", "trace"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["failures"] == []
