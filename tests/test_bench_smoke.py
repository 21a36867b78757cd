"""Each benchmark workload runs, checks its outputs and fails no operation.

The benchmark reads otlc from outside: it clears every lru cache it finds,
reads `normalize.cache_info` and rebinds public functions to trace them.
A short run of each workload shows that the package still offers all that.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["fuzz-base", "fuzz-refine", "programs"])
def test_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
