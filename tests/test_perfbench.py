"""The benchmark's traced runs pass every check they make.

A traced repetition of each workload checks the workload's outputs, that the
envelope is the same traced and untraced, and that every span the workload
lists recorded calls; any failure makes the result line's ``correct`` false
while the script still exits 0. Each workload runs once here, at one fixed
seed, for about 2 to 4 s.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SEED = 1


@pytest.mark.parametrize("workload", ["synth_tails", "speedup_n50_w2", "logistic_a9a",
                                      "pathwise_checks"])
def test_a_traced_benchmark_run_reports_no_failure(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    table = proc.stdout + proc.stderr
    assert proc.returncode == 0, table
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, table
