"""The benchmark's correctness gate, run with the suite.

A traced benchmark run is correct when every operation succeeds and its
self-tests pass: the golden outputs (the ``report-all`` digest among them),
the layer counters each workload must exercise, and the tracer's alias and
repeat checks.  All three workloads run; ``queries`` starts 88 processes
(about 11 s on a 2-vCPU host) and is the one workload that runs
``prymspin push``.  By hand:

    python3 perfbench/run.py --workload queries --seed 9090 --seconds 1 --trace 1
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["report-all", "pushforward", "queries"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "9090", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    docs = [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]
    context = next(d["context"] for d in docs if "context" in d)
    assert docs[-1]["correct"] is True, {
        "selftest_failures": context.get("selftest_failures"),
        "failures": context.get("failures")}
