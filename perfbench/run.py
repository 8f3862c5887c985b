"""Benchmark of the prymspin checker: one command, three seeded workloads.

    python3 perfbench/run.py --workload report-all|pushforward|queries \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is taken from ``src``.
Every operation runs in a fresh process (perfbench/child.py), one at a
time, on one core.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the host-speed context and, with
``--trace 1``, the exact problem sizes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer
import workloads as w

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("report-all", "pushforward", "queries")
SETUP_ONLY_RUNS = 2        # set-up-only processes before and after the units
REPEAT_QUERIES = 8         # queries traced twice to check exact counts
TIME_LIMIT_S = 170         # every run, traced or not, ends well within 180 s
CALIBRATION_STEPS = 3_000_000

# Layer counters the self-test requires to be nonzero on each workload:
# the layers each workload exists to exercise.
MOSTLY_ON = {
    "report-all": [
        "exact_linear.rref.calls", "exact_linear.rref.s",
        "exact_linear.rref.entries", "keel_ring.reduce.calls",
        "keel_ring.multiply.calls", "pushpull.intersection_table.s",
        "pushpull.lambda.s", "pushpull.evaluate.calls",
        "presentations.hilbert.s", "presentations.hilbert.rows",
        "presentations.independence.s", "presentations.evaluate_in_ring.calls",
        "presentations.evaluate_in_ring.s", "theta_f2.verify_bijections.s",
        "cli.render.s", "cli.stdout_bytes"],
    "pushforward": [
        "keel_ring.reduce.calls", "keel_ring.reduce.s", "keel_ring.reduce.terms",
        "keel_ring.multiply.calls", "keel_ring.multiply.s",
        "symmetry.act.calls", "symmetry.act.s",
        "pushpull.push_to_base.calls", "pushpull.push_to_base.s",
        "pushpull.act_per_push", "pushpull.evaluate.calls",
        "exact_linear.solve.calls", "exact_linear.solve.s"],
    "queries": [
        "exact_linear.rref.calls", "exact_linear.sparse.rows",
        "exact_linear.sparse.s", "exact_linear.sparse.pivot_ratio",
        "keel_ring.build.s", "keel_ring.build.dims",
        "symmetry.invariant_basis.calls", "symmetry.invariant_basis.s",
        "pushpull.intersection_table.s", "pushpull.lambda.s",
        "space_registry.load.calls", "space_registry.load.s",
        "space_registry.named_class.calls", "space_registry.named_class.s",
        "strata_aut.count_aut.calls", "strata_aut.count_aut.s",
        "strata_aut.prym_aut.calls", "strata_aut.prym_aut.s",
        "strata_aut.fiber_count.s", "theta_f2.verify_bijections.s",
        "cli.render.s", "cli.stdout_bytes"],
}


# What op_p50_s and op_p75_s measure on each workload.
WORKLOAD_NAMES = {
    ("report-all", "op_p50_s"): "report_all_s: wall time of the process",
    ("pushforward", "op_p50_s"): "pushforward_s: the batch after set-up",
    ("queries", "op_p50_s"): "query_p50_s: per-query wall time",
    ("queries", "op_p75_s"): "query_p75_s: per-query wall time",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, broken child)."""


def calibrate() -> float:
    """Time of a fixed pure-Python loop: host-speed context, not a metric."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x += i
    return time.perf_counter() - t0


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    """The fresh processes of one benchmark run and what they reported."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.setup = []
        self.records = []
        self.failures: list[str] = []
        self.crashes = 0

    def child(self, op: dict, trace: bool = False) -> tuple[float, dict | None]:
        """Run one fresh process; returns its wall time and its record, or
        None as the record when the process failed."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("time limit reached")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(op), "1" if trace else "0"],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("time limit reached") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.crashes += 1
            self.failures.append(f"process exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}")
            return wall, None
        record = json.loads(proc.stdout.splitlines()[-1])
        self.setup.append(record["setup_s"])
        self.records.append(record)
        return wall, record

    def check(self, ok: bool, label: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


def make_inputs(workload: str, rng: random.Random, golden: dict):
    """The seeded inputs of one unit of the workload."""
    if workload == "pushforward":
        return w.pushforward_spec(rng, golden)
    if workload == "queries":
        return w.query_round(rng, golden)
    return None


def run_unit(workload: str, run: Run, inputs, golden: dict, trace=False):
    """Run and check one unit; returns its op-time samples and the records
    of its processes (None for a process that failed)."""
    if workload == "report-all":
        wall, rec = run.child({"kind": "cli", "argv": ["report-all"]}, trace)
        g = golden["report_all"]
        run.check(rec is not None and rec["exit"] == g["exit"]
                  and w.sha256(rec["stdout"]) == g["sha256"],
                  "report-all stdout differs from the recorded digest")
        return [wall], [rec]
    if workload == "pushforward":
        wall, rec = run.child({"kind": "pushforward", "spec": inputs}, trace)
        results = rec["results"] if rec else []
        run.check(bool(results), "pushforward batch returned nothing")
        for label, ok in results:
            run.check(ok is True, label)
        return [rec["op_s"] if rec else wall], [rec]
    walls, recs = [], []
    for op in inputs:
        wall, rec = run.child({"kind": "cli", "argv": op["argv"]}, trace)
        run.check(rec is not None
                  and w.query_ok(op, rec["exit"], rec["stdout"], golden),
                  "prymspin " + " ".join(op["argv"]))
        walls.append(wall)
        recs.append(rec)
    return walls, recs


# -- timed and traced runs ---------------------------------------------------------

def timed(workload: str, seed: int, seconds: float, golden: dict):
    """Untraced run: set-up samples, then whole units until the next one
    would end after ``seconds`` (at least one unit)."""
    run = Run(time.perf_counter() + TIME_LIMIT_S)
    rng = random.Random(seed)
    for _ in range(SETUP_ONLY_RUNS):
        run.child({"kind": "setup"})
    samples, unit_s = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples += run_unit(workload, run, make_inputs(workload, rng, golden),
                            golden)[0]
        unit_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(unit_s) > seconds:
            break
    for _ in range(SETUP_ONLY_RUNS):
        run.child({"kind": "setup"})
    if not run.records:
        raise BenchError("every process failed: " + "; ".join(run.failures[:3]))
    metrics = {
        "setup_s": (statistics.median(run.setup), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_p75_s": (percentile(samples, 75), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in run.records) / 1024, "MB"),
    }
    context = {"units": len(unit_s), "op_samples": len(samples),
               "setup_samples": len(run.setup)}
    return run, metrics, context


def exact_counts(rec: dict) -> dict:
    """The host-independent part of a traced record: problem sizes and
    every integer counter."""
    counters = {k: v for k, v in rec["trace"]["counters"].items()
                if not k.endswith(".s")}
    return {"sizes": rec["trace"]["sizes"], "counters": counters}


def traced(workload: str, seed: int, golden: dict):
    """Per-layer run and self-test: one untraced unit, the same unit traced,
    then a traced repeat (whole unit, or the first queries of the round)
    whose exact counts must match."""
    run = Run(time.perf_counter() + TIME_LIMIT_S)
    inputs = make_inputs(workload, random.Random(seed), golden)
    plain_s, plain = run_unit(workload, run, inputs, golden)
    traced_s, traced_recs = run_unit(workload, run, inputs, golden, True)
    _, repeat = run_unit(workload, run, inputs[:REPEAT_QUERIES]
                         if workload == "queries" else inputs, golden, True)
    if None in plain + traced_recs + repeat:
        raise BenchError("a process failed: " + "; ".join(run.failures[:3]))

    selftest = []
    for a, b in zip(plain, traced_recs):
        if a["stdout"] != b["stdout"] or a["results"] != b["results"]:
            selftest.append("traced output differs from untraced output")
    for a, b in zip(traced_recs, repeat):
        if exact_counts(a) != exact_counts(b):
            selftest.append("exact counts differ between two traced runs")
    for rec in traced_recs + repeat:
        if rec["trace"]["uncovered"]:
            selftest.append(f"unwrapped aliases: {rec['trace']['uncovered']}")
    counters, sizes = Counter(), Counter()
    for rec in traced_recs:
        counters.update(rec["trace"]["counters"])
        sizes.update(rec["trace"]["sizes"])
    values = tracer.layer_metrics(counters)
    for name in MOSTLY_ON[workload]:
        if not values[name] > 0:
            selftest.append(f"{name} is zero on {workload}")
    units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
    metrics = {name: (v, units[name]) for name, v in values.items()}
    context = {
        "trace_overhead_s": sum(traced_s) - sum(plain_s),
        "untraced_s": sum(plain_s),
        "spans": sum(r["trace"]["spans"] for r in traced_recs),
        "selftest_failures": sorted(set(selftest)),
        "exact_sizes": dict(sorted(sizes.items())),
    }
    return run, metrics, context


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "prymspin" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'prymspin'}", file=sys.stderr)
        return 2
    golden = w.load_golden()
    compileall.compile_dir(str(ROOT / "src" / "prymspin"), quiet=1)
    calib_s = calibrate()
    try:
        if args.trace:
            run, metrics, context = traced(args.workload, args.seed, golden)
        else:
            run, metrics, context = timed(args.workload, args.seed,
                                          args.seconds, golden)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    fail_ratio = run.failed / run.attempted
    context.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_ratio": fail_ratio, "calibration_s": calib_s,
        "calibration_steps": CALIBRATION_STEPS,
        "child_user_s": sum(r["user_s"] for r in run.records),
        "child_sys_s": sum(r["sys_s"] for r in run.records),
        "python": sys.version.split()[0],
        "failures": run.failures[:20]})
    for name, (value, unit) in metrics.items():
        alias = WORKLOAD_NAMES.get((args.workload, name))
        print(f"{name} = {value} {unit}" + (f"  ({alias})" if alias else ""))
    print(f"fail_ratio = {fail_ratio} ratio ({run.failed}/{run.attempted})")
    print(json.dumps({"context": context}))
    correct = (run.failed == 0 and run.crashes == 0
               and not context.get("selftest_failures"))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
