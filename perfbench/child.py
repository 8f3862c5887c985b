"""One fresh benchmark process: time the set-up, run one operation, and
print a single JSON record on stdout.

Usage: python3 perfbench/child.py '<operation JSON>' <trace 0|1>

Set-up is what every user process pays before its first answer: importing
the package, building the graded basis of the 6-marked ring and loading the
four spaces.  The operation's own stdout is captured, so the record carries
it for the parent to check.  With trace 1 the public functions of every
module are wrapped before set-up (see tracer.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

SPACES = ("M2", "R2", "S2plus", "S2minus")


def run_cli(argv):
    import prymspin.cli as cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), []


def run_pushforward(spec):
    """The seeded pushforward batch: each entry of the results is one
    checked identity, [label, holds]."""
    from prymspin.keel_ring import RingElement
    from prymspin.pushpull import (NamedCombo, push_to_base,
                                   stratum_pushforward_check)
    from prymspin.space_registry import load_space
    m2 = load_space("M2")
    results = []
    for item in spec["spaces"]:
        tag = item["space"]
        space = load_space(tag)
        gb = space.gb
        checks = stratum_pushforward_check(tag)
        results.append([f"{tag}: stratum columns audited", bool(checks)])
        for name, holds in checks.items():
            results.append([f"{tag}: pushforward column of {name}", holds])
        for combo in item["combos"]:
            a = NamedCombo(tag)
            for name, coeff in combo["terms"]:
                a.add((name,), coeff)
            a_val = a.evaluate(space)
            b = m2.named_class(combo["base"]).value
            lhs = push_to_base(space, gb.multiply(a_val, b))
            rhs = gb.multiply(push_to_base(space, a_val), b)
            results.append([f"{tag}: push(({a}) * {combo['base']}) = "
                            f"push({a}) * {combo['base']}", lhs == rhs])
        unit = RingElement.unit(space.n)
        results.append([f"{tag}: push(1) = fundamental pushforward",
                        push_to_base(space, unit)
                        == unit.scale(space.fundamental_pushforward)])
    return 0, "", results


def main(argv) -> int:
    op = json.loads(argv[1])
    trace = argv[2] == "1"
    t0 = time.perf_counter()
    import prymspin.cli  # noqa: F401  (imports every module of the package)
    import prymspin.keel_ring as keel_ring
    import prymspin.space_registry as registry
    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    # Called through the modules, so that traced runs see the wrappers.
    keel_ring.build_graded_basis(6)
    for tag in SPACES:
        registry.load_space(tag)
    setup_s = import_s + time.perf_counter() - t1

    t2 = time.perf_counter()
    if op["kind"] == "cli":
        code, stdout, results = run_cli(op["argv"])
    elif op["kind"] == "pushforward":
        code, stdout, results = run_pushforward(op["spec"])
    else:
        code, stdout, results = 0, "", []
    op_s = time.perf_counter() - t2

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {"setup_s": setup_s, "op_s": op_s, "exit": code,
              "stdout": stdout, "results": results,
              "maxrss_kb": usage.ru_maxrss, "user_s": usage.ru_utime,
              "sys_s": usage.ru_stime}
    if tracer is not None:
        summary = tracer.summary()
        summary["counters"]["cli.stdout_bytes"] = len(stdout.encode())
        summary["uncovered"] = tracer.uncovered_aliases()
        record["trace"] = summary
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
