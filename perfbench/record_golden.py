"""Record the expected outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record_golden.py

It writes perfbench/golden.json with the sha256 and exit code of every
fixed query and of ``report-all``, the output of ``strata --tree`` for the
canonical tree text of every preset boundary class and stratum, the table
of single-divisor pushforwards for the five maps, and the class names and
representatives the seeded inputs are drawn from.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys

import workloads as w


def run(argv):
    from prymspin.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def digest(argv) -> dict:
    code, out = run(argv)
    return {"sha256": w.sha256(out), "exit": code}


def main() -> int:
    from prymspin.space_registry import load_preset_json
    golden = {"spaces": {}, "outputs": {}, "trees": {}, "push": {}}
    for tag in w.SPACE_TAGS:
        data = load_preset_json(f"space_{tag}.json")
        golden["spaces"][tag] = {
            "a_marks": data["a_marks"],
            "boundary": {b["name"]: b["rep"] for b in data["boundary"]},
            "strata": {s["name"]: s["rep"] for s in data["strata"]},
            "codim2": [s["name"] for s in data["strata"] if len(s["rep"]) == 2],
        }
    for argv in w.fixed_queries():
        golden["outputs"][" ".join(argv)] = digest(argv)
    for tag in w.SPACE_TAGS:
        a_marks = golden["spaces"][tag]["a_marks"]
        trees = {name: w.tree_text(rep, a_marks)
                 for name, rep in w.space_classes(golden, tag).items()}
        golden["trees"][tag] = {
            name: {"text": text,
                   **digest(["strata", "--space", tag, "--tree", text])}
            for name, text in trees.items()}
    for name, n in w.MAP_MARKS.items():
        table = {}
        for size in range(2, n - 1):
            for side in itertools.combinations(range(1, n), size):
                key = w.divisor_key(side)
                code, out = run(["push", "--map", name, "--class", f"[{key}]"])
                if code != 0:
                    raise SystemExit(f"push {name} [{key}] exited {code}")
                table[key] = {cls: str(v) for cls, v in w.push_rows(out)
                              if cls != "image"}
        golden["push"][name] = table
    code, out = run(["report-all"])
    golden["report_all"] = {"sha256": w.sha256(out), "exit": code,
                            "lines": len(out.splitlines())}
    with open(w.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.GOLDEN}: report-all {golden['report_all']}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
