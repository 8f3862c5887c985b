"""Seeded inputs and output checks for the three benchmark workloads.

The inputs come from the seed alone; the expected outputs come from
golden.json, recorded by record_golden.py from the program itself.  A
seeded ``push`` class is checked by linearity against the recorded table
of single-divisor pushforwards, and a seeded ``strata --tree`` text (a
relabelled dual tree of a preset stratum) against the output recorded for
the stratum's canonical text, so a seed never used before still has an
exact expected output.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")

SPACE_TAGS = ("M2", "R2", "S2plus", "S2minus")
QUOTIENTS = ("R2", "S2plus", "S2minus")
MAP_MARKS = {"f_R": 6, "f_plus": 6, "f_minus": 6, "h0p": 5, "h0alpha": 5}
COEFFS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)

TREE_QUERIES = 6        # seeded strata --tree queries per round
PUSHES_PER_MAP = 2      # seeded push queries per map per round


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fixed_queries() -> list[list[str]]:
    """Every query whose argv takes no seeded input; golden.json records
    the output of each."""
    q = [["keel", "--n", str(n)] for n in (4, 5, 6)]
    q += [["invariants", "--space", t] for t in SPACE_TAGS]
    q += [["intersections", "--space", t] for t in QUOTIENTS]
    q += [["strata", "--space", t] for t in SPACE_TAGS]
    q += [["lambda-check"]] + [["lambda-check", "--space", t] for t in QUOTIENTS]
    q += [["theta", "--genus", str(g)] for g in range(1, 7)]
    q += [["verify", "--presentation", p] for p in ("J", "K")]
    return q


def canonical_side(marks, n: int) -> frozenset[int]:
    """The side of a split of 1..n that does not hold mark n."""
    s = frozenset(marks)
    return frozenset(range(1, n + 1)) - s if n in s else s


def divisor_key(side) -> str:
    return ",".join(map(str, sorted(side)))


def tree_text(splits, a_marks, rng: random.Random | None = None,
              n: int = 6) -> str:
    """The tree grammar of the dual tree cut out by pairwise compatible
    splits of 1..n.  With rng the components, edge ids and tokens are put
    in a random order, which leaves the tree and every invariant of it
    unchanged."""
    full = frozenset(range(1, n + 1))
    sides = [canonical_side(s, n) for s in splits]
    comps = sides + [full]
    parent = [min((j for j, t in enumerate(comps) if s < t),
                  key=lambda j: len(comps[j])) for s in sides]
    edge_ids = list(range(1, len(sides) + 1))
    if rng:
        rng.shuffle(edge_ids)
    tokens = []
    for j, comp in enumerate(comps):
        below = [sides[i] for i, p in enumerate(parent) if p == j]
        own = comp.difference(*below)
        toks = ["A" if m in a_marks else "B" for m in sorted(own)]
        toks += [f"-{edge_ids[i]}" for i, p in enumerate(parent) if p == j]
        if j < len(sides):
            toks.append(f"-{edge_ids[j]}")
        if rng:
            rng.shuffle(toks)
        tokens.append("(" + " ".join(toks) + ")")
    if rng:
        rng.shuffle(tokens)
    return "".join(tokens)


def space_classes(golden: dict, tag: str) -> dict[str, list[list[int]]]:
    info = golden["spaces"][tag]
    return {**info["boundary"], **info["strata"]}


# -- queries -------------------------------------------------------------------

def push_class(rng: random.Random, n: int) -> tuple[str, list]:
    """A seeded integer combination of boundary divisors in the CLI's class
    syntax, e.g. "2*[1,2]-[1,3,5]", with its (divisor key, coeff) terms."""
    text, terms = "", []
    for i in range(rng.randint(1, 4)):
        marks = rng.sample(range(1, n + 1), rng.randint(2, n - 2))
        c = rng.choice(COEFFS)
        sign = "-" if c < 0 else ("+" if i else "")
        mult = f"{abs(c)}*" if abs(c) != 1 else ""
        text += f"{sign}{mult}[{','.join(map(str, marks))}]"
        terms.append((divisor_key(canonical_side(marks, n)), c))
    return text, terms


def query_round(rng: random.Random, golden: dict) -> list[dict]:
    """One round of 40 CLI queries in seeded order.  The mix of subcommands
    is the same in every round, so per-query percentiles compare across
    seeds; the seed picks the classes, trees and order."""
    ops = []
    for argv in fixed_queries():
        if argv[0] == "lambda-check" and len(argv) > 1:
            continue
        ops.append({"argv": argv, "expect": golden["outputs"][" ".join(argv)]})
    argv = ["lambda-check", "--space", rng.choice(QUOTIENTS)]
    ops.append({"argv": argv, "expect": golden["outputs"][" ".join(argv)]})
    for _ in range(TREE_QUERIES):
        tag = rng.choice(SPACE_TAGS)
        name = rng.choice(sorted(space_classes(golden, tag)))
        text = tree_text(space_classes(golden, tag)[name],
                         golden["spaces"][tag]["a_marks"], rng)
        ops.append({"argv": ["strata", "--space", tag, "--tree", text],
                    "expect": golden["trees"][tag][name]})
    for name, n in MAP_MARKS.items():
        for _ in range(PUSHES_PER_MAP):
            text, terms = push_class(rng, n)
            # "--class=" form: a class may start with "-", which argparse
            # would otherwise read as an option.
            ops.append({"argv": ["push", "--map", name, f"--class={text}"],
                        "expect": {"push": name, "terms": terms}})
    rng.shuffle(ops)
    return ops


_ROW = re.compile(r"^- \[--\] (.+): (\S+)$")


def push_rows(stdout: str) -> list[tuple[str, Fraction]]:
    """The (class name, coefficient) rows of a ``push`` report."""
    return [(m.group(1), Fraction(m.group(2)))
            for m in map(_ROW.match, stdout.splitlines()) if m]


def expected_push(golden: dict, name: str, terms) -> list[tuple[str, Fraction]]:
    table = golden["push"][name]
    total: dict[str, Fraction] = {}
    for key, c in terms:
        for cls, v in table[key].items():
            total[cls] = total.get(cls, Fraction(0)) + c * Fraction(v)
    rows = sorted((k, v) for k, v in total.items() if v)
    return rows or [("image", Fraction(0))]


def query_ok(op: dict, code: int, stdout: str, golden: dict) -> bool:
    expect = op["expect"]
    if "push" in expect:
        lines = stdout.splitlines()
        return (code == 0 and lines[:1] == [f"# pushforward along {expect['push']}"]
                and "verdict: PASS" in lines
                and push_rows(stdout) == expected_push(golden, expect["push"],
                                                       expect["terms"]))
    return code == expect["exit"] and sha256(stdout) == expect["sha256"]


# -- pushforward batch --------------------------------------------------------

def pushforward_spec(rng: random.Random, golden: dict) -> dict:
    """Per quotient space: one degree-1 combination of all boundary classes
    and one degree-2 combination of all codimension-2 strata, each with
    seeded nonzero integer coefficients and paired with one of the two base
    divisors.  Every seed therefore pushes the same number of terms."""
    spaces = []
    for tag in QUOTIENTS:
        info = golden["spaces"][tag]
        bases = ["delta0", "delta1"]
        rng.shuffle(bases)
        combos = [{"terms": [[nm, rng.choice(COEFFS)] for nm in names],
                   "base": base}
                  for names, base in ((sorted(info["boundary"]), bases[0]),
                                      (info["codim2"], bases[1]))]
        spaces.append({"space": tag, "combos": combos})
    return {"spaces": spaces}
