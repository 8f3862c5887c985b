"""Command-line interface: each subcommand reproduces one family of
reference tables or relations and reports pass/fail per row.  A row holds
the value computed here beside the published one it is checked against;
``Report.verdict`` is the one rule that turns the pair into ok/FAIL.

Exit codes: 0 when every checked row passes (documented deviations count
as passing when they match their recorded outcome), 1 on any verification
failure, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import reference
from .exact_linear import QMatrix, kernel_basis, rank
from .keel_ring import Monomial, build_graded_basis, canonicalize
from .presentations import (DEFAULT_MAX_DEGREE, Presentation, check_relation,
                            verify_presentation)
from .pushpull import (COVERS, QUOTIENT_MAPS, check_combo_vanishes,
                       derive_linear_relation, derive_m05_relations,
                       intersection_table, mumford_base_numbers, pushforward,
                       pushforward_m05, verify_lambda_identities)
from .space_registry import MARKS, QUOTIENT_TAGS, SPACE_TAGS, load_space
from .strata_aut import (count_marked_automorphisms, double_cover_graph,
                         parse_tree, prym_aut_number)
from .symmetry import invariant_dims
from .theta_f2 import verify_bijections


class Report:
    """Ordered sections of (label, text, computed, expected) rows; the text
    is printed, and expected is None on a row that only reports.  Each
    rendering reads the verdicts of one ``verdicts`` pass."""

    def __init__(self, title: str):
        self.title = title
        self.sections: list[tuple[str, list[tuple]]] = []

    def section(self, name: str):
        rows: list[tuple] = []
        self.sections.append((name, rows))
        return rows

    @staticmethod
    def verdict(row: tuple) -> bool | None:
        _, _, computed, expected = row
        return None if expected is None else computed == expected

    def verdicts(self) -> list[list[bool | None]]:
        """The verdict of every row, by section, each comparison made once."""
        return [[self.verdict(row) for row in rows]
                for _, rows in self.sections]

    @staticmethod
    def passed(verdicts: list[list[bool | None]]) -> bool:
        return all(v is not False for section in verdicts for v in section)

    def render_markdown(self, verdicts: list[list[bool | None]]) -> str:
        out = [f"# {self.title}", ""]
        for (name, rows), section in zip(self.sections, verdicts):
            out.append(f"## {name}")
            out.append("")
            for row, v in zip(rows, section):
                mark = {True: "ok", False: "FAIL"}.get(v, "--")
                out.append(f"- [{mark}] {row[0]}: {row[1]}")
            out.append("")
        out.append(f"verdict: {'PASS' if self.passed(verdicts) else 'FAIL'}")
        out.append("")
        return "\n".join(out)

    def render_json(self, verdicts: list[list[bool | None]]) -> str:
        doc = {"title": self.title, "ok": self.passed(verdicts),
               "sections": []}
        for (name, rows), section in zip(self.sections, verdicts):
            doc["sections"].append({
                "name": name,
                "rows": [{"label": row[0], "value": row[1], "ok": v}
                         for row, v in zip(rows, section)]})
        return json.dumps(doc, indent=2, sort_keys=False)


def _emit(report: Report, as_json: bool) -> int:
    verdicts = report.verdicts()
    sys.stdout.write(report.render_json(verdicts) if as_json
                     else report.render_markdown(verdicts))
    sys.stdout.write("\n")
    return 0 if Report.passed(verdicts) else 1


# -- subcommand bodies ---------------------------------------------------------

def cmd_keel(args) -> int:
    n = args.n
    gb = build_graded_basis(n)
    report = Report(f"boundary ring of the {n}-pointed rational curve space")
    rows = report.section("graded dimensions")
    dims = gb.dims()
    rows.append(("dimensions by degree", " ".join(map(str, dims)), dims,
                 reference.KEEL_DIMS.get(n)))
    rows.append(("palindromic", str(dims == dims[::-1]), dims, dims[::-1]))
    if args.relations:
        rel_rows = report.section("independent linear relations")
        for i, rel in enumerate(gb.linear_relations):
            text = " + ".join(f"({c})*{m[0]}" for m, c in sorted(rel.items()))
            rel_rows.append((f"relation {i}", text, rel, None))
    return _emit(report, args.json)


def cmd_invariants(args) -> int:
    space = load_space(args.space)
    gb = space.gb
    dims = invariant_dims(space.group, gb)
    report = Report(f"invariant subring dimensions for {args.space}")
    rows = report.section("dimensions")
    rows.append(("group order", str(space.group.order), space.group.order,
                 reference.GROUP_ORDERS[args.space]))
    rows.append(("dimensions by degree", " ".join(map(str, dims)), dims,
                 reference.INVARIANT_DIMS[args.space]))
    return _emit(report, args.json)


def cmd_verify(args) -> int:
    preset = args.presentation
    if preset in ("I", "J", "K"):
        p = Presentation.from_preset(preset)
        space_tag = reference.PRESENTATION_SPACES[preset]
        if args.space not in (None, space_tag):
            raise ValueError(f"presentation {preset} presents {space_tag}, "
                             f"not {args.space}")
    else:
        if args.space is None:
            raise ValueError(f"a presentation file ({preset}) needs --space")
        with open(preset, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{preset} must hold a JSON object")
        p = Presentation.from_texts(
            data.get("variables"), data.get("generators"),
            data.get("max_degree", DEFAULT_MAX_DEGREE))
        p.name = preset
        space_tag = args.space
    rep = verify_presentation(space_tag, p)
    report = Report(f"presentation {p.name or preset} against {space_tag}")
    rows = report.section("checks")
    vanish, onto = all(rep.generators_vanish), all(rep.surjective_by_degree)
    rows.append(("all ideal generators vanish", str(vanish), vanish, True))
    rows.append(("degreewise surjective", str(onto), onto, True))
    rows.append(("hilbert function", " ".join(map(str, rep.hilbert)),
                 rep.hilbert[:len(rep.invariant_dims)], rep.invariant_dims))
    rows.append(("verdict isomorphic", str(rep.isomorphic), rep.isomorphic,
                 True))
    return _emit(report, args.json)


_CLASS_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*\*)?\s*\[([0-9,\s]+)\]")


def _parse_divisor_expr(text: str, n: int) -> dict[Monomial, Fraction]:
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _CLASS_TERM.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse class expression at "
                                 f"{text[pos:]!r}")
            break
        sign, mult, body = m.groups()
        if pos and not sign:
            raise ValueError(f"missing + or - before "
                             f"{text[pos:m.end()].strip()!r}")
        c = Fraction(int(mult) if mult else 1)
        if sign == "-":
            c = -c
        term = f"[{body}]"
        tokens = [t.strip() for t in body.split(",")]
        if not all(tokens):
            raise ValueError(f"empty mark in class term {term}")
        marks = [int(t) for t in tokens]
        if len(set(marks)) != len(marks):
            raise ValueError(f"repeated mark in class term {term}")
        div = canonicalize(marks, n)
        coeffs[(div,)] = coeffs.get((div,), Fraction(0)) + c
        pos = m.end()
    if not pos:
        raise ValueError(f"no class term in {text!r}")
    return coeffs


def cmd_push(args) -> int:
    name = args.map
    report = Report(f"pushforward along {name}")
    rows = report.section("image in stack-weighted classes")
    if name in QUOTIENT_MAPS:
        space = load_space(QUOTIENT_MAPS[name])
        combo = pushforward(space, _parse_divisor_expr(args.cls, space.n))
    elif name in COVERS:
        # a cover's source is the 5-marked main component of a divisor
        n = load_space(COVERS[name][0]).n - 1
        combo = pushforward_m05(name, _parse_divisor_expr(args.cls, n))
    else:
        *names, last = (*QUOTIENT_MAPS, *COVERS)
        raise ValueError(f"unknown map {name!r}; use {', '.join(names)} "
                         f"or {last}")
    for key, c in sorted(combo.terms.items()):
        rows.append(("*".join(key), str(c), c, None))
    if not combo.terms:
        rows.append(("image", "0", combo.terms, None))
    return _emit(report, args.json)


def cmd_intersections(args) -> int:
    report = Report(f"intersection numbers for {args.space}")
    _append_intersections(report, args.space)
    return _emit(report, args.json)


def _append_intersections(report: Report, tag: str):
    rows_names, cols, table_rows = intersection_table(tag)
    order = reference.BOUNDARY_ORDER[tag]
    perm = [cols.index(c) for c in order]
    # Columns in the reference order, so rows, rank and kernel all compare
    # against the reference whatever order the table comes in.
    ordered = [[row[j] for j in perm] for row in table_rows]
    table = report.section(f"{tag}: strata (rows) against divisors "
                           f"{' '.join(order)}")
    for rname, got in zip(rows_names, ordered):
        expected = [Fraction(x) for x in reference.A4_TABLES[tag][rname]]
        table.append((rname, "  ".join(str(x) for x in got), got, expected))
    summary = report.section(f"{tag}: rank and kernel")
    width = len(order)
    kernel = kernel_basis(QMatrix(
        [{j: x for j, x in enumerate(row) if x} for row in ordered], width))
    r = width - len(kernel)
    summary.append(("rank", str(r), r, reference.A4_RANKS[tag]))
    # Same span: the reference rows are independent and lie in the span of
    # the computed basis, which has as many rows.
    expected = [{j: Fraction(x) for j, x in enumerate(v) if x}
                for v in reference.A4_KERNELS[tag]]
    ker = [[v.get(j, 0) for j in range(width)] for v in kernel]
    summary.append(("kernel", "; ".join("(" + ", ".join(map(str, v)) + ")"
                                        for v in ker) or "trivial",
                    (len(kernel), rank(QMatrix(expected, width)),
                     rank(QMatrix(kernel + expected, width))),
                    (len(expected),) * 3))


def cmd_lambda_check(args) -> int:
    report = Report("Hodge class identities")
    _append_lambda(report.section("chains and vanishings"), args.space)
    return _emit(report, args.json)


def _append_lambda(rows: list, tag: str | None = None):
    for label, info in verify_lambda_identities().items():
        if tag is None or info["space"] == tag:
            rows.append((f"[{info['space']}] {label}", str(info["holds"]),
                         info["holds"], True))


def cmd_strata(args) -> int:
    report = Report(f"strata of {args.space}")
    if args.tree is not None:
        tree = parse_tree(args.tree)
        marks = sum(tree.total_marks())
        if marks != MARKS:
            raise ValueError(f"the tree carries {marks} marks; every space "
                             f"is a quotient of the {MARKS}-marked space")
        space = load_space(args.space)
        swap = space.unordered_classes
        a, b = len(space.a_marks), MARKS - len(space.a_marks)
        if tree.total_marks() not in ((a, b), (b, a) if swap else (a, b)):
            raise ValueError(f"the tree carries {tree.total_marks()} (A, B) "
                             f"marks; {args.space} needs ({a}, {b})")
        rows = report.section("tree analysis")
        m = count_marked_automorphisms(tree, swap)
        rows.append(("generic automorphisms", str(m), m, None))
        genus = double_cover_graph(tree).total_genus()
        rows.append(("cover genus", str(genus), genus, 2))
        n_aut = prym_aut_number(tree, frozenset(), swap)
        rows.append(("structure automorphisms (no blowups)", str(n_aut),
                     n_aut, None))
        return _emit(report, args.json)
    _append_strata(report, args.space)
    return _emit(report, args.json)


def _append_strata(report: Report, tag: str):
    space = load_space(tag)
    rows = report.section(
        f"{tag}: boundary divisors (degree, aut, fiber count)")
    # Each row reads the values the load audit computed (see _audit).
    for e in space.boundary.values():
        computed, table = zip(*e.checks.values())
        rows.append((e.display, f"degree {e.degree}, aut {e.aut}, "
                     f"fibers {e.fiber_count}", computed, table))
    rows = report.section(f"{tag}: strata (aut, pushforward)")
    for name, e in space.strata.items():
        push = (f"{e.pushforward_coeff} x {e.pushforward_target}"
                if e.pushforward_target else "base stratum")
        note = " [reconciled value, see cite]" if name == "F11r" else ""
        computed, table = zip(*e.checks.values())
        rows.append((e.display, f"aut {e.aut}, pushes to {push}{note}",
                     computed, table))


def cmd_theta(args) -> int:
    report = Report(f"theta characteristic counts, genus {args.genus}")
    rows = report.section("censuses")
    res = verify_bijections(args.genus)
    phi, spin, arf = (res[k] for k in ("phi_bijective", "spin_census",
                                        "arf_census"))
    rows.append(("square roots of the trivial bundle are the nonzero "
                 "2-torsion", str(phi), phi, True))
    rows.append(("partition census", str(spin), spin, None))
    rows.append(("brute-force census", str(arf), arf, spin))
    return _emit(report, args.json)


def cmd_report_all(args) -> int:
    report = Report("full reproduction of the reference tables")

    rows = report.section("graded dimensions of the pointed-curve rings")
    for n in (4, 5, 6):
        dims = build_graded_basis(n).dims()
        rows.append((f"{n} marks", " ".join(map(str, dims)), dims,
                     reference.KEEL_DIMS[n]))

    rows = report.section("invariant subring dimensions")
    for tag in SPACE_TAGS:
        space = load_space(tag)
        dims = invariant_dims(space.group, space.gb)
        rows.append((tag, " ".join(map(str, dims)), dims,
                     reference.INVARIANT_DIMS[tag]))

    rows = report.section("linear relations between boundary classes")
    for tag in QUOTIENT_TAGS:
        combo = derive_linear_relation(tag)
        expected = {k: Fraction(v)
                    for k, v in reference.LINEAR_RELATIONS[tag].items()}
        rows.append((tag, str(combo), combo.terms, expected))

    rows = report.section("relations from the 5-pointed boundary covers")
    for combo, (_, terms) in zip(derive_m05_relations(),
                                 reference.M05_RELATIONS):
        holds, _ = check_combo_vanishes(combo)
        expected = {k: Fraction(v) for k, v in terms.items()}
        rows.append((f"{combo.space}: {combo}",
                     f"matches reference: {combo.terms == expected}, "
                     f"holds in ring: {holds}",
                     (combo.terms, holds), (expected, True)))

    _append_lambda(report.section("Hodge class identities"))

    for tag in QUOTIENT_TAGS:
        _append_intersections(report, tag)

    rows = report.section("base-space pairings")
    for key, value in mumford_base_numbers().items():
        rows.append((key, str(value), value, reference.MUMFORD_VALUES[key]))

    rows = report.section("base-space relations (verdicts, not assumptions)")
    for text in (reference.M2_RELATION, *reference.M2_VARIANTS):
        holds, _ = check_relation("M2", text)
        rows.append((text, f"holds: {holds}", holds,
                     True if text == reference.M2_RELATION else None))

    rows = report.section("ring presentations")
    for preset in ("I", "J", "K"):
        p = Presentation.from_preset(preset)
        tag = reference.PRESENTATION_SPACES[preset]
        rep = verify_presentation(tag, p)
        rows.append((f"{preset} presents {tag}",
                     f"hilbert {rep.hilbert}, isomorphic {rep.isomorphic}",
                     (rep.hilbert, rep.isomorphic),
                     (reference.HILBERT[preset], True)))
        note = (f" (documented deviation: "
                f"{reference.DEVIATIONS['I_independence']})"
                if preset == "I" else "")
        rows.append((f"{preset} generators independent",
                     f"{rep.independent}{note}", rep.independent,
                     preset != "I"))
        for text in reference.EXTRA_RELATIONS[tag]:
            ok, _ = check_relation(tag, text)
            rows.append((f"{tag}: {text} = 0", str(ok), ok, True))

    rows = report.section("pullbacks of the base relations")
    for tag, text in reference.PULLBACK_RELATIONS.items():
        ok, _ = check_relation(tag, text)
        rows.append((f"{tag}: {text} = 0", str(ok), ok, True))

    for tag in ("M2", "R2", "S2plus", "S2minus"):
        _append_strata(report, tag)

    rows = report.section("theta characteristic counts")
    for g in range(1, 7):
        res = verify_bijections(g)
        spin, arf = res["spin_census"], res["arf_census"]
        rows.append((f"genus {g}", f"spin census {spin}, matches brute "
                     f"force: {spin == arf}",
                     (res["prym_total"], res["phi_bijective"], spin),
                     ((1 << 2 * g) - 1, True, arf)))

    return _emit(report, args.json)


# -- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prymspin",
        description="exact verification of the boundary-class rings of the "
                    "genus-2 square-root moduli spaces")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output with exact rationals")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keel", help="graded dimensions of a pointed-curve ring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--relations", action="store_true")
    p.set_defaults(func=cmd_keel)

    p = sub.add_parser("invariants", help="invariant subring dimensions")
    p.add_argument("--space", required=True,
                   choices=SPACE_TAGS)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify", help="verify a ring presentation")
    p.add_argument("--space", choices=QUOTIENT_TAGS)
    p.add_argument("--presentation", required=True,
                   help="preset name (I, J, K) or a JSON file path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("push", help="push a boundary combination forward")
    p.add_argument("--map", required=True)
    p.add_argument("--class", dest="cls", required=True,
                   help="e.g. \"[1,2]+[1,2,5]-[1,3]\"")
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("intersections", help="divisor/stratum pairing table")
    p.add_argument("--space", required=True, choices=QUOTIENT_TAGS)
    p.set_defaults(func=cmd_intersections)

    p = sub.add_parser("lambda-check", help="Hodge class identity chains")
    p.add_argument("--space", choices=QUOTIENT_TAGS)
    p.set_defaults(func=cmd_lambda_check)

    p = sub.add_parser("strata", help="stratum tables or one tree analysis")
    p.add_argument("--space", required=True,
                   choices=SPACE_TAGS)
    p.add_argument("--tree", help="tree grammar, e.g. \"(A A -1)(B B B B -1)\"")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("theta", help="theta characteristic censuses")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("report-all", help="run the full reproduction")
    p.set_defaults(func=cmd_report_all)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
