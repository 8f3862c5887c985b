import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import prymspin.symmetry as symmetry
from prymspin.cli import main
from prymspin.keel_ring import build_graded_basis


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_import_loads_no_dataclass_machinery():
    # every process imports the CLI before its first answer; dataclasses and
    # the inspect module it pulls in would add to each start-up
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys; before = set(sys.modules); import prymspin.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=60).stdout.split()
    assert "prymspin.cli" in added
    assert "dataclasses" not in added and "inspect" not in added


def test_keel_betti(capsys):
    # The graded dimensions are the even Betti numbers (Keel 1992), so the
    # default output already shows them and there is no --betti flag.
    code, out = run(capsys, "keel", "--n", "6")
    assert code == 0
    assert "1 16 16 1" in out
    assert run(capsys, "keel", "--n", "6", "--betti")[0] == 2


def test_keel_relations(capsys):
    # 10 boundary divisors of the 5-marked space, degree-1 dimension 5
    code, out = run(capsys, "keel", "--n", "5", "--relations")
    assert code == 0
    assert out.count("relation ") == 5


def test_invariants(capsys):
    code, out = run(capsys, "invariants", "--space", "R2")
    assert code == 0
    assert "1 4 4 1" in out


def test_verify_presets(capsys):
    for preset in ("I", "J", "K"):
        code, out = run(capsys, "verify", "--presentation", preset)
        assert code == 0
        assert "isomorphic" in out


def test_push(capsys):
    code, out = run(capsys, "push", "--map", "f_R", "--class", "[1,2]")
    assert code == 0
    assert "d0pp" in out and "48" in out


@pytest.mark.parametrize("cls, message", [
    ("[1,2,2]", "repeated mark in class term [1,2,2]"),
    ("[2,1,1,3]", "repeated mark in class term [2,1,1,3]"),
    ("2*[1,3]-[4, 4,5]", "repeated mark in class term [4, 4,5]"),
    ("[1,,2]", "empty mark in class term [1,,2]"),
    ("[1,2,]", "empty mark in class term [1,2,]"),
])
def test_push_rejects_repeated_or_empty_marks(capsys, cls, message):
    assert main(["push", "--map", "f_R", f"--class={cls}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("cls, term", [
    ("[1,2] [1,3]", "[1,3]"),
    ("[1,2][1,3]", "[1,3]"),
    ("[1,2]2*[1,3]", "2*[1,3]"),
])
def test_push_rejects_terms_without_a_sign(capsys, cls, term):
    assert main(["push", "--map", "f_R", f"--class={cls}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: missing + or - before {term!r}\n"


@pytest.mark.parametrize("map_name, cls", [
    ("f_R", ""),
    ("h0p", "   "),
])
def test_push_rejects_an_expression_without_terms(capsys, map_name, cls):
    assert main(["push", "--map", map_name, f"--class={cls}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no class term in {cls!r}\n"


def test_push_of_cancelling_terms_is_zero(capsys):
    code, out = run(capsys, "push", "--map", "f_R", "--class", "[1,2]-[1,2]")
    assert code == 0
    assert "image: 0" in out


def test_push_m05(capsys):
    code, out = run(capsys, "push", "--map", "h0alpha", "--class", "[5,1]")
    assert code == 0
    assert "Xm" in out


def test_intersections(capsys):
    code, out = run(capsys, "intersections", "--space", "S2minus")
    assert code == 0
    assert "-1/192" in out


def test_lambda_check(capsys):
    code, out = run(capsys, "lambda-check", "--space", "R2")
    assert code == 0
    assert "FAIL" not in out


def test_strata_tree_analysis(capsys):
    code, out = run(capsys, "strata", "--space", "R2",
                    "--tree", "(A A -1)(B B B B -1)")
    assert code == 0
    assert "generic automorphisms: 2" in out


def test_theta(capsys):
    code, out = run(capsys, "theta", "--genus", "2")
    assert code == 0
    assert "(10, 6)" in out


@pytest.mark.parametrize("genus", ["-1", "0", "9"])
def test_theta_genus_out_of_range(capsys, genus):
    assert main(["theta", "--genus", genus]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"genus {genus} is outside the supported range 1..8" in captured.err


def test_json_output(capsys):
    code, out = run(capsys, "--json", "invariants", "--space", "M2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_report_verdict_compares_computed_with_expected():
    from prymspin.cli import Report
    report = Report("t")
    rows = report.section("s")
    rows.append(("equal", "1", (1, "a"), (1, "a")))
    rows.append(("only reported", "x", True, None))
    assert Report.passed(report.verdicts())
    rows.append(("differs", "2", [2], [3]))
    verdicts = report.verdicts()
    assert not Report.passed(verdicts)
    assert verdicts == [[Report.verdict(row) for row in rows]] == [
        [True, None, False]]
    markdown = report.render_markdown(verdicts)
    assert "- [ok] equal: 1\n- [--] only reported: x\n- [FAIL] differs: 2" \
        in markdown and markdown.endswith("verdict: FAIL\n")
    doc = json.loads(report.render_json(verdicts))
    assert doc["ok"] is False
    assert [row["ok"] for row in doc["sections"][0]["rows"]] == [
        True, None, False]


def test_strata_rows_read_the_audited_checks(capsys, monkeypatch):
    # the strata rows compare the values the load audit stored, so one
    # computed value that differs from its table fails that row alone
    from prymspin.space_registry import load_space
    monkeypatch.setitem(load_space("R2").boundary["d0r"].checks,
                        "fiber count", (2, 1))
    code, out = run(capsys, "strata", "--space", "R2")
    assert code == 1
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        "- [FAIL] D0^r: degree 6, aut 2, fibers 4"]


def test_unknown_map_names_every_map(capsys):
    assert main(["push", "--map", "bogus", "--class", "[1,2]"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown map 'bogus'; use f_R, f_plus, f_minus, h0p or "
        "h0alpha\n")


def test_input_errors_exit_2(capsys, tmp_path):
    assert main(["push", "--map", "bogus", "--class", "[1,2]"]) == 2
    assert main(["push", "--map", "f_R", "--class", "oops"]) == 2
    assert main(["keel", "--n", "9"]) == 2
    capsys.readouterr()
    assert main(["keel", "--n", "8"]) == 2
    assert "cap exceeded (8 > 7)" in capsys.readouterr().err
    # malformed presentation files: one message on stderr, no traceback
    good = {"variables": ["d0p"], "generators": ["d0p^2"], "max_degree": 3}
    path = tmp_path / "f.json"
    for doc, message in (([], "JSON object"),
                         ({**good, "generators": 5}, "generators must be"),
                         ({**good, "generators": [3]}, "generators must be"),
                         ({**good, "variables": "d0p"}, "variables must be"),
                         ({"variables": ["d0p"]}, "generators must be"),
                         ({**good, "max_degree": 2.9}, "max_degree must be"),
                         ({**good, "max_degree": "3"}, "max_degree must be"),
                         ({**good, "variables": ["d0p", "d0p"]},
                          "variables must be distinct")):
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", "--space", "R2",
                     "--presentation", str(path)]) == 2, doc
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, (doc, err)
    assert main(["verify", "--presentation", str(path)]) == 2
    assert "needs --space" in capsys.readouterr().err
    # a preset presents one space; another --space is refused, its own kept
    assert main(["verify", "--presentation", "J", "--space", "R2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: presentation J presents S2plus, not R2\n"
    assert main(["verify", "--presentation", "K", "--space", "S2minus"]) == 0
    assert "against S2minus" in capsys.readouterr().out


def test_report_all_deterministic(capsys):
    code1, out1 = run(capsys, "report-all")
    code2, out2 = run(capsys, "report-all")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "FAIL" not in out1


def test_report_all_builds_each_invariant_basis_once(capsys, monkeypatch):
    # the invariant subring dimensions and the presentation checks share
    # one invariant basis per space: one echelon per space and degree
    gb = build_graded_basis(6)
    monkeypatch.setattr(gb, "invariant_bases", {})
    echelons = []
    rref = symmetry.rref

    def counting_rref(m):
        echelons.append(m.ncols)
        return rref(m)

    monkeypatch.setattr(symmetry, "rref", counting_rref)
    code, _ = run(capsys, "report-all")
    assert code == 0
    assert len(gb.invariant_bases) == 4
    assert echelons == gb.dims() * 4


@pytest.mark.parametrize("field,value,message", [
    ("generators", ["d0p^3000000"], "max_degree"),
    ("max_degree", 10**9, "max_degree"),
    ("generators", ["(" * 3000 + "d0p" + ")" * 3000], "nested"),
])
def test_verify_rejects_unbounded_input_fast(tmp_path, capsys, field, value,
                                             message):
    doc = {"variables": ["d0p", "d0pp", "d0r", "d1", "d11"],
           "generators": ["d0pp*d11"], "max_degree": 6}
    doc[field] = value
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.perf_counter()
    code = main(["verify", "--space", "R2", "--presentation", str(path)])
    assert code == 2
    assert time.perf_counter() - t0 < 1.0
    assert message in capsys.readouterr().err


def test_strata_tree_with_wrong_mark_count_exits_fast(capsys):
    # an 11-component chain is stable but carries 22 marks; it is refused
    # before any permutation of its components is enumerated
    chain = "(A B -1)" + "".join(f"(A B -{k} -{k + 1})" for k in range(1, 10)) \
        + "(A B -10)"
    t0 = time.perf_counter()
    code = main(["strata", "--space", "R2", "--tree", chain])
    assert code == 2
    assert time.perf_counter() - t0 < 1.0
    assert "22 marks" in capsys.readouterr().err
    # a stable chain of 8500 components (125 KB): its stability is checked
    # in time linear in its size
    chain = "(A B -1)" + "".join(f"(A -{k} -{k + 1})" for k in range(1, 8499)) \
        + "(A B -8499)"
    t0 = time.perf_counter()
    code = main(["strata", "--space", "R2", "--tree", chain])
    assert code == 2
    assert time.perf_counter() - t0 < 1.0
    assert "carries 8502 marks" in capsys.readouterr().err


def test_strata_empty_tree_exits_2(capsys):
    # an empty tree is parsed and refused, not read as "no tree given"
    assert main(["strata", "--space", "R2", "--tree", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no components in tree grammar: ''\n"


@pytest.mark.parametrize("tree,stray", [
    ("(A A -1) oops (B B B B -1) ((", "oops (("),
    ("(A A -1)(B B B B -1))", ")"),
    ("(A A -1)((B B B B -1)", "("),
])
def test_strata_tree_with_stray_text_exits_2(capsys, tree, stray):
    # text outside the parenthesised groups is refused, not skipped
    assert main(["strata", "--space", "R2", "--tree", tree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: stray text {stray!r} outside the "
                            "groups of tree grammar\n")


@pytest.mark.parametrize("space,tree", [
    ("R2", "(A A A -1)(B B B -1)"),
    ("R2", "(A A -1)(A A B B -1)"),
    ("M2", "(A A -1)(A A B B -1)"),
    ("S2minus", "(A A -1)(B B B B -1)"),
    ("S2plus", "(A A -1)(A A B B -1)"),
])
def test_strata_tree_must_carry_the_space_partition(capsys, space, tree):
    # six marks, but not split into the space's A- and B-marks: the tree is
    # no stratum of that space
    assert main(["strata", "--space", space, "--tree", tree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{space} needs" in captured.err


@pytest.mark.parametrize("space,tree", [
    ("M2", "(A A -1)(A A A A -1)"),
    ("S2plus", "(A A -1)(A B B B -1)"),
    ("S2plus", "(B B -1)(A A A B -1)"),
    ("S2minus", "(B B -1)(A B B B -1)"),
])
def test_strata_tree_with_the_space_partition_passes(capsys, space, tree):
    code, out = run(capsys, "strata", "--space", space, "--tree", tree)
    assert code == 0 and "verdict: PASS" in out


def test_intersection_kernel_compares_by_span(capsys, monkeypatch):
    import prymspin.cli as cli
    from prymspin import reference
    from prymspin.exact_linear import QMatrix, kernel_basis

    def kernel_row(expected):
        monkeypatch.setitem(reference.A4_KERNELS, "R2", expected)
        out = run(capsys, "intersections", "--space", "R2")[1]
        return next(line for line in out.splitlines() if "] kernel:" in line)

    assert kernel_row([[-2, -12, 6, -24, 16]]).startswith("- [ok]")
    assert kernel_row([[1, 6, -3, 12, -7]]).startswith("- [FAIL]")
    assert kernel_row([]).startswith("- [FAIL]")
    # on the first four rows the kernel has dimension 2: a reference whose
    # first row matches but whose rows do not span the kernel fails, and
    # another basis of the same span passes
    real = cli.intersection_table

    def fewer_rows(space_tag):
        rows, cols, table = real(space_tag)
        return rows[:4], cols, table[:4]

    monkeypatch.setattr(cli, "intersection_table", fewer_rows)
    rows, cols, table = fewer_rows("R2")
    perm = [cols.index(c) for c in reference.BOUNDARY_ORDER["R2"]]
    ker = [[v.get(j, 0) for j in range(len(cols))] for v in kernel_basis(
        QMatrix([{j: row[p] for j, p in enumerate(perm) if row[p]}
                 for row in table], len(cols)))]
    assert len(ker) == 2
    assert kernel_row([ker[0], [0, 0, 0, 0, 1]]).startswith("- [FAIL]")
    assert kernel_row([ker[0], ker[0]]).startswith("- [FAIL]")
    assert kernel_row([[a + b for a, b in zip(*ker)], ker[1]]).startswith(
        "- [ok]")


@pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus"])
def test_intersections_compare_in_reference_order(capsys, monkeypatch, tag):
    # a table whose columns come in another order gives the same report
    import prymspin.cli as cli
    code, expected = run(capsys, "intersections", "--space", tag)
    real = cli.intersection_table

    def reversed_columns(space_tag):
        rows, cols, table = real(space_tag)
        return rows, cols[::-1], [row[::-1] for row in table]

    monkeypatch.setattr(cli, "intersection_table", reversed_columns)
    assert run(capsys, "intersections", "--space", tag) == (code, expected)
    assert code == 0
