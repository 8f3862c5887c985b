import json
import time

import pytest

from prymspin.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_keel_betti(capsys):
    code, out = run(capsys, "keel", "--n", "6", "--betti")
    assert code == 0
    assert "1 16 16 1" in out


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


def test_json_output(capsys):
    code, out = run(capsys, "--json", "invariants", "--space", "M2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_input_errors_exit_2(capsys):
    assert main(["push", "--map", "bogus", "--class", "[1,2]"]) == 2
    assert main(["push", "--map", "f_R", "--class", "oops"]) == 2
    assert main(["keel", "--n", "9"]) == 2


def test_report_all_deterministic(capsys):
    code1, out1 = run(capsys, "report-all")
    code2, out2 = run(capsys, "report-all")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "FAIL" not in out1


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
