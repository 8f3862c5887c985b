"""Acceptance suite: one test per criterion, each printing its own
pass/fail line.  Every tolerance is zero — all arithmetic is exact."""

from fractions import Fraction

import pytest

from prymspin import reference
from prymspin.exact_linear import QMatrix, kernel_basis, rank
from prymspin.keel_ring import build_graded_basis
from prymspin.presentations import (Presentation, check_relation,
                                    dependent_generators, hilbert_function,
                                    independence_check, verify_presentation)
from prymspin.pushpull import (check_combo_vanishes, derive_linear_relation,
                               derive_m05_relations, intersection_table,
                               mumford_base_numbers, verify_lambda_identities)
from prymspin.space_registry import load_space
from prymspin.strata_aut import fiber_count, prym_aut_number
from prymspin.symmetry import invariant_dims, standard_group
from prymspin.theta_f2 import torsion_census, verify_bijections


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion}{suffix}")
    return ok


def test_criterion_1_keel_dims():
    ok = True
    for n, expected in reference.KEEL_DIMS.items():
        ok &= build_graded_basis(n).dims() == expected
    from oracles import keel_dims_mod_p, point_count_betti
    ok &= keel_dims_mod_p(6, 2147483647) == reference.KEEL_DIMS[6]
    for n in (4, 5, 6):
        ok &= point_count_betti(n) == reference.KEEL_DIMS[n]
    assert _report("1", ok, "graded dims 4/5/6 + modular and point-count oracles")


def test_criterion_2_invariant_dims():
    gb = build_graded_basis(6)
    ok = all(invariant_dims(standard_group(tag), gb) == expected
             for tag, expected in reference.INVARIANT_DIMS.items())
    assert _report("2", ok, "invariant dims of all four spaces")


def test_criterion_3_linear_relations():
    ok = True
    for tag, expected in reference.LINEAR_RELATIONS.items():
        combo = derive_linear_relation(tag)
        ok &= combo.terms == {k: Fraction(v) for k, v in expected.items()}
    assert _report("3", ok, "boundary relations from the four-point push")


def test_criterion_4_intersection_tables():
    ok = True
    for tag in ("R2", "S2plus", "S2minus"):
        rows, cols, table = intersection_table(tag)
        order = reference.BOUNDARY_ORDER[tag]
        perm = [cols.index(c) for c in order]
        for i, rname in enumerate(rows):
            got = [table[i][j] for j in perm]
            ok &= got == [Fraction(x) for x in reference.A4_TABLES[tag][rname]]
        mat = QMatrix([{j: x for j, x in enumerate(row) if x} for row in table],
                      len(cols))
        ok &= rank(mat) == reference.A4_RANKS[tag]
        ker = kernel_basis(mat)
        expected = reference.A4_KERNELS[tag]
        ok &= len(ker) == len(expected)
        if ker and expected:
            v = [ker[0].get(cols.index(c), 0) for c in order]
            scale = next(x / y for x, y in zip(v, expected[0]) if y)
            ok &= v == [scale * y for y in expected[0]]
    assert _report("4", ok, "all 20 pairings, ranks 4/3/3, stated kernels")


def test_criterion_5_mumford_base_numbers():
    values = mumford_base_numbers()
    ok = (values["delta0.Delta00"] == Fraction(-1, 4)
          and values["delta1.Delta00"] == Fraction(1, 8)
          and values["delta0.Delta01"] == Fraction(1, 4)
          and values["delta1.Delta01"] == Fraction(-1, 48))
    assert _report("5", ok, "-1/4, 1/8, 1/4, -1/48")


def test_criterion_6_presentations():
    ok = True
    for preset in ("I", "J", "K"):
        p = Presentation.from_preset(preset)
        tag = reference.PRESENTATION_SPACES[preset]
        rep = verify_presentation(tag, p)
        ok &= rep.isomorphic
        ok &= rep.hilbert == reference.HILBERT[preset]
        for text in p.generator_texts:
            holds, _ = check_relation(tag, text)
            ok &= holds
    ok &= independence_check(Presentation.from_preset("J"))
    ok &= independence_check(Presentation.from_preset("K"))
    assert _report("6", ok, "I/J/K isomorphic, Hilbert functions, every "
                            "generator vanishes, J and K independent")


@pytest.mark.xfail(strict=True, reason=(
    "the ten generators of preset I are labeled independent in the source, "
    "but the degree-2 piece of the ideal is 11-dimensional and spanned by "
    "12 of their multiples; see the certificate in the decisions ledger"))
def test_criterion_6_independence_of_I():
    ok = independence_check(Presentation.from_preset("I"))
    _report("6 (independence of I)", ok,
            f"dependent generator indices {dependent_generators(Presentation.from_preset('I'))}")
    assert ok


def test_criterion_7_lambda_identities():
    report = verify_lambda_identities()
    vanishings = [k for k in report if k.endswith("= 0")]
    ok = len(vanishings) == 7 and all(report[k]["holds"] for k in report)
    assert _report("7", ok, "8 chains and 7 square-of-Hodge vanishings")


def test_criterion_8_m05_relations():
    ok = True
    combos = derive_m05_relations()
    for combo, (tag, expected) in zip(combos, reference.M05_RELATIONS):
        ok &= combo.space == tag
        ok &= combo.terms == {k: Fraction(v) for k, v in expected.items()}
        holds, _ = check_combo_vanishes(combo)
        ok &= holds
    assert _report("8", ok, "three boundary-cover relations, exact")


def test_criterion_9_base_relations():
    ok = check_relation("M2", reference.M2_RELATION)[0] is True
    variants = {text: check_relation("M2", text)[0]
                for text in reference.M2_VARIANTS}
    # the swapped-index variant fails, the cubic one holds
    ok &= list(variants.values()) == [False, True]
    detail = ("12*delta1^2+delta0*delta1 holds; variants evaluated: "
              + ", ".join(f"{k} -> {v}" for k, v in sorted(variants.items())))
    assert _report("9", ok, detail)


def test_criterion_10_strata_tables():
    ok = True
    for tag in ("R2", "S2plus", "S2minus", "M2"):
        space = load_space(tag)
        base = load_space("M2")
        for e in list(space.boundary.values()) + list(space.strata.values()):
            ok &= prym_aut_number(e.tree, e.blown_edges,
                                  space.unordered_classes) == e.aut
            if e.pushforward_target is not None:
                coeff = Fraction(
                    fiber_count(e.tree, space.unordered_classes)
                    * base.strata[e.pushforward_target].aut, e.aut)
                ok &= coeff == e.pushforward_coeff
    r2 = load_space("R2")
    ok &= r2.strata["Gp"].aut == 4 and r2.strata["H11p"].aut == 8
    ok &= load_space("S2plus").strata["M"].aut == 24
    assert _report("10", ok, "every automorphism number and pushforward "
                             "coefficient, all four spaces")


def test_criterion_11_theta():
    ok = True
    for g in range(1, 7):
        rep = verify_bijections(g)
        ok &= rep["prym_total"] == 2 ** (2 * g) - 1 and rep["phi_bijective"]
        ok &= rep["spin_census"] == rep["arf_census"]
    census = torsion_census(2)
    ok &= (census["prym_total"], census["spin_even"],
           census["spin_odd"]) == (15, 10, 6)
    assert _report("11", ok, "genus 1..6 censuses; genus 2 gives 15/10/6")


def test_criterion_12_report_all(capsys):
    from prymspin.cli import main
    code1 = main(["report-all"])
    out1 = capsys.readouterr().out
    code2 = main(["report-all"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2 and "FAIL" not in out1
    assert _report("12", ok, "exit 0, byte-identical reruns")
