from fractions import Fraction

import pytest

from oracles import hilbert_mod_p
from prymspin import reference
from prymspin.presentations import (ExprError, Presentation, check_relation,
                                    dependent_generators, hilbert_function,
                                    independence_check, parse_polynomial,
                                    poly_degree, substitution_degree1_kernel,
                                    verify_presentation)


class TestParser:
    def test_basic(self):
        p = parse_polynomial("2*x*y - 3*z^2", ["x", "y", "z"])
        assert p == {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-3)}

    def test_rational_coefficient(self):
        p = parse_polynomial("1/2*x + x/4", ["x"])
        assert p == {(1,): Fraction(3, 4)}

    def test_parentheses(self):
        p = parse_polynomial("x*(y - z)", ["x", "y", "z"])
        assert p == {(1, 1, 0): Fraction(1), (1, 0, 1): Fraction(-1)}

    def test_unknown_variable(self):
        with pytest.raises(ExprError):
            parse_polynomial("x + q", ["x"])

    def test_exponent_and_degree_bounded_by_max_degree(self):
        assert parse_polynomial("x^6", ["x"]) == {(6,): Fraction(1)}
        for text in ("x^7", "x^3000000", "(x^6)^2", "x^4*x^3", "(x^3)^3"):
            with pytest.raises(ExprError):
                parse_polynomial(text, ["x"])
        assert parse_polynomial("x^7", ["x"], max_degree=7) == {
            (7,): Fraction(1)}
        with pytest.raises(ExprError):
            Presentation.from_texts(["x"], ["x^5"], max_degree=4)

    def test_max_degree_range(self):
        for bad in (0, -1, 9, 10**6):
            with pytest.raises(ValueError):
                Presentation.from_texts(["x"], ["x"], max_degree=bad)

    def test_division_by_zero_and_deep_nesting(self):
        with pytest.raises(ExprError):
            parse_polynomial("x/0", ["x"])
        assert parse_polynomial("(" * 50 + "x" + ")" * 50, ["x"]) == {
            (1,): Fraction(1)}
        with pytest.raises(ExprError):
            parse_polynomial("(" * 51 + "x" + ")" * 51, ["x"])

    def test_degree(self):
        assert poly_degree(parse_polynomial("x^2*y", ["x", "y"])) == 3
        with pytest.raises(ExprError):
            poly_degree(parse_polynomial("x + x*y", ["x", "y"]))


class TestHilbert:
    def test_principal(self):
        p = Presentation.from_texts(["x"], ["x"], max_degree=4)
        assert hilbert_function(p) == [1, 0, 0, 0, 0]

    @pytest.mark.parametrize("preset", ["I", "J", "K"])
    def test_presets(self, preset):
        p = Presentation.from_preset(preset)
        assert hilbert_function(p) == reference.HILBERT[preset]

    @pytest.mark.parametrize("preset", ["I", "J", "K"])
    def test_presets_match_modular_oracle(self, preset):
        # ranks over two large primes, from rows the oracle builds itself out
        # of the parsed generators
        p = Presentation.from_preset(preset)
        for prime in (2_147_483_647, 1_000_000_007):
            assert hilbert_function(p) == hilbert_mod_p(
                len(p.variables), p.generators, p.max_degree, prime)

    def test_zero_beyond_socle(self):
        for preset in ("I", "J", "K"):
            h = hilbert_function(Presentation.from_preset(preset))
            assert all(x == 0 for x in h[4:])


class TestVerify:
    @pytest.mark.parametrize("preset", ["I", "J", "K"])
    def test_isomorphic(self, preset):
        p = Presentation.from_preset(preset)
        rep = verify_presentation(reference.PRESENTATION_SPACES[preset], p)
        assert all(rep.generators_vanish)
        assert all(rep.surjective_by_degree)
        assert rep.hilbert[:4] == rep.invariant_dims
        assert rep.isomorphic

    def test_variable_mismatch(self):
        p = Presentation.from_preset("I")
        with pytest.raises(ValueError):
            verify_presentation("S2plus", p)

    def test_degree1_kernel_is_the_linear_relation(self):
        from prymspin.pushpull import derive_linear_relation
        for preset in ("I", "J"):
            tag = reference.PRESENTATION_SPACES[preset]
            p = Presentation.from_preset(preset)
            ker = substitution_degree1_kernel(tag, p)
            assert len(ker) == 1
            combo = derive_linear_relation(tag)
            vec = [combo.terms.get((v,), Fraction(0)) for v in p.variables]
            scale = next(x / y for x, y in zip(ker[0], vec) if y)
            assert ker[0] == [scale * y for y in vec]
        assert substitution_degree1_kernel(
            "S2minus", Presentation.from_preset("K")) == []


class TestIndependence:
    def test_trivial_dependent_pair(self):
        p = Presentation.from_texts(["x"], ["x", "2*x"])
        assert independence_check(p) is False

    @pytest.mark.parametrize("preset", ["J", "K"])
    def test_presets_independent(self, preset):
        assert independence_check(Presentation.from_preset(preset))

    def test_preset_I_has_a_genuine_dependency(self):
        # the reference labels these ten generators independent; the degree-2
        # count (11-dimensional ideal piece, 12 spanning multiples) forbids
        # it, witnessed by an explicit combination
        p = Presentation.from_preset("I")
        assert dependent_generators(p)
        variables = p.variables
        certificate = parse_polynomial(
            "1/2*d11*(d0p + 6*d0pp - 3*d0r + 12*d1 - 8*d11)"
            " - 3*(d0pp*d11) - 6*(d1*d11) - 1/2*(d11*(d0p - d0r))"
            " + (4*d11^2 + d0r*d11)", variables)
        assert certificate == {}


class TestCheckRelation:
    @pytest.mark.parametrize("tag,text", [
        ("R2", "d0p*d0r^2"),
        ("R2", "d1*d11"),
        ("R2", "d0pp*d11"),
        ("R2", "d0pp*d0r"),
        ("R2", "d0p^2*d0pp"),
        ("S2plus", "a0p^2*b0p"),
        ("S2plus", "a0p^2*(a1p - b1p)"),
        ("S2minus", "12*b0m^2 + 24*b0m*a1m + a0m*b0m"),
    ])
    def test_vanishing(self, tag, text):
        ok, residue = check_relation(tag, text)
        assert ok and residue.is_zero()

    def test_nonvanishing_with_residue(self):
        ok, residue = check_relation("R2", "d0p*d0pp")
        assert not ok and not residue.is_zero()

    def test_lambda_classes_allowed(self):
        ok, _ = check_relation("R2", "l^2*d0p")
        assert ok
        ok, _ = check_relation("R2", "d11*l - 1/4*d11*d0r")
        assert ok

    def test_pullbacks_of_base_relations(self):
        cases = {
            "R2": "12*(d1 + d11)^2 + (d0p + d0pp + 2*d0r)*(d1 + d11)",
            "S2plus": "12*(2*a1p + 2*b1p)^2 + (a0p + 2*b0p)*(2*a1p + 2*b1p)",
            "S2minus": "12*(2*a1m)^2 + (a0m + 2*b0m)*(2*a1m)",
        }
        for tag, text in cases.items():
            ok, _ = check_relation(tag, text)
            assert ok, tag
