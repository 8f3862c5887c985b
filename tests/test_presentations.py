import random
from fractions import Fraction

import pytest

from oracles import dependent_generators_by_rank, hilbert_mod_p
from prymspin import presentations, reference, space_registry
from prymspin.exact_linear import QMatrix, kernel_basis
from prymspin.presentations import (ExprError, Presentation, check_relation,
                                    dependent_generators, hilbert_function,
                                    independence_check, parse_polynomial,
                                    poly_degree, verify_presentation)
from prymspin.space_registry import SpaceDescriptor, load_space
from prymspin.symmetry import invariant_basis


def degree1_kernel(tag, p):
    """Kernel of the degree-1 substitution map, as coefficient vectors over
    the presentation variables: each variable's class is solved for in the
    invariant basis, and the kernel is that of the coordinate matrix."""
    space = load_space(tag)
    gb = space.gb
    inv = [gb.element(1, {gb.basis[1][j]: x for j, x in row.items()})
           for row in invariant_basis(space.group, gb)[1]]
    coords = [gb.span_coordinates(space.named_class(v).value, inv)
              for v in p.variables]
    ker = kernel_basis(QMatrix([{j: x for j, x in enumerate(row) if x}
                                for row in zip(*coords)], len(coords)))
    return [[v.get(j, 0) for j in range(len(coords))] for v in ker]


def exponents(p):
    """The generators of the presentation as exponent vectors over its
    variables, the format the oracles read."""
    return [{tuple(m.count(v) for v in p.variables): c for m, c in g.items()}
            for g in p.generators]


class TestParser:
    def test_basic(self):
        p = parse_polynomial("2*x*y - 3*z^2", ["x", "y", "z"])
        assert p == {("x", "y"): Fraction(2), ("z", "z"): Fraction(-3)}

    def test_rational_coefficient(self):
        p = parse_polynomial("1/2*x + x/4", ["x"])
        assert p == {("x",): Fraction(3, 4)}

    def test_parentheses(self):
        p = parse_polynomial("x*(y - z)", ["x", "y", "z"])
        assert p == {("x", "y"): Fraction(1), ("x", "z"): Fraction(-1)}

    def test_unknown_variable(self):
        with pytest.raises(ExprError):
            parse_polynomial("x + q", ["x"])

    def test_exponent_and_degree_bounded_by_max_degree(self):
        assert parse_polynomial("x^6", ["x"]) == {("x",) * 6: Fraction(1)}
        for text in ("x^7", "x^3000000", "(x^6)^2", "x^4*x^3", "(x^3)^3"):
            with pytest.raises(ExprError):
                parse_polynomial(text, ["x"])
        assert parse_polynomial("x^7", ["x"], max_degree=7) == {
            ("x",) * 7: Fraction(1)}
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
            ("x",): Fraction(1)}
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
                len(p.variables), exponents(p), p.max_degree, prime)

    def test_zero_beyond_socle(self):
        for preset in ("I", "J", "K"):
            h = hilbert_function(Presentation.from_preset(preset))
            assert all(x == 0 for x in h[4:])

    def test_stops_at_first_zero_degree(self, monkeypatch):
        # zero from degree 2 on: degree 2 is the only rank taken (degrees 0
        # and 1 hold no multiple of a generator)
        p = Presentation.from_texts(["x", "y", "z"],
                                    ["x^2 - y*z", "x*y", "y^2", "x*z", "z^2",
                                     "y*z"], max_degree=8)
        calls = []
        real = presentations.rref

        def counting_rref(m):
            calls.append(m.nrows)
            return real(m)

        monkeypatch.setattr(presentations, "rref", counting_rref)
        h = hilbert_function(p)
        assert h == [1, 3, 0, 0, 0, 0, 0, 0, 0]
        assert h == hilbert_mod_p(3, exponents(p), 8, 2_147_483_647)
        assert len(calls) == 1


class TestVerify:
    @pytest.mark.parametrize("preset", ["I", "J", "K"])
    def test_isomorphic(self, preset):
        p = Presentation.from_preset(preset)
        rep = verify_presentation(reference.PRESENTATION_SPACES[preset], p)
        assert all(rep.generators_vanish)
        assert all(rep.surjective_by_degree)
        assert rep.hilbert[:4] == rep.invariant_dims
        assert rep.isomorphic

    def test_surjectivity_can_fail(self, monkeypatch):
        # an evaluator that loses the class a1m: degree 1 of the odd spin
        # ring, spanned by exactly the three boundary classes, is missed
        real = SpaceDescriptor.evaluate

        def dropping_a1m(self, terms):
            return real(self, {names: c for names, c in terms.items()
                               if "a1m" not in names})

        monkeypatch.setattr(SpaceDescriptor, "evaluate", dropping_a1m)
        monkeypatch.setattr(space_registry, "_SPACE_CACHE", {})
        rep = verify_presentation("S2minus", Presentation.from_preset("K"))
        assert rep.surjective_by_degree == [True, False, True, True]
        assert rep.isomorphic is False

    def test_variable_mismatch(self):
        p = Presentation.from_preset("I")
        with pytest.raises(ValueError):
            verify_presentation("S2plus", p)

    def test_degree1_kernel_is_the_linear_relation(self):
        from prymspin.pushpull import derive_linear_relation
        for preset in ("I", "J"):
            tag = reference.PRESENTATION_SPACES[preset]
            p = Presentation.from_preset(preset)
            ker = degree1_kernel(tag, p)
            assert len(ker) == 1
            combo = derive_linear_relation(tag)
            vec = [combo.terms.get((v,), Fraction(0)) for v in p.variables]
            scale = next(x / y for x, y in zip(ker[0], vec) if y)
            assert ker[0] == [scale * y for y in vec]
        assert degree1_kernel("S2minus", Presentation.from_preset("K")) == []


class TestIndependence:
    def test_trivial_dependent_pair(self):
        p = Presentation.from_texts(["x"], ["x", "2*x"])
        assert independence_check(p) is False

    @pytest.mark.parametrize("preset", ["J", "K"])
    def test_presets_independent(self, preset):
        assert independence_check(Presentation.from_preset(preset))

    def test_dependent_generators_of_I(self):
        assert dependent_generators(Presentation.from_preset("I")) == \
            [1, 3, 5, 6, 9]

    def test_dependent_generators_match_rank_oracle(self):
        # one kernel per degree against one rank test per generator, on
        # seeded presentations with repeated, scaled and multiplied
        # generators among random ones
        rng = random.Random(818)
        names = ["x", "y", "z"]
        for _ in range(60):
            nvars = rng.randint(1, 3)
            texts = []
            for _ in range(rng.randint(1, 6)):
                if texts and rng.random() < 0.3:
                    texts.append(f"({rng.randint(-2, 2)})*{rng.choice(names[:nvars])}"
                                 f"^{rng.randint(0, 1)}*({rng.choice(texts)})")
                    continue
                d = rng.randint(1, 3)
                texts.append(" + ".join(
                    f"({rng.randint(-3, 3)})*" + "*".join(
                        rng.choice(names[:nvars]) for _ in range(d))
                    for _ in range(rng.randint(1, 3))))
            p = Presentation.from_texts(names[:nvars], texts)
            assert dependent_generators(p) == \
                dependent_generators_by_rank(nvars, exponents(p)), texts

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
