import itertools
import random
from fractions import Fraction

import pytest

from prymspin.exact_linear import QMatrix, rank
from prymspin.keel_ring import (BoundaryIndex, RingElement, all_divisors,
                                build_graded_basis, canonicalize,
                                four_point_relation, incompatible, monomial)


def D(*marks, n=6):
    return canonicalize(set(marks), n)


def gen(*marks, n=6):
    return RingElement.generator(D(*marks, n=n))


class TestCanonicalize:
    def test_complement_rule(self):
        assert canonicalize({5, 6}, 6).key == (1, 2, 3, 4)
        assert canonicalize({1, 2}, 6).key == (1, 2)
        assert canonicalize({2, 3, 6}, 6).key == (1, 4, 5)

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            canonicalize({1}, 6)
        with pytest.raises(ValueError):
            canonicalize({1, 2, 3, 4, 5}, 6)

    def test_divisor_count(self):
        assert len(all_divisors(6)) == 25
        assert len(all_divisors(5)) == 10
        assert len(all_divisors(4)) == 3


class TestIncompatible:
    def test_examples(self):
        assert incompatible(D(1, 2), D(1, 3))
        assert not incompatible(D(1, 2), D(1, 2, 3))
        assert not incompatible(D(1, 2), D(3, 4))

    def test_mismatched_marks(self):
        with pytest.raises(ValueError):
            incompatible(D(1, 2), D(1, 2, n=5))


class TestFourPointRelation:
    def test_explicit_terms(self):
        r1, _ = four_point_relation(6, 1, 2, 3, 4)
        expected = {}
        for marks, c in [((1, 2), 1), ((1, 2, 5), 1), ((1, 2, 6), 1),
                         ((3, 4), 1), ((1, 3), -1), ((1, 3, 5), -1),
                         ((1, 3, 6), -1), ((2, 4), -1)]:
            expected[(D(*marks),)] = Fraction(c)
        assert r1.coeffs == expected

    def test_five_marks_pattern(self):
        # [1,2]+[3,4] = [1,3]+[2,4] on five marks (sums have two terms each)
        r1, _ = four_point_relation(5, 1, 2, 3, 4)
        coeffs = {m[0].key: c for m, c in r1.coeffs.items()}
        assert coeffs == {(1, 2): 1, (3, 4): 1, (1, 3): -1, (2, 4): -1}

    def test_four_marks_force_dimension_one(self):
        gb = build_graded_basis(4)
        assert gb.dims() == [1, 1]

    def test_all_relations_reduce_to_zero(self):
        gb = build_graded_basis(6)
        for quad in itertools.combinations(range(1, 7), 4):
            for rel in four_point_relation(6, *quad):
                assert gb.reduce(rel).is_zero()

    def test_distinct_marks_required(self):
        with pytest.raises(ValueError):
            four_point_relation(6, 1, 1, 2, 3)


class TestGradedBasis:
    def test_dims(self):
        assert build_graded_basis(4).dims() == [1, 1]
        assert build_graded_basis(5).dims() == [1, 5, 1]
        assert build_graded_basis(6).dims() == [1, 16, 16, 1]

    def test_dims_match_modular_rank_oracle(self):
        from oracles import keel_dims_mod_p
        assert keel_dims_mod_p(6, 2147483647) == [1, 16, 16, 1]
        assert keel_dims_mod_p(5, 1073741789) == [1, 5, 1]

    def test_dims_match_point_count_oracle(self):
        from oracles import point_count_betti
        for n in (4, 5, 6):
            assert point_count_betti(n) == build_graded_basis(n).dims()

    def test_palindromic(self):
        for n in (4, 5, 6):
            dims = build_graded_basis(n).dims()
            assert dims == dims[::-1]

    def test_cap(self):
        with pytest.raises(ValueError):
            build_graded_basis(9)

    def test_cap_is_checked_once_and_can_be_raised(self, monkeypatch):
        import prymspin.keel_ring as kr
        monkeypatch.setattr(kr, "DEFAULT_N_CAP", 4)
        monkeypatch.setattr(kr, "_CACHE", {})
        with pytest.raises(ValueError):
            build_graded_basis(5, cap=4)
        assert build_graded_basis(5, cap=5).dims() == [1, 5, 1]


class TestMultiply:
    def test_incompatible_product_vanishes(self):
        gb = build_graded_basis(6)
        assert gb.multiply(gen(1, 2), gen(1, 3)).is_zero()

    def test_unit(self):
        gb = build_graded_basis(6)
        x = gb.reduce(gen(1, 2) + gen(3, 4).scale(Fraction(2, 3)))
        assert gb.multiply(x, RingElement.unit(6)) == x

    def test_triple_product_hits_the_top(self):
        gb = build_graded_basis(6)
        # transverse chain of nested strata defining a single point
        prod = gb.product([gen(1, 2), gen(3, 4), gen(1, 2, 3, 4)])
        assert not prod.is_zero()
        assert gb.integrate(prod) == 1

    def test_beyond_top_degree_is_zero(self):
        gb = build_graded_basis(6)
        top = gb.product([gen(1, 2), gen(1, 2, 3), gen(1, 2, 3, 4)])
        assert gb.multiply(top, gen(1, 2)).is_zero()

    def test_commutative_associative_random(self):
        gb = build_graded_basis(6)
        rng = random.Random(5)
        divisors = all_divisors(6)

        def random_elem():
            coeffs = {}
            for _ in range(3):
                d = rng.choice(divisors)
                coeffs[(d,)] = Fraction(rng.randint(-4, 4))
            return gb.reduce(RingElement(6, 1, coeffs))

        for _ in range(20):
            a, b, c = random_elem(), random_elem(), random_elem()
            assert gb.multiply(a, b) == gb.multiply(b, a)
            assert gb.multiply(gb.multiply(a, b), c) == \
                gb.multiply(a, gb.multiply(b, c))

    def test_reduction_is_multiplicative_100_pairs(self):
        # product of reduced elements equals the raw polynomial product
        # reduced afterwards
        gb = build_graded_basis(6)
        rng = random.Random(17)
        divisors = all_divisors(6)
        for _ in range(100):
            raw_a = RingElement(6, 1, {
                (rng.choice(divisors),): Fraction(rng.randint(-3, 3))
                for _ in range(2)})
            raw_b_coeffs = {}
            for _ in range(2):
                m = monomial(rng.choice(divisors), rng.choice(divisors))
                raw_b_coeffs[m] = Fraction(rng.randint(-3, 3))
            raw_b = RingElement(6, 2, raw_b_coeffs)
            lhs = gb.multiply(gb.reduce(raw_a), gb.reduce(raw_b))
            raw_prod = {}
            for ma, ca in raw_a.coeffs.items():
                for mb, cb in raw_b.coeffs.items():
                    mm = monomial(*(ma + mb))
                    raw_prod[mm] = raw_prod.get(mm, Fraction(0)) + ca * cb
            rhs = gb.reduce(RingElement(6, 3, raw_prod))
            assert lhs == rhs


class TestIntegrate:
    def test_zero(self):
        gb = build_graded_basis(6)
        assert gb.integrate(RingElement.zero(6, 3)) == 0

    def test_point_chain_is_one(self):
        gb = build_graded_basis(6)
        chain = gb.product([gen(1, 2), gen(1, 2, 3), gen(1, 2, 3, 4)])
        assert gb.integrate(chain) == 1

    def test_self_intersection_golden(self):
        gb = build_graded_basis(6)
        cube = gb.product([gen(1, 2)] * 3)
        assert gb.integrate(cube) == 1
        assert gb.integrate(gb.product([gen(3, 4), gen(3, 4), gen(5, 6)])) == -1

    def test_wrong_degree(self):
        gb = build_graded_basis(6)
        with pytest.raises(ValueError):
            gb.integrate(gen(1, 2))

    def test_every_top_monomial_matches_oracle(self):
        from oracles import oracle_integrals
        gb = build_graded_basis(6)
        for m, expected in oracle_integrals(6).items():
            got = gb.integrate(RingElement(6, 3, {m: Fraction(1)}))
            assert got == expected

    def test_perfect_pairing(self):
        gb = build_graded_basis(6)
        for d in (0, 1):
            rows = []
            for bm in gb.basis[d]:
                x = RingElement(6, d, {bm: Fraction(1)})
                row = []
                for cm in gb.basis[3 - d]:
                    y = RingElement(6, 3 - d, {cm: Fraction(1)})
                    row.append(gb.integrate(gb.multiply(x, y)))
                rows.append(row)
            mat = QMatrix(rows)
            assert rank(mat) == len(gb.basis[d])


def test_serialize():
    x = gen(1, 2).scale(Fraction(3, 2)) + gen(3, 4)
    assert x.serialize() == [[[[1, 2]], "3/2"], [[[3, 4]], "1"]]
    gb = build_graded_basis(6)
    top = gb.product([gen(1, 2), gen(3, 4), gen(1, 2, 3, 4)])
    (monomial_lists, coeff), = top.serialize()
    assert Fraction(coeff) == gb.integrate(top) * Fraction(coeff) / gb.integrate(top)
