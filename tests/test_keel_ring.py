import itertools
import math
import random
from fractions import Fraction

import pytest

from prymspin.exact_linear import QMatrix, rank
from prymspin.keel_ring import (BoundaryIndex, RingElement, all_divisors,
                                build_graded_basis, canonicalize,
                                four_point_relation, monomial)
from prymspin.space_registry import load_space
from prymspin.symmetry import invariant_basis


def D(*marks, n=6):
    return canonicalize(set(marks), n)


def gen(*marks, n=6):
    return build_graded_basis(n).element(1, {(D(*marks, n=n),): 1})


def product(gb, elements):
    """The reduced product of the elements, starting from the unit."""
    acc = RingElement.unit(gb.n)
    for e in elements:
        acc = gb.multiply(acc, e)
    return acc


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

    def test_divisor_order(self):
        # Lexicographic on the sorted members, not by size first: the order
        # picks the non-pivot monomials, so the basis depends on it.
        assert " ".join(str(d) for d in all_divisors(6)) == (
            "[1,2] [1,2,3] [1,2,3,4] [1,2,3,5] [1,2,4] [1,2,4,5] [1,2,5] "
            "[1,3] [1,3,4] [1,3,4,5] [1,3,5] [1,4] [1,4,5] [1,5] [2,3] "
            "[2,3,4] [2,3,4,5] [2,3,5] [2,4] [2,4,5] [2,5] [3,4] [3,4,5] "
            "[3,5] [4,5]")


class TestBoundaryIndexValue:
    """Divisors are dict and cache keys on the hot paths: they compare, hash
    and sort as the tuple (key, n), across mark counts too."""

    DIVISORS = [d for n in range(4, 8) for d in all_divisors(n)]

    def test_equality_and_hash(self):
        for d in self.DIVISORS:
            twin = BoundaryIndex(d.key, d.n)
            assert d == twin and not d != twin and d is not twin
            assert hash(d) == hash(twin) == hash((d.key, d.n))
        assert len(set(self.DIVISORS)) == len(self.DIVISORS)
        assert BoundaryIndex((1, 2), 5) != BoundaryIndex((1, 2), 6)
        assert D(1, 2) != (1, 2) and D(1, 2) != "[1,2]"

    def test_order_is_the_tuple_order(self):
        shuffled = list(self.DIVISORS)
        random.Random(7).shuffle(shuffled)
        assert ([(d.key, d.n) for d in sorted(shuffled)]
                == sorted((d.key, d.n) for d in shuffled))
        for a, b in itertools.product(self.DIVISORS[::7], repeat=2):
            ta, tb = (a.key, a.n), (b.key, b.n)
            assert ((a < b, a <= b, a > b, a >= b)
                    == (ta < tb, ta <= tb, ta > tb, ta >= tb))
        with pytest.raises(TypeError):
            D(1, 2) < (1, 2)

    def test_repr_text(self):
        # the text of registry and kernel error messages
        assert repr(D(1, 2)) == "BoundaryIndex(key=(1, 2), n=6)"
        assert repr((D(5, 6, n=7),)) == "(BoundaryIndex(key=(5, 6), n=7),)"
        for d in self.DIVISORS:
            assert repr(d) == f"BoundaryIndex(key={d.key!r}, n={d.n})"
            assert str(d) == "[" + ",".join(map(str, d.key)) + "]"

    def test_immutable(self):
        d = D(1, 2)
        with pytest.raises(AttributeError):
            d.key = (1, 3)
        with pytest.raises(AttributeError):
            d.extra = 1
        assert d.key == (1, 2) and hash(d) == hash(((1, 2), 6))


class TestVanishingRule:
    """``element`` skips a monomial outside ``reduction[d]`` only when it is
    a sorted product of d divisors of its own kernel: those are exactly the
    monomials that vanish.  Anything else raises KeyError, whether or not
    its factors are compatible."""

    def test_incompatible_factors_vanish(self):
        gb = build_graded_basis(6)
        assert gb.element(2, {(D(1, 2), D(1, 3)): 1}).is_zero()
        assert gb.element(3, {(D(1, 2), D(1, 3), D(3, 4)): 5}).is_zero()
        assert not gb.element(2, {(D(1, 2), D(3, 4)): 1}).is_zero()

    def test_above_the_top_every_sorted_monomial_vanishes(self):
        gb = build_graded_basis(6)
        x = gb.element(4, {(D(1, 2),) * 4: 1, (D(1, 2), D(1, 3), D(1, 4),
                                               D(1, 5)): 2})
        assert x.degree == 4 and x.is_zero() and x.nums == []

    @pytest.mark.parametrize("degree,m", [
        (1, (D(1, 2), D(1, 3))),
        (2, (D(1, 2), D(1, 3), D(3, 4))),
        (1, (D(1, 2), D(3, 4))),
        (4, (D(1, 2),)),
        (0, (D(1, 2),)),
        (2, (D(1, 2), D(1, 2, n=5))),
        (2, (D(1, 3), D(1, 2))),
        (2, (D(1, 3), D(1, 2, 3))),
        (3, (D(1, 3), D(1, 2), D(1, 4))),
    ])
    def test_malformed_monomial_raises(self, degree, m):
        # wrong length, a factor of another mark count, or not sorted
        gb = build_graded_basis(6)
        with pytest.raises(KeyError, match=f"degree-{degree} monomial"):
            gb.element(degree, {m: 1})


class TestFourPointRelation:
    def test_explicit_terms(self):
        r1, _ = four_point_relation(6, 1, 2, 3, 4)
        expected = {}
        for marks, c in [((1, 2), 1), ((1, 2, 5), 1), ((1, 2, 6), 1),
                         ((3, 4), 1), ((1, 3), -1), ((1, 3, 5), -1),
                         ((1, 3, 6), -1), ((2, 4), -1)]:
            expected[(D(*marks),)] = Fraction(c)
        assert r1 == expected

    def test_five_marks_pattern(self):
        # [1,2]+[3,4] = [1,3]+[2,4] on five marks (sums have two terms each)
        r1, _ = four_point_relation(5, 1, 2, 3, 4)
        coeffs = {m[0].key: c for m, c in r1.items()}
        assert coeffs == {(1, 2): 1, (3, 4): 1, (1, 3): -1, (2, 4): -1}

    def test_four_marks_force_dimension_one(self):
        gb = build_graded_basis(4)
        assert gb.dims() == [1, 1]

    def test_all_relations_reduce_to_zero(self):
        gb = build_graded_basis(6)
        for quad in itertools.combinations(range(1, 7), 4):
            for rel in four_point_relation(6, *quad):
                assert gb.element(1, rel).is_zero()

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

    def test_dims_match_keel_recursion(self):
        from oracles import keel_poincare
        for n in (4, 5, 6):
            assert build_graded_basis(n).dims() == keel_poincare(n)

    def test_nonzero_monomials_match_oracle(self):
        from oracles import _nonzero_monomials
        for n in (4, 5, 6):
            gb = build_graded_basis(n)
            for d in range(gb.top + 1):
                assert list(gb.reduction[d]) == _nonzero_monomials(n, d)

    def test_palindromic(self):
        for n in (4, 5, 6):
            dims = build_graded_basis(n).dims()
            assert dims == dims[::-1]

    def test_cap(self):
        for n in (8, 9):
            with pytest.raises(ValueError):
                build_graded_basis(n)

    def test_cap_is_checked_once_and_can_be_raised(self, monkeypatch):
        import prymspin.keel_ring as kr
        monkeypatch.setattr(kr, "DEFAULT_N_CAP", 4)
        monkeypatch.setattr(kr, "_CACHE", {})
        with pytest.raises(ValueError):
            build_graded_basis(5)
        monkeypatch.setattr(kr, "DEFAULT_N_CAP", 5)
        assert build_graded_basis(5).dims() == [1, 5, 1]

    def test_compatibility_bitsets_match_oracle(self):
        from oracles import _compatible
        for n in (4, 5, 6):
            gb = build_graded_basis(n)
            for i, a in enumerate(gb.divisors):
                for j, b in enumerate(gb.divisors):
                    assert bool(gb.compatibility[i] >> j & 1) == _compatible(a, b)

    def test_build_works_on_divisor_ranks(self, monkeypatch):
        # the build forms no monomial of divisors and compares no two
        # divisors, apart from the one chain that calibrates the point class
        import prymspin.keel_ring as kr
        calls = {"monomial": 0, "__lt__": 0}
        real_monomial, real_lt = kr.monomial, BoundaryIndex.__lt__

        def counting_monomial(*factors):
            calls["monomial"] += 1
            return real_monomial(*factors)

        def counting_lt(a, b):
            calls["__lt__"] += 1
            return real_lt(a, b)

        monkeypatch.setattr(kr, "monomial", counting_monomial)
        monkeypatch.setattr(BoundaryIndex, "__lt__", counting_lt)
        assert kr.GradedBasis(6).dims() == [1, 16, 16, 1]
        assert calls["monomial"] <= 1
        assert calls["__lt__"] <= 3


class TestMultiply:
    def test_incompatible_product_vanishes(self):
        gb = build_graded_basis(6)
        assert gb.multiply(gen(1, 2), gen(1, 3)).is_zero()

    def test_unit(self):
        gb = build_graded_basis(6)
        x = gb.combine(1, [(gen(1, 2), 1), (gen(3, 4), Fraction(2, 3))])
        assert gb.multiply(x, RingElement.unit(6)) == x

    def test_triple_product_hits_the_top(self):
        gb = build_graded_basis(6)
        # transverse chain of nested strata defining a single point
        prod = product(gb, [gen(1, 2), gen(3, 4), gen(1, 2, 3, 4)])
        assert not prod.is_zero()
        assert gb.integrate(prod) == 1

    def test_beyond_top_degree_is_zero(self):
        gb = build_graded_basis(6)
        top = product(gb, [gen(1, 2), gen(1, 2, 3), gen(1, 2, 3, 4)])
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
            return gb.element(1, coeffs)

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
            raw_a = {(rng.choice(divisors),): Fraction(rng.randint(-3, 3))
                     for _ in range(2)}
            raw_b_coeffs = {}
            for _ in range(2):
                m = monomial(rng.choice(divisors), rng.choice(divisors))
                raw_b_coeffs[m] = Fraction(rng.randint(-3, 3))
            lhs = gb.multiply(gb.element(1, raw_a),
                              gb.element(2, raw_b_coeffs))
            raw_prod = {}
            for ma, ca in raw_a.items():
                for mb, cb in raw_b_coeffs.items():
                    mm = monomial(*(ma + mb))
                    raw_prod[mm] = raw_prod.get(mm, Fraction(0)) + ca * cb
            rhs = gb.element(3, raw_prod)
            assert lhs == rhs


class TestIntegrate:
    def test_zero(self):
        gb = build_graded_basis(6)
        assert gb.integrate(gb.element(3, {})) == 0

    def test_point_chain_is_one(self):
        gb = build_graded_basis(6)
        chain = product(gb, [gen(1, 2), gen(1, 2, 3), gen(1, 2, 3, 4)])
        assert gb.integrate(chain) == 1

    def test_self_intersection_golden(self):
        gb = build_graded_basis(6)
        cube = product(gb, [gen(1, 2)] * 3)
        assert gb.integrate(cube) == 1
        assert gb.integrate(product(gb, [gen(3, 4), gen(3, 4), gen(5, 6)])) == -1

    def test_wrong_degree(self):
        gb = build_graded_basis(6)
        with pytest.raises(ValueError):
            gb.integrate(gen(1, 2))

    def test_every_top_monomial_matches_oracle(self):
        from oracles import oracle_integrals
        gb = build_graded_basis(6)
        for m, expected in oracle_integrals(6).items():
            got = gb.integrate(gb.element(3, {m: 1}))
            assert got == expected

    def test_perfect_pairing(self):
        gb = build_graded_basis(6)

        def pairing_rank(lower, upper):
            return rank(QMatrix([{j: gb.integrate(gb.multiply(x, y))
                                  for j, y in enumerate(upper)}
                                 for x in lower], len(upper)))

        def basis(d):
            return [gb.element(d, {m: 1}) for m in gb.basis[d]]

        for d in (0, 1):
            assert pairing_rank(basis(d), basis(3 - d)) == len(gb.basis[d])
        # degree 1 x degree 2 on each invariant subring
        for tag, dim in (("R2", 4), ("S2plus", 3), ("S2minus", 3), ("M2", 2)):
            inv = [[gb.element(d, {gb.basis[d][j]: x for j, x in row.items()})
                    for row in rows] for d, rows in
                   enumerate(invariant_basis(load_space(tag).group, gb))]
            assert len(inv[1]) == len(inv[2]) == dim
            assert pairing_rank(inv[1], inv[2]) == dim


def test_serialize():
    # [1,4] and [3,4] are basis divisors, so reduction keeps both terms
    gb = build_graded_basis(6)
    x = gb.combine(1, [(gen(1, 4), Fraction(3, 2)), (gen(3, 4), 1)])
    assert x.serialize() == [[[[1, 4]], "3/2"], [[[3, 4]], "1"]]
    # three pairwise compatible divisors meet in one point, so the single
    # basis monomial b carries the coefficient c with c * integral(b) = 1
    from oracles import oracle_integrals
    top = product(gb, [gen(1, 2), gen(3, 4), gen(1, 2, 3, 4)])
    (monomial_lists, coeff), = top.serialize()
    b = tuple(D(*key) for key in monomial_lists)
    assert [b] == gb.basis[3]
    assert Fraction(coeff) * oracle_integrals(6)[b] == 1


class TestPsiClasses:
    """The whole multiplication table against the psi-class integrals.

    Keel's formula gives psi_i as the sum of the divisors D_T over the sides
    T that hold i and neither of two other marks j, k.  In genus 0 the
    integral of psi_1^a_1 ... psi_n^a_n with a_1 + ... + a_n = n - 3 is
    (n-3)! / (a_1! ... a_n!) (the string equation; Witten, "Two-dimensional
    gravity and intersection theory on moduli space", 1991)."""

    @staticmethod
    def psi(gb, i, j, k):
        others = [x for x in range(1, gb.n + 1) if x not in (i, j, k)]
        return gb.element(1, {(canonicalize({i, *extra}, gb.n),): 1
                              for r in range(1, len(others) + 1)
                              for extra in itertools.combinations(others, r)})

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_psi_does_not_depend_on_the_two_marks(self, n):
        gb = build_graded_basis(n)
        for i in range(1, n + 1):
            rest = [x for x in range(1, n + 1) if x != i]
            first, *others = [self.psi(gb, i, j, k)
                              for j, k in itertools.combinations(rest, 2)]
            assert not first.is_zero()
            assert all(x == first for x in others), i

    @pytest.mark.parametrize("n,count", [(4, 4), (5, 15), (6, 56)])
    def test_psi_integrals_are_multinomial(self, n, count):
        gb = build_graded_basis(n)
        psi = [self.psi(gb, i, *[x for x in range(1, n + 1) if x != i][:2])
               for i in range(1, n + 1)]
        exponents = [a for a in itertools.product(range(n - 2), repeat=n)
                     if sum(a) == n - 3]
        assert len(exponents) == count
        for a in exponents:
            prod = product(gb, [x for x, k in zip(psi, a) for _ in range(k)])
            expected = Fraction(math.factorial(n - 3),
                                math.prod(math.factorial(k) for k in a))
            assert gb.integrate(prod) == expected, a
