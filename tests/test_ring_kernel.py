"""The ring kernel in basis coordinates against the ring on dicts of
monomials in ``oracles``, which shares no table with it: each check
compares a kernel element's ``coeffs`` with the oracle's dict."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prymspin.keel_ring import (GradedBasis, RingElement, build_graded_basis,
                                canonicalize, sum_images)
from prymspin.pushpull import push_to_base
from prymspin.space_registry import SPACE_TAGS, load_space
from prymspin.symmetry import act, invariant_basis, perm_from_cycles
from test_pushpull import _transfer_inputs

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def basis_elements(gb, d):
    return [gb.element(d, {m: 1}) for m in gb.basis[d]]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_reduction_table_matches_oracle(n):
    gb = build_graded_basis(n)
    for d in range(gb.top + 1):
        table = oracles._reduction_table(n, d)
        assert sorted(tuple(gb.divisors[r] for r in m)
                      for m in gb.reduction[d]) == sorted(table)
        for m in table:
            x = {m: Fraction(1)}
            assert gb.element(d, x).coeffs == oracles.reduce(n, x), m


@pytest.mark.parametrize("n", [4, 5, 6])
def test_every_basis_pair_matches_oracle(n):
    gb = build_graded_basis(n)
    for da, db in itertools.product(range(gb.top + 1), repeat=2):
        if da + db > gb.top:
            continue
        for a in basis_elements(gb, da):
            for b in basis_elements(gb, db):
                assert gb.multiply(a, b).coeffs == \
                    oracles.multiply(n, a.coeffs, b.coeffs), (a, b)


# One permutation of each of the 11 cycle types of S6 (the partitions 1^6,
# 2, 2^2, 2^3, 3, 3.2, 3^2, 4, 4.2, 5 and 6), on consecutive marks.
CYCLE_TYPE_PERMS = [perm_from_cycles(c, 6) for c in [
    (), ((1, 2),), ((1, 2), (3, 4)), ((1, 2), (3, 4), (5, 6)), ((1, 2, 3),),
    ((1, 2, 3), (4, 5)), ((1, 2, 3), (4, 5, 6)), ((1, 2, 3, 4),),
    ((1, 2, 3, 4), (5, 6)), ((1, 2, 3, 4, 5),), ((1, 2, 3, 4, 5, 6),)]]


@pytest.mark.parametrize("tag", SPACE_TAGS)
def test_relabelling_matches_oracle(tag):
    space = load_space(tag)
    gb = space.gb
    perms = (set(oracles.coset_representatives(space.group))
             | set(space.group.generators) | set(CYCLE_TYPE_PERMS))
    for g in sorted(perms):
        for d in range(gb.top + 1):
            for x in basis_elements(gb, d):
                assert act(g, x, gb).coeffs == oracles.act(g, x.coeffs), (g, x)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_divisor_permutation_matches_oracle(n):
    gb = build_graded_basis(n)
    for g in itertools.permutations(range(1, n + 1)):
        renamed = [gb.divisors[r] for r in gb.divisor_permutation(g)]
        assert renamed == [oracles.relabel(g, (d,))[0] for d in gb.divisors], g


@pytest.mark.parametrize("g", [(1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6, 7),
                               (1, 1, 3, 4, 5, 6), (0, 2, 3, 4, 5, 6)])
def test_non_permutation_is_refused(g):
    # (1, 1, 3, 4, 5, 6) would send the side {1,2,3} to the divisor {1,3}
    gb = build_graded_basis(6)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a permutation"):
            gb.divisor_permutation(g)
    with pytest.raises(ValueError, match="not a permutation"):
        act(g, RingElement.unit(6), gb)


def test_relabel_sums_over_permutations():
    gb = build_graded_basis(6)
    x = basis_elements(gb, 2)[3]
    total = oracles.linear_combination((oracles.act(g, x.coeffs), 1)
                                       for g in CYCLE_TYPE_PERMS)
    assert gb.combine(2, [(gb.relabel(g, x), 1)
                          for g in CYCLE_TYPE_PERMS]).coeffs == total


def test_coordinates_mix_denominators():
    nums, den = sum_images(3, [(1, 2, (1, ((0, 1), (2, -1)))),
                               (2, 3, (5, ((1, 4),))),
                               (-1, 6, (1, ((0, 3),)))])
    assert [Fraction(v, den) for v in nums] == [
        Fraction(1, 2) - Fraction(1, 2), Fraction(8, 15), Fraction(-1, 2)]
    assert sum_images(2, []) == ([0, 0], 1)
    unit = sum_images(2, [(3, 1, (1, ((0, 2),))), (-1, 1, (1, ((0, 6), (1, 1))))])
    assert unit == ([0, -1], 1)


GB = build_graded_basis(6)
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def elements(degree: int):
    """(degree, coefficients) of rational combinations of nonzero monomials
    of a degree, unreduced."""
    monos = sorted(tuple(GB.divisors[r] for r in m)
                   for m in GB.reduction[degree])
    return st.dictionaries(st.sampled_from(monos), fractions,
                           min_size=1, max_size=5).map(
        lambda coeffs: (degree, coeffs))


@PROPERTY
@given(st.integers(min_value=0, max_value=3).flatmap(elements))
def test_reduce_matches_oracle(case):
    degree, x = case
    assert GB.element(degree, x).coeffs == oracles.reduce(6, x)


@PROPERTY
@given(st.integers(min_value=0, max_value=2).flatmap(elements),
       st.integers(min_value=0, max_value=2).flatmap(elements))
def test_multiply_matches_oracle(a, b):
    (da, x), (db, y) = a, b
    assert GB.multiply(GB.element(da, x), GB.element(db, y)).coeffs == \
        oracles.multiply(6, x, y)


@PROPERTY
@given(st.permutations(range(1, 7)).map(tuple),
       st.integers(min_value=0, max_value=3).flatmap(elements))
def test_act_matches_oracle(g, case):
    degree, x = case
    assert act(g, GB.element(degree, x), GB).coeffs == oracles.act(g, x)


@PROPERTY
@given(st.integers(min_value=1, max_value=2).flatmap(
    lambda d: st.lists(st.tuples(elements(d), fractions), min_size=1,
                       max_size=4).map(lambda terms: (d, terms))))
def test_combine_matches_oracle(case):
    degree, terms = case
    total = oracles.linear_combination((x, c) for (_, x), c in terms)
    assert GB.combine(degree, [(GB.element(degree, x), c)
                               for (_, x), c in terms]).coeffs == \
        oracles.reduce(6, total)


@pytest.mark.parametrize("tag", SPACE_TAGS)
def test_invariant_basis_matches_orbit_sums(tag):
    # the echelonized span of the reduced orbit sums of basis monomials
    space = load_space(tag)
    gb = space.gb
    basis = invariant_basis(space.group, gb)
    for d in range(gb.top + 1):
        ambient = gb.basis[d]
        rows = []
        for m in ambient:
            orbit = {oracles.relabel(g, m) for g in space.group.elements}
            x = oracles.reduce(6, dict.fromkeys(orbit, Fraction(1)))
            rows.append([x.get(b, Fraction(0)) for b in ambient])
        pivots, red = oracles.reference_rref(rows, len(ambient))
        expected = [{m: c for m, c in zip(ambient, red[r]) if c}
                    for r in range(len(pivots))]
        assert [{ambient[j]: x for j, x in row.items()}
                for row in basis[d]] == expected, d


def test_span_coordinates():
    space = load_space("R2")
    gb = space.gb
    span = [space.named_class(nm).value for nm in ("d0p", "d1", "d11")]
    x = gb.combine(1, [(span[0], 2), (span[1], Fraction(-1, 3)), (span[2], 5)])
    assert gb.span_coordinates(x, span) == [2, Fraction(-1, 3), 5]


def _reference_span_coordinates(x, span):
    """The solution of S z = t with every free variable 0, or None, from
    the reference echelon of [S | t]: column k of S holds the coordinates
    of span[k] and t those of x."""
    k = len(span)
    cols = [[Fraction(v, y.den) for v in y.nums] for y in span]
    rows = [[c[i] for c in cols] + [Fraction(t, x.den)]
            for i, t in enumerate(x.nums)]
    pivots, red = oracles.reference_rref(rows, k + 1)
    if k in pivots:
        return None
    z = [Fraction(0)] * k
    for row, p in zip(red, pivots):
        z[p] = row[k]
    return z


def _awkward_spans():
    """(target, span, whether the target lies outside the span): dependent
    spans, the empty span and targets outside the span, on R2 in degrees 1
    and 2."""
    space = load_space("R2")
    gb = space.gb
    cls = {nm: space.named_class(nm).value for nm in space.names()}
    zero = gb.element(1, {})
    d0p, d1, d11, d0r = cls["d0p"], cls["d1"], cls["d11"], cls["d0r"]
    boundary = [cls[nm] for nm in space.boundary]
    codim2 = [cls[nm] for nm, e in space.strata.items() if len(e.rep) == 2]
    inside = gb.combine(1, [(d0p, 2), (d11, Fraction(-5, 7))])
    # D^{1,3} is moved by R2, which keeps {1, 2}
    moved = gb.element(1, {(canonicalize({1, 3}, 6),): 1})
    cases = [
        ("repeated vector", inside, [d0p, d1, d0p, d11], False),
        ("zero vectors", inside, [zero, d0p, d11, zero], False),
        ("zero vector alone", zero, [zero], False),
        # the one linear relation of R2 involves every boundary class
        ("linear relation", gb.combine(1, [(d0r, 3), (d1, -1)]), boundary,
         False),
        ("linear relation, target outside", moved, boundary, True),
        ("9 strata in 4 dimensions", gb.combine(
            2, [(c, k - 4) for k, c in enumerate(codim2)]), codim2, False),
        ("9 strata, target outside", gb.multiply(moved, moved), codim2,
         True),
        ("empty span, zero target", zero, [], False),
        ("empty span, nonzero target", d0p, [], True),
        ("d0r outside d0p, d1, d11", d0r, [d0p, d1, d11], True),
    ]
    return [pytest.param(x, span, outside, id=label)
            for label, x, span, outside in cases]


@pytest.mark.parametrize("x,span,outside", _awkward_spans())
def test_span_coordinates_match_reference(x, span, outside):
    # free variables 0 for a dependent span, None outside the span
    expected = _reference_span_coordinates(x, span)
    assert (expected is None) == outside
    assert x.kernel.span_coordinates(x, span) == expected


def test_float_coefficients_are_refused():
    # 0.1 would be stored as 3602879701896397/36028797018963968
    gb = build_graded_basis(6)
    x = gb.reduce(RingElement.unit(6))
    table = gb.relabel_images(tuple(range(1, 7)), 0)
    for bad in (lambda: gb.element(0, {(): 0.3}),
                lambda: RingElement.unit(6).scale(0.1),
                lambda: x.scale(0.5),
                lambda: gb.linear_image(x, table, 0.1),
                lambda: gb.combine(0, [(x, 0.5)])):
        with pytest.raises(TypeError, match="not float"):
            bad()
    assert gb.linear_image(x, table, Fraction(1, 10)) == \
        gb.element(0, {(): Fraction(1, 10)})


@pytest.fixture(scope="module")
def lazy_elements():
    """The transfer inputs of the four spaces, the products of their
    divisors, and the pushes of all of them to the base."""
    out = []
    for tag in SPACE_TAGS:
        space, inputs = _transfer_inputs(tag)
        elements = [x for _, x in inputs]
        divisors = [x for x in elements if x.degree == 1]
        elements += [space.gb.multiply(a, b)
                     for a, b in itertools.combinations_with_replacement(
                         divisors, 2)]
        elements += [push_to_base(space, x) for x in list(elements)]
        out += elements
    return out


class TestLazyCoefficients:
    """Elements hold integer coordinates and build their Fractions on first
    read of ``coeffs``; every read that needs no Fraction agrees with the
    one that does."""

    def test_coeffs_match_the_record(self, lazy_elements):
        # the record is the element's coordinates in its kernel's basis
        for x in lazy_elements:
            basis = x.kernel.basis.get(x.degree, [])
            assert len(basis) == len(x.nums)
            assert [x.coeffs.get(b, 0) for b in basis] == \
                [Fraction(c, x.den) for c in x.nums]
            assert all(x.coeffs.values())
            assert x.is_zero() == (not x.coeffs)
        assert len(lazy_elements) > 100

    def test_equality_agrees_with_coeffs(self, lazy_elements):
        by_degree = {}
        for x in lazy_elements:
            by_degree.setdefault(x.degree, []).append(x)
        equal = 0
        for xs in by_degree.values():
            for x, y in itertools.product(xs, repeat=2):
                same = x.coeffs == y.coeffs
                assert (x == y) == same and (x != y) != same
                equal += same
        assert equal > len(lazy_elements)

    def test_scaling_keeps_the_value(self, lazy_elements):
        for x in lazy_elements:
            twice = x.scale(2)
            back = twice.scale(Fraction(1, 2))
            # den is left unreduced, so equality cross-multiplies
            assert back.den == 2 * x.den
            assert back.kernel is x.kernel
            assert back == x
            assert (twice == x) == x.is_zero()
            assert x.scale(0).is_zero() and x.scale(0) == x.scale(0).scale(3)
            assert x.scale(Fraction(-3, 4)).coeffs == \
                {m: c * Fraction(-3, 4) for m, c in x.coeffs.items()}

    def test_only_the_building_kernel_reads_an_element(self):
        # one kernel per mark count: an element of another kernel instance,
        # even one of the same n, is refused, never read again by value
        first = build_graded_basis(6)
        second = GradedBasis(6)
        small = build_graded_basis(5)
        mine = first.element(1, {(first.divisors[0],): 1})
        for other in (second.element(1, {(second.divisors[0],): 1}),
                      second.element(3, {}), RingElement.unit(5),
                      small.element(1, {m: 1 for m in small.basis[1]})):
            for call in (lambda: first.coordinates(other),
                         lambda: first.reduce(other),
                         lambda: first.combine(other.degree, [(other, 1)]),
                         lambda: first.multiply(mine, other),
                         lambda: first.multiply(other, mine),
                         lambda: first.multiply(other, other),
                         lambda: first.span_coordinates(other, []),
                         lambda: first.span_coordinates(mine, [other]),
                         lambda: first.linear_image(
                             other, first.relabel_images(
                                 tuple(range(1, 7)), 1)),
                         lambda: mine == other,
                         lambda: other == mine,
                         lambda: mine != other):
                with pytest.raises(ValueError, match="another ring kernel"):
                    call()
        with pytest.raises(ValueError, match="another ring kernel"):
            first.integrate(second.element(3, {}))
        assert first.reduce(mine) is mine and mine == first.reduce(mine)

    def test_warm_push_reads_no_coefficients(self):
        for tag in SPACE_TAGS:
            space = load_space(tag)
            for name in space.names():
                # a fresh copy, so no earlier read of the class counts
                x = space.named_class(name).value.scale(1)
                push_to_base(space, x)
                pushed = push_to_base(space, x)
                assert x._coeffs is None and pushed._coeffs is None, name
                assert pushed == push_to_base(space, space.named_class(
                    name).value)
