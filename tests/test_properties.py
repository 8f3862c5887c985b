"""Property tests of the exact engine, the ring, the mark action and the
pushforward.

Examples are derandomized, so every run checks the same cases."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from prymspin.exact_linear import QMatrix, kernel_basis, rank, solve
from prymspin.keel_ring import RingElement, build_graded_basis
from prymspin.pushpull import push_to_base
from prymspin.space_registry import load_space
from prymspin.symmetry import act

GB = build_graded_basis(6)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

perms = st.permutations(range(1, 7)).map(tuple)
small_ints = st.integers(min_value=-5, max_value=5)


def elements(degree: int):
    """Integer combinations of nonzero monomials of a degree, reduced."""
    monos = sorted(tuple(GB.divisors[r] for r in m)
                   for m in GB.reduction[degree])
    return st.dictionaries(st.sampled_from(monos), small_ints,
                           min_size=1, max_size=4).map(
        lambda coeffs: GB.element(degree, coeffs))


@PROPERTY
@given(st.integers(min_value=0, max_value=3).flatmap(elements))
def test_reduce_is_idempotent(x):
    # the reduced coefficients, read again, give the same class
    assert GB.element(x.degree, x.coeffs) == x


@PROPERTY
@given(perms, elements(1), st.integers(min_value=1, max_value=2).flatmap(elements))
def test_act_is_multiplicative(g, x, y):
    assert act(g, GB.multiply(x, y), GB) == GB.multiply(act(g, x, GB),
                                                       act(g, y, GB))


@PROPERTY
@given(perms, elements(3))
def test_integration_is_s6_invariant(g, x):
    assert GB.integrate(act(g, x, GB)) == GB.integrate(x)


@st.composite
def invariant_pairs(draw):
    """A space, two invariant classes of one degree built as integer
    combinations of its named classes, and two integer scalars."""
    space = load_space(draw(st.sampled_from(["R2", "S2plus", "S2minus", "M2"])))
    degree = draw(st.sampled_from([1, 2]))
    names = (list(space.boundary) if degree == 1 else
             [nm for nm, e in space.strata.items() if len(e.rep) == 2])

    def combo():
        return space.gb.combine(degree, [(space.named_class(name).value,
                                          draw(small_ints))
                                         for name in names])

    return space, combo(), combo(), draw(small_ints), draw(small_ints)


@PROPERTY
@given(invariant_pairs())
def test_push_to_base_is_linear(case):
    space, x, y, a, b = case
    combo = space.gb.combine(x.degree, [(x, a), (y, b)])
    expected = space.gb.combine(x.degree, [(push_to_base(space, x), a),
                                           (push_to_base(space, y), b)])
    assert push_to_base(space, combo) == expected


@PROPERTY
@given(elements(1), elements(1), elements(1))
def test_multiplication_is_commutative_and_associative(x, y, z):
    xy = GB.multiply(x, y)
    assert xy == GB.multiply(y, x)
    assert GB.multiply(xy, z) == GB.multiply(x, GB.multiply(y, z))
    assert GB.multiply(xy, z) == GB.multiply(z, xy)


@st.composite
def named_factors(draw):
    """A space and one to three factors, each an integer combination of its
    degree-1 named classes (boundary divisors and the Hodge class)."""
    space = load_space(draw(st.sampled_from(["R2", "S2plus", "S2minus", "M2"])))
    names = list(space.boundary) + [space.lambda_name]
    factor = st.dictionaries(st.sampled_from(names), small_ints,
                             min_size=1, max_size=3)
    return space, draw(st.lists(factor, min_size=1, max_size=3))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(named_factors())
def test_evaluate_matches_multiply_chain(case):
    space, factors = case
    gb = space.gb
    terms = {}
    for choice in itertools.product(*(f.items() for f in factors)):
        names = tuple(name for name, _ in choice)
        terms[names] = terms.get(names, 0) + math.prod(c for _, c in choice)
    expected = RingElement.unit(space.n)
    for f in factors:
        value = gb.combine(1, [(space.named_class(name).value, c)
                               for name, c in f.items()])
        expected = gb.multiply(expected, value)
    assert space.evaluate(terms) == expected


entries = st.one_of(small_ints, st.fractions(min_value=-5, max_value=5,
                                             max_denominator=6))


def sparse_vectors(ncols: int):
    """Dicts column -> integer or Fraction over ncols columns, zero entries
    included."""
    return st.dictionaries(st.integers(min_value=0, max_value=max(ncols - 1, 0)),
                           entries, max_size=ncols)


@st.composite
def sparse_matrices(draw):
    """A matrix of up to 7 sparse rows over up to 6 columns."""
    ncols = draw(st.integers(min_value=0, max_value=6))
    return QMatrix(draw(st.lists(sparse_vectors(ncols), max_size=7)), ncols)


def apply(m: QMatrix, x: dict) -> dict:
    """m x as a sparse vector of its nonzero entries."""
    out = {}
    for i, row in enumerate(m.rows):
        value = sum(c * x.get(j, 0) for j, c in row.items())
        if value:
            out[i] = value
    return out


@PROPERTY
@given(sparse_matrices())
def test_kernel_vectors_annihilate_every_row(m):
    ker = kernel_basis(m)
    assert all(apply(m, v) == {} for v in ker)
    assert rank(m) + len(ker) == m.ncols


@PROPERTY
@given(sparse_matrices().flatmap(
    lambda m: st.tuples(st.just(m), sparse_vectors(m.ncols))))
def test_solve_recovers_a_consistent_right_side(case):
    m, x = case
    b = apply(m, x)
    y = solve(m, b)
    assert y is not None and apply(m, y) == b

