import itertools
import random
from fractions import Fraction

import pytest

import oracles
from oracles import coset_representatives
from prymspin.exact_linear import QMatrix, kernel_basis, rref
from prymspin.keel_ring import (RingElement, all_divisors, build_graded_basis,
                                canonicalize, four_point_relation)
from prymspin.symmetry import (PermGroup, act, average_images, identity_perm,
                               invariant_basis, invariant_dims, parse_cycles,
                               standard_group)

SPACE_TAGS = ("R2", "S2plus", "S2minus", "M2")


def gen(*marks):
    return build_graded_basis(6).element(
        1, {(canonicalize(set(marks), 6),): 1})


def test_parse_cycles():
    assert parse_cycles("(1 2)(3 4)", 6) == (2, 1, 4, 3, 5, 6)
    assert parse_cycles("(1,2,3)", 6) == (2, 3, 1, 4, 5, 6)


def test_standard_group_orders():
    assert standard_group("R2").order == 48
    assert standard_group("S2plus").order == 72
    assert standard_group("S2minus").order == 120
    assert standard_group("M2").order == 720
    with pytest.raises(ValueError):
        standard_group("nope")


# The partition of the six marks that each group stabilizes, blocks of
# equal size possibly swapped.
STABILIZED_PARTITIONS = {"R2": ({1, 2}, {3, 4, 5, 6}),
                         "S2plus": ({1, 2, 3}, {4, 5, 6}),
                         "S2minus": ({1}, {2, 3, 4, 5, 6}),
                         "M2": ({1, 2, 3, 4, 5, 6},)}


@pytest.mark.parametrize("tag", SPACE_TAGS)
def test_standard_group_is_the_partition_stabilizer(tag):
    # an order-48 subgroup of S6 other than S2 x S4 would pass the order
    # test; the elements themselves must be the stabilizer, found by a
    # search of all 720 permutations
    assert standard_group(tag).elements == oracles.partition_stabilizer(
        6, STABILIZED_PARTITIONS[tag])


def test_group_order_divides_factorial():
    for tag in ("R2", "S2plus", "S2minus", "M2"):
        assert 720 % standard_group(tag).order == 0


def test_act_on_generator():
    gb = build_graded_basis(6)
    g = parse_cycles("(1 2)", 6)
    assert act(g, gen(1, 3), gb) == gen(2, 3)


def test_act_fixes_unit():
    gb = build_graded_basis(6)
    for g in standard_group("R2").elements[:10]:
        assert act(g, RingElement.unit(6), gb) == RingElement.unit(6)


def test_relations_closed_under_action():
    # every formal four-point relation, relabelled monomial by monomial by a
    # generator of S6, still vanishes in the kernel
    gb = build_graded_basis(6)
    for quad in itertools.combinations(range(1, 7), 4):
        for rel in four_point_relation(6, *quad):
            for g in standard_group("M2").generators:
                relabelled = {oracles.relabel(g, m): c for m, c in rel.items()}
                assert len(relabelled) == len(rel)
                assert gb.element(1, relabelled).is_zero(), (quad, g)


def test_reynolds_idempotent_and_projects():
    # the Reynolds projector: the orbit sum over the group divided by |G|
    gb = build_graded_basis(6)
    group = standard_group("R2")

    def reynolds(group, x, gb):
        terms = [(gb.relabel(g, x), 1) for g in group.elements]
        return gb.combine(x.degree, terms).scale(Fraction(1, group.order))

    rng = random.Random(9)
    divisors = all_divisors(6)
    for _ in range(5):
        x = gb.element(1, {
            (rng.choice(divisors),): Fraction(rng.randint(-3, 3))
            for _ in range(3)})
        rx = reynolds(group, x, gb)
        assert reynolds(group, rx, gb) == rx
        for g in group.generators:
            assert act(g, rx, gb) == rx


def test_trivial_group_gives_ambient_dims():
    gb = build_graded_basis(6)
    trivial = PermGroup(6, [identity_perm(6)])
    assert invariant_dims(trivial, gb) == gb.dims()


@pytest.mark.parametrize("tag,expected", [
    ("R2", [1, 4, 4, 1]),
    ("S2plus", [1, 3, 3, 1]),
    ("S2minus", [1, 3, 3, 1]),
    ("M2", [1, 2, 2, 1]),
])
def test_invariant_dims(tag, expected):
    gb = build_graded_basis(6)
    assert invariant_dims(standard_group(tag), gb) == expected


def test_invariant_dims_palindromic():
    gb = build_graded_basis(6)
    for tag in ("R2", "S2plus", "S2minus", "M2"):
        dims = invariant_dims(standard_group(tag), gb)
        assert dims == dims[::-1]


def test_invariant_basis_degree0_and_top():
    gb = build_graded_basis(6)
    for tag in ("R2", "S2plus", "S2minus", "M2"):
        basis = invariant_basis(standard_group(tag), gb)
        # the unit is basis monomial 0 of degree 0
        assert basis[0] == [{0: 1}] and gb.basis[0] == [()]
        assert len(basis[3]) == 1


def test_invariant_basis_is_built_once_per_group():
    gb = build_graded_basis(6)
    first = invariant_basis(standard_group("R2"), gb)
    # a second group object with the same generators shares the basis
    assert invariant_basis(standard_group("R2"), gb) is first
    assert invariant_basis(standard_group("S2plus"), gb) is not first


def test_r2_degree1_orbit_sums_span():
    # five divisor orbits, one linear relation: dimension 4
    gb = build_graded_basis(6)
    group = standard_group("R2")
    basis = invariant_basis(group, gb)
    assert len(basis[1]) == 4
    # every divisor orbit sum lies in the span
    from prymspin.space_registry import load_space
    space = load_space("R2")
    span = [gb.element(1, {gb.basis[1][j]: x for j, x in row.items()})
            for row in basis[1]]
    for name in space.boundary:
        coords = gb.span_coordinates(space.named_class(name).value, span)
        assert coords is not None


def test_act_is_ring_homomorphism():
    gb = build_graded_basis(6)
    rng = random.Random(23)
    divisors = all_divisors(6)
    elems = [gb.element(1, {
        (rng.choice(divisors),): Fraction(rng.randint(-2, 2))
        for _ in range(2)}) for _ in range(6)]
    for g in (parse_cycles("(1 2 3)", 6), parse_cycles("(2 5)(3 6)", 6)):
        for x, y in itertools.combinations(elems, 2):
            lhs = act(g, gb.multiply(x, y), gb)
            rhs = gb.multiply(act(g, x, gb), act(g, y, gb))
            assert lhs == rhs


@pytest.mark.parametrize("tag,count", [
    ("R2", 15), ("S2plus", 10), ("S2minus", 6), ("M2", 1)])
def test_coset_representatives_partition_s6(tag, count):
    group = standard_group(tag)
    reps = coset_representatives(group)
    assert len(reps) == count
    assert reps == sorted(reps) and reps[0] == identity_perm(6)
    covered = set()
    for g in reps:
        coset = {tuple(g[h[i] - 1] for i in range(6)) for h in group.elements}
        assert min(coset) == g
        assert not covered & coset
        covered |= coset
    assert covered == set(itertools.permutations(range(1, 7)))


@pytest.mark.parametrize("tag", SPACE_TAGS)
def test_average_images_match_oracle(tag):
    # the orbit-average table against the plain group average of the
    # oracle's action, summed over every element of the group
    gb = build_graded_basis(6)
    group = standard_group(tag)
    for d in range(gb.top + 1):
        table = average_images(group, gb, d)
        assert len(table) == len(gb.basis[d])
        for (den, terms), b in zip(table, gb.basis[d]):
            image = {gb.basis[d][i]: Fraction(v, den) for i, v in terms}
            total = oracles.linear_combination(
                (oracles.act(g, {b: Fraction(1)}), Fraction(1, group.order))
                for g in group.elements)
            assert image == total, (d, b)


@pytest.mark.parametrize("tag", SPACE_TAGS)
def test_invariant_basis_is_the_fixed_subspace(tag):
    # the fixed subspace as the common kernel of g - 1 over the generators,
    # with g acting through the oracle, in reduced row-echelon form
    gb = build_graded_basis(6)
    group = standard_group(tag)
    basis = invariant_basis(group, gb)
    for d in range(gb.top + 1):
        ambient = gb.basis[d]
        column = {m: j for j, m in enumerate(ambient)}
        rows = []
        for g in group.generators:
            block = [{} for _ in ambient]
            for i, b in enumerate(ambient):
                moved = oracles.linear_combination(
                    [(oracles.act(g, {b: Fraction(1)}), 1),
                     ({b: Fraction(1)}, -1)])
                for m, c in moved.items():
                    block[column[m]][i] = c
            rows.extend(block)
        fixed = kernel_basis(QMatrix(rows, len(ambient)))
        red, _ = rref(QMatrix(fixed, len(ambient)))
        expected = [{ambient[j]: x for j, x in row.items() if x}
                    for row in red]
        assert [{ambient[j]: x for j, x in row.items()}
                for row in basis[d]] == expected, d
