"""Permutation actions on marked points and invariant subrings.

A finite group of mark permutations acts on the boundary ring by relabeling
the defining subsets of the generators.  The ring kernel renames divisors by
rank (``GradedBasis.divisor_permutation``, one table per permutation read
off the side bitmasks, and ``GradedBasis.relabel_ranks`` for a monomial of
ranks) and keeps the image of each relabelled basis monomial per
permutation and degree.  ``act`` is ``GradedBasis.relabel`` over one
permutation.

``average_images`` is the one symmetrization operator: entry i is the group
average of basis monomial i, the mean of the reduced monomials in its orbit,
as an integer ``Image``.  The table is built once per group and degree and
kept on the graded basis.  The fixed subring in each degree is the span of
the distinct averages (the image of the averaging projector).
``invariant_basis`` keeps it as plain rows, the reduced row-echelon form of
those averages over the basis monomials of the degree, and builds no ring
element; ``pushpull.push_to_base`` applies the table of the full symmetric
group.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .exact_linear import QMatrix, rref
from .keel_ring import GradedBasis, Image, RingElement, sum_images

# A permutation of {1..n} is a tuple p with p[i-1] = image of i.
Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[i - 1] for i in q)


def perm_from_cycles(cycles, n: int) -> Perm:
    """Build a permutation from cycles like [(1, 2), (3, 4, 5)]."""
    img = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            img[a - 1] = b
    return tuple(img)


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation such as "(1 2)(3 4 5)" or "(1,2)(3,4)"."""
    cycles = []
    for grp in re.findall(r"\(([^()]*)\)", text):
        entries = [int(tok) for tok in re.split(r"[,\s]+", grp.strip()) if tok]
        if entries:
            cycles.append(tuple(entries))
    if not cycles and text.strip():
        raise ValueError(f"cannot parse cycle notation: {text!r}")
    return perm_from_cycles(cycles, n)


class PermGroup:
    """A permutation group on {1..n}, stored with its full element list."""

    def __init__(self, n: int, generators: list[Perm]):
        self.n = n
        self.generators = generators
        self.elements = sorted(self.orbit(identity_perm(n), compose))

    @property
    def order(self) -> int:
        return len(self.elements)

    def orbit(self, item, action):
        """Orbit of a hashable item under action(g, item)."""
        seen = {item}
        frontier = [item]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = action(g, x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen


_STANDARD = {
    # Block structure, generators; orders 48, 72, 120, 720.
    "R2": ("(1 2)", "(3 4)", "(3 4 5 6)"),
    "S2plus": ("(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)", "(1 4)(2 5)(3 6)"),
    "S2minus": ("(2 3)", "(2 3 4 5 6)"),
    "M2": ("(1 2)", "(1 2 3 4 5 6)"),
}


def standard_group(tag: str, n: int = 6) -> PermGroup:
    """The mark-permutation group presenting one of the four quotients."""
    if tag not in _STANDARD:
        raise ValueError(f"unknown space tag: {tag}")
    gens = [parse_cycles(t, n) for t in _STANDARD[tag]]
    return PermGroup(n, gens)


def act(g: Perm, x: RingElement, gb: GradedBasis) -> RingElement:
    """Relabel marks by g in every generator, then reduce to the basis."""
    return gb.relabel(g, x)


def average_images(group: PermGroup, gb: GradedBasis, d: int) -> list[Image]:
    """Entry i is the Image of the group average of the i-th degree-d basis
    monomial b: (1/|G.b|) times the sum of the reduced monomials in its
    orbit G.b.  Built once per generator list and degree and kept on the
    graded basis; a degree beyond the top gives the empty table."""
    key = (tuple(group.generators), d)
    table = gb.average_tables.get(key)
    if table is None:
        ranks = gb.basis_ranks.get(d, [])
        divisors = gb.divisors
        averages: dict[tuple[int, ...], Image] = {}
        for m in ranks:
            if m in averages:
                continue
            orbit = group.orbit(m, gb.relabel_ranks)
            nums, den = sum_images(len(ranks), [
                (1, 1, gb.reduction[d][tuple(divisors[r] for r in o)])
                for o in orbit])
            den *= len(orbit)
            k = gcd(den, *nums)
            image = (den // k, tuple((i, v // k)
                                     for i, v in enumerate(nums) if v))
            averages.update(dict.fromkeys(orbit, image))
        table = gb.average_tables[key] = [averages[m] for m in ranks]
    return table


def invariant_basis(group: PermGroup,
                    gb: GradedBasis) -> list[list[dict[int, Fraction]]]:
    """Entry d is a basis of the degree-d fixed subspace: the reduced
    row-echelon rows of the distinct group averages (``average_images``),
    each a sparse row over the basis monomials ``gb.basis[d]``.  The rows
    depend on the subspace only.  Built once per generator list and kept on
    the graded basis."""
    key = tuple(group.generators)
    basis = gb.invariant_bases.get(key)
    if basis is None:
        # An Image's numerators span the same line as the average itself.
        basis = gb.invariant_bases[key] = [
            rref(QMatrix([dict(terms) for _, terms
                          in dict.fromkeys(average_images(group, gb, d))],
                         len(gb.basis[d])))[0]
            for d in range(gb.top + 1)]
    return basis


def invariant_dims(group: PermGroup, gb: GradedBasis) -> list[int]:
    """Dimension of the fixed subspace in each degree."""
    return [len(rows) for rows in invariant_basis(group, gb)]
