"""Permutation actions on marked points and invariant subrings.

A finite group of mark permutations acts on the boundary ring by relabeling
the defining subsets of the generators.  The ring kernel renames divisors by
rank (``GradedBasis.divisor_permutation``, one table per permutation read
off the side bitmasks) and keeps the image of each relabelled basis
monomial per permutation and degree.  ``GradedBasis.relabel`` is the one
relabel-sum: it takes the coordinates of an element once, adds the images
of every given permutation into one integer vector and builds one element.
``act`` is that sum over one permutation; ``pushpull.push_to_base``
calls ``relabel`` itself over the coset representatives of a group.
The fixed subring in each degree is the common kernel of g - 1 over the
generators g of the group, echelonized once per generator list and kept on
the graded basis.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction

from .exact_linear import QMatrix, kernel_basis, rref
from .keel_ring import GradedBasis, RingElement

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
    return gb.relabel((g,), x)


def coset_representatives(group: PermGroup) -> list[Perm]:
    """The lexicographically least element of each left coset gG of the
    group in S_n, in increasing order: |S_n|/|G| permutations.

    For a G-invariant x, act(g h, x) = act(g, x) for h in G, so a sum over
    S_n is |G| times the sum over these representatives."""
    return list(_coset_representatives(group.n, tuple(group.elements)))


@functools.lru_cache(maxsize=None)
def _coset_representatives(n: int, elements: tuple[Perm, ...]) -> tuple[Perm, ...]:
    covered: set[Perm] = set()
    reps = []
    for g in itertools.permutations(range(1, n + 1)):
        if g not in covered:
            reps.append(g)
            covered.update(compose(g, h) for h in elements)
    return tuple(reps)


class InvariantBasis:
    """Echelonized bases of the fixed subspace, one per degree.

    The fixed subspace of a degree is the common kernel of g - 1 over the
    generators g of the group, with g acting on basis coordinates by its
    relabelling images; the rows kept are the reduced row-echelon basis of
    that kernel, which depends on the subspace only.
    """

    def __init__(self, group: PermGroup, gb: GradedBasis):
        self.group = group
        self.gb = gb
        self.per_degree: dict[int, list[RingElement]] = {}
        for d in range(gb.top + 1):
            self.per_degree[d] = self._basis_for_degree(d)

    def _basis_for_degree(self, d: int) -> list[RingElement]:
        gb = self.gb
        ambient = gb.basis[d]
        rows = []
        for g in self.group.generators:
            # Row k of g - 1: coordinate k of each relabelled basis monomial.
            block = [{} for _ in ambient]
            for i, (den, terms) in enumerate(gb.relabel_images(g, d)):
                block[i][i] = -1
                for k, v in terms:
                    block[k][i] = block[k].get(i, 0) + Fraction(v, den)
            rows.extend(block)
        fixed = kernel_basis(QMatrix(rows, len(ambient)))
        red, _ = rref(QMatrix(fixed, len(ambient)))
        return [RingElement(gb.n, d, {ambient[j]: x for j, x in row.items()})
                for row in red]

    def dims(self) -> list[int]:
        return [len(self.per_degree[d]) for d in range(self.gb.top + 1)]

    def coordinates(self, x: RingElement) -> list[Fraction] | None:
        """Coordinates of an invariant element in this basis, or None if the
        element is not in the span."""
        return self.gb.span_coordinates(x, self.per_degree[x.degree])


def invariant_basis(group: PermGroup, gb: GradedBasis) -> InvariantBasis:
    """The invariant basis of the group, built once per generator list and
    kept on the graded basis."""
    key = tuple(group.generators)
    basis = gb.invariant_bases.get(key)
    if basis is None:
        basis = gb.invariant_bases[key] = InvariantBasis(group, gb)
    return basis


def invariant_dims(group: PermGroup, gb: GradedBasis) -> list[int]:
    """Dimension of the fixed subspace in each degree."""
    return invariant_basis(group, gb).dims()
