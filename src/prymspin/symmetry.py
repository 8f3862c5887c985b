"""Permutation actions on marked points and invariant subrings.

A finite group of mark permutations acts on the boundary ring by relabeling
the defining subsets of the generators.  The fixed subring in each degree is
computed from echelonized orbit sums of basis monomials, which is the
Reynolds projection applied to a spanning set.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_linear import QMatrix, rref
from .keel_ring import (BoundaryIndex, GradedBasis, Monomial, RingElement,
                        canonicalize, monomial)

# A permutation of {1..n} is a tuple p with p[i-1] = image of i.
Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


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


@dataclass
class PermGroup:
    """A permutation group on {1..n}, stored with its full element list."""
    n: int
    generators: list[Perm]
    elements: list[Perm] = field(default_factory=list)

    def __post_init__(self):
        if not self.elements:
            self.elements = self._expand()

    def _expand(self) -> list[Perm]:
        ident = identity_perm(self.n)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in self.generators:
                    q = compose(g, p)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return sorted(seen)

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

    def stabilizer_order(self, item, action) -> int:
        return sum(1 for g in self.elements if action(g, item) == item)


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


def apply_to_divisor(g: Perm, d: BoundaryIndex) -> BoundaryIndex:
    return canonicalize({g[i - 1] for i in d.key}, d.n)


def apply_to_monomial(g: Perm, m: Monomial) -> Monomial:
    return monomial(*(apply_to_divisor(g, d) for d in m))


def act(g: Perm, x: RingElement, gb: GradedBasis) -> RingElement:
    """Relabel marks by g in every generator, then reduce to the basis."""
    out: dict[Monomial, Fraction] = {}
    for m, c in x.coeffs.items():
        im = apply_to_monomial(g, m)
        out[im] = out.get(im, Fraction(0)) + c
    return gb.reduce(RingElement(x.n, x.degree, out))


def orbit_sum(perms, x: RingElement, gb: GradedBasis) -> RingElement:
    """The reduced sum of act(g, x, gb) over the permutations g.

    This is the one "act, then reduce" loop behind the Reynolds projector
    and the pushforward to the base.
    """
    acc = RingElement.zero(x.n, x.degree)
    for g in perms:
        acc = acc + act(g, x, gb)
    return gb.reduce(acc)


def coset_representatives(group: PermGroup) -> list[Perm]:
    """The lexicographically least element of each left coset gG of the
    group in S_n, in increasing order: |S_n|/|G| permutations.

    For a G-invariant x, act(g h, x) = act(g, x) for h in G, so a sum over
    S_n is |G| times the sum over these representatives."""
    covered: set[Perm] = set()
    reps = []
    for g in itertools.permutations(range(1, group.n + 1)):
        if g not in covered:
            reps.append(g)
            covered.update(compose(g, h) for h in group.elements)
    return reps


def reynolds(group: PermGroup, x: RingElement, gb: GradedBasis) -> RingElement:
    """Average of the group action: the projector onto the fixed subspace."""
    return orbit_sum(group.elements, x, gb).scale(Fraction(1, group.order))


def _orbit_sum_reduced(group: PermGroup, m: Monomial, gb: GradedBasis) -> RingElement:
    orb = group.orbit(m, apply_to_monomial)
    coeffs = {mm: Fraction(1) for mm in orb}
    return gb.reduce(RingElement(gb.n, len(m), coeffs))


class InvariantBasis:
    """Echelonized bases of the fixed subspace, one per degree.

    Rows are reduced orbit sums of the ambient basis monomials, echelonized
    over the ambient basis coordinates; coordinates therefore stay integral
    whenever the orbit sums are.
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
        index = {m: i for i, m in enumerate(ambient)}
        rows = []
        seen_rows = set()
        for m in ambient:
            elem = _orbit_sum_reduced(self.group, m, gb)
            row = tuple(elem.coeffs.get(bm, Fraction(0)) for bm in ambient)
            if any(row) and row not in seen_rows:
                seen_rows.add(row)
                rows.append(row)
        if not rows:
            return []
        red, pivots = rref(QMatrix(rows))
        out = []
        for r in range(len(pivots)):
            coeffs = {ambient[j]: red.rows[r][j]
                      for j in range(len(ambient)) if red.rows[r][j]}
            out.append(RingElement(gb.n, d, coeffs))
        return out

    def dims(self) -> list[int]:
        return [len(self.per_degree[d]) for d in range(self.gb.top + 1)]

    def coordinates(self, x: RingElement) -> list[Fraction] | None:
        """Coordinates of a reduced invariant element in this basis, or None
        if the element is not in the span."""
        basis = self.per_degree[x.degree]
        ambient = self.gb.basis[x.degree]
        if not basis:
            return [] if x.is_zero() else None
        mat = QMatrix([[b.coeffs.get(m, Fraction(0)) for b in basis]
                       for m in ambient])
        from .exact_linear import solve
        target = [x.coeffs.get(m, Fraction(0)) for m in ambient]
        return solve(mat, target)


def invariant_basis(group: PermGroup, gb: GradedBasis) -> InvariantBasis:
    return InvariantBasis(group, gb)


def invariant_dims(group: PermGroup, gb: GradedBasis) -> list[int]:
    """Dimension of the fixed subspace in each degree."""
    return invariant_basis(group, gb).dims()
