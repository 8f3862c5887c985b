"""Independent oracles used by the tests.

Nothing here reuses the production reduction machinery: ranks are
recomputed modulo a prime from raw relation rows, graded dimensions are
recovered from point counts over finite fields via the stratification, and
top-degree integrals are re-derived from a linear system whose only inputs
are the four-point rewriting rule and the transversality of distinct
pairwise-compatible splits.  Exact elimination over Q is done by
``FractionEchelon``, a plain ``Fraction`` Gauss-Jordan kept here as the
reference for the integer-first production engine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from prymspin.keel_ring import (all_divisors, canonicalize, four_point_relation,
                                incompatible, monomial, monomial_is_zero)
from prymspin.space_registry import tree_from_monomial


class FractionEchelon:
    """Reference sparse echelon over Q: rows are dicts column -> Fraction,
    every pivot is normalized to 1 when it is stored, and ``finish``
    back-substitutes to the reduced row-echelon form."""

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}

    def add_row(self, row: dict) -> bool:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = self.pivot_rows.get(lead)
            if piv is None:
                inv = 1 / row[lead]
                self.pivot_rows[lead] = {c: v * inv for c, v in row.items()}
                return True
            f = row[lead]
            for c, v in piv.items():
                nv = row.get(c, Fraction(0)) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        return False

    def finish(self) -> dict[int, dict[int, Fraction]]:
        for lead in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[lead]
            for other_lead, other in self.pivot_rows.items():
                if other_lead >= lead:
                    continue
                f = other.get(lead)
                if f:
                    for c, v in row.items():
                        nv = other.get(c, Fraction(0)) - f * v
                        if nv:
                            other[c] = nv
                        else:
                            other.pop(c, None)
        return self.pivot_rows


def reference_rref(rows: list[list], ncols: int):
    """(pivot columns, dense RREF rows with zero rows padded at the bottom)
    of a dense rational matrix, by ``FractionEchelon``."""
    ech = FractionEchelon()
    for r in rows:
        ech.add_row({j: x for j, x in enumerate(r) if x})
    reduced = ech.finish()
    pivots = sorted(reduced)
    out = []
    for c in pivots:
        dense = [Fraction(0)] * ncols
        for j, x in reduced[c].items():
            dense[j] = x
        out.append(dense)
    out += [[Fraction(0)] * ncols for _ in range(len(rows) - len(pivots))]
    return pivots, out


def mod_rank(rows: list[dict[int, int]], ncols: int, p: int) -> int:
    """Rank over GF(p) of sparse integer rows (dicts col -> int)."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            lead = min(r)
            if lead not in pivots:
                inv = pow(r[lead], p - 2, p)
                pivots[lead] = {c: (v * inv) % p for c, v in r.items()}
                rank += 1
                break
            f = r[lead]
            for c, v in pivots[lead].items():
                nv = (r.get(c, 0) - f * v) % p
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
    return rank


def raw_relation_rows(n: int, degree: int):
    """Degree-d relation rows of the boundary ring, generated directly from
    all four-point relations times all lower monomials, with no
    echelonization and integer coefficients."""
    divisors = all_divisors(n)
    monos = _nonzero_monomials(n, degree)
    index = {m: i for i, m in enumerate(monos)}
    lowers = _nonzero_monomials(n, degree - 1)
    rows = []
    for quad in itertools.combinations(range(1, n + 1), 4):
        for rel in four_point_relation(n, *quad):
            for low in lowers:
                row: dict[int, int] = {}
                for (div,), c in rel.coeffs.items():
                    prod = monomial(div, *low)
                    if monomial_is_zero(prod):
                        continue
                    i = index[prod]
                    nv = row.get(i, 0) + int(c)
                    if nv:
                        row[i] = nv
                    else:
                        row.pop(i, None)
                if row:
                    rows.append(row)
    return rows, monos


def _nonzero_monomials(n: int, degree: int):
    divisors = all_divisors(n)
    if degree == 0:
        return [()]
    out = []
    for m in itertools.combinations_with_replacement(divisors, degree):
        if not monomial_is_zero(tuple(m)):
            out.append(tuple(m))
    return out


def keel_dims_mod_p(n: int, p: int) -> list[int]:
    """Graded dimensions recomputed with modular rank only."""
    dims = []
    for d in range(n - 2):
        monos = _nonzero_monomials(n, d)
        if d == 0:
            dims.append(1)
            continue
        rows, monos = raw_relation_rows(n, d)
        dims.append(len(monos) - mod_rank(rows, len(monos), p))
    return dims


# -- point counts over finite fields -------------------------------------------

def _open_stratum_poly(special_counts: list[int]) -> list[Fraction]:
    """Coefficients of prod over components of (q-2)(q-3)...(q-(m-2))."""
    poly = [Fraction(1)]
    for m in special_counts:
        for j in range(2, m - 1):
            # multiply by (q - j)
            poly = ([Fraction(0)] + poly[:]
                    if False else _mul_linear(poly, -j))
    return poly


def _mul_linear(poly: list[Fraction], const: int) -> list[Fraction]:
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] += c
        out[i] += c * const
    return out


def point_count_betti(n: int) -> list[int]:
    """Betti-type dimensions of the n-pointed space from the stratification:
    sum over all sets of pairwise compatible splits of the point count of
    the open stratum, as a polynomial in the field size."""
    divisors = all_divisors(n)
    total = [Fraction(0)] * (n - 2)
    a_marks = frozenset(range(1, n + 1))
    for k in range(0, n - 2):
        for subset in itertools.combinations(divisors, k):
            if any(incompatible(a, b)
                   for a, b in itertools.combinations(subset, 2)):
                continue
            tree, _ = tree_from_monomial(tuple(sorted(subset)), n, a_marks)
            counts = [tree.special_count(c) for c in range(len(tree.marks))]
            poly = _open_stratum_poly(counts)
            for i, c in enumerate(poly):
                total[i] += c
    assert all(c.denominator == 1 for c in total)
    return [int(c) for c in total]


# -- independent top integrals --------------------------------------------------

def oracle_integrals(n: int) -> dict:
    """Integral of every nonzero top-degree monomial, solved from scratch:
    distinct pairwise-compatible factors integrate to 1 (their stratum is a
    single transverse point), and every monomial with a repeated factor is
    expanded through four-point relations, one equation per admissible
    choice of relation.  The combined system has a unique solution."""
    top = n - 3
    monos = _nonzero_monomials(n, top)
    index = {m: i for i, m in enumerate(monos)}
    nvars = len(monos)
    # Augmented sparse system: column nvars holds the right-hand side.
    ech = FractionEchelon()
    for m in monos:
        if len(set(m)) == len(m):
            # homogenized equation x_m - 1 = 0
            ech.add_row({index[m]: Fraction(1), nvars: Fraction(-1)})
            continue
        rep = next(d for d in m if m.count(d) > 1)
        rest = list(m)
        rest.remove(rep)
        for rewrite in _rewrites(rep, n):
            row = {index[m]: Fraction(-1)}
            for div, c in rewrite.items():
                new = monomial(div, *rest)
                if monomial_is_zero(new):
                    continue
                i = index[new]
                nv = row.get(i, Fraction(0)) + c
                if nv:
                    row[i] = nv
                else:
                    row.pop(i, None)
            ech.add_row(row)
    solved = ech.finish()
    assert set(solved) == set(range(nvars)), \
        "oracle system must pin every integral"
    return {m: -solved[index[m]].get(nvars, Fraction(0)) for m in monos}


def _rewrites(div, n: int):
    """All expressions of a boundary divisor through four-point relations
    in which it occurs exactly once: two marks on its side, two off it."""
    side = sorted(div.members)
    off = sorted(set(range(1, n + 1)) - div.members)
    for i, j in itertools.combinations(side, 2):
        for k, l in itertools.combinations(off, 2):
            r1, _ = four_point_relation(n, i, k, j, l)
            # r1 = sum(S holding i,k; avoiding j,l) minus the sum holding
            # i,j and avoiding k,l; the latter contains div exactly once.
            coeffs: dict = {}
            for (d,), c in r1.coeffs.items():
                coeffs[d] = coeffs.get(d, Fraction(0)) + c
            assert coeffs.get(div) == Fraction(-1)
            coeffs.pop(div)
            yield coeffs


# -- Hilbert functions of presentations modulo a prime -------------------------

def hilbert_mod_p(nvars: int, generators: list[dict], max_degree: int,
                  p: int) -> list[int]:
    """Hilbert function of a quotient by homogeneous generators (dicts
    exponent tuple -> rational), degree by degree as the monomial count
    minus the rank modulo p of all (generator x monomial) products."""
    out = []
    for d in range(max_degree + 1):
        monos = [e for e in itertools.product(range(d + 1), repeat=nvars)
                 if sum(e) == d]
        index = {e: i for i, e in enumerate(monos)}
        rows = []
        for g in generators:
            if not g:
                continue
            e = sum(next(iter(g)))
            if e > d:
                continue
            den = lcm(*(Fraction(c).denominator for c in g.values()))
            for m in itertools.product(range(d - e + 1), repeat=nvars):
                if sum(m) != d - e:
                    continue
                rows.append({index[tuple(a + b for a, b in zip(ge, m))]:
                             int(Fraction(c) * den) for ge, c in g.items()})
        out.append(len(monos) - mod_rank(rows, len(monos), p))
    return out
