"""Independent oracles used by the tests.

Nothing here reuses the production reduction machinery: two splits are
compatible by this module's own rule (nested or disjoint canonical sides),
ranks are recomputed modulo a prime from raw relation rows, graded
dimensions are recovered from point counts over finite fields via the
stratification and from Keel's recursion for the Poincare polynomials, and
top-degree integrals are re-derived from a linear system whose only inputs
are the four-point rewriting rule and the transversality of distinct
pairwise-compatible splits.  ``reduce``, ``multiply`` and ``act`` are the
ring on dicts of monomials with ``Fraction`` coefficients, with no ring
element type: the reduction echelonizes the raw relation rows itself, and
products and relabellings act monomial by monomial before one reduction,
with no table of basis coordinates.  The tests compare a kernel element's
``coeffs`` with these dicts.  The pushforward to the base is recomputed by
brute force over all of S_n with the same relabelling and a single
reduction, and as the transfer over the left coset representatives of the
group in S_n.  The group of each space is recomputed as the stabilizer
of its partition of the marks, by a search of all n! permutations.  Exact
elimination over Q is done by ``FractionEchelon``, a plain ``Fraction``
Gauss-Jordan kept here as the reference for the integer-first production
engine.  The order of the extremity kernel of a marked tree is the hand
formula, the dependent generators of a presentation are found by one
rank test per generator, and the dual tree of a set of splits is built by
cutting one component at a time.  The partitions of the branch points are
sets of points canonicalized and sorted, and the Arf census evaluates every
quadratic refinement point by point, with no bitmask.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, lcm

from prymspin.keel_ring import (all_divisors, canonicalize,
                                four_point_relation, monomial)
from prymspin.strata_aut import MarkedTree


def _compatible(a, b) -> bool:
    """Whether two splits coexist on a stable curve: exactly when their
    canonical sides (the sides without mark n) are nested or disjoint."""
    s, t = set(a.key), set(b.key)
    return s <= t or t <= s or not s & t


def _pairwise_compatible(divisors) -> bool:
    """Whether every two of the splits coexist: a monomial in them is
    nonzero, and a set of distinct ones cuts out a stratum."""
    return all(_compatible(a, b)
               for a, b in itertools.combinations(divisors, 2))


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
                for (div,), c in rel.items():
                    prod = monomial(div, *low)
                    if not _pairwise_compatible(prod):
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
        if _pairwise_compatible(m):
            out.append(m)
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


def keel_poincare(n: int) -> list[int]:
    """Coefficients of the Poincare polynomial of the n-pointed space by
    Keel's recursion: P_3 = 1 and P_{m+1} = (1+q) P_m + (q/2) sum over
    j = 2..m-2 of C(m,j) P_{j+1} P_{m-j+1}."""
    polys = {3: [1]}
    for m in range(3, n):
        total = [0] * (m - 1)
        for j in range(2, m - 1):
            for a, x in enumerate(polys[j + 1]):
                for b, y in enumerate(polys[m - j + 1]):
                    total[a + b + 1] += comb(m, j) * x * y
        assert all(c % 2 == 0 for c in total)
        p = polys[m]
        polys[m + 1] = [(p[k] if k < len(p) else 0)
                        + (p[k - 1] if k else 0) + total[k] // 2
                        for k in range(m - 1)]
    return polys[n]


# -- point counts over finite fields -------------------------------------------

def _open_stratum_poly(special_counts: list[int]) -> list[Fraction]:
    """Coefficients of prod over components of (q-2)(q-3)...(q-(m-2))."""
    poly = [Fraction(1)]
    for m in special_counts:
        for j in range(2, m - 1):
            # multiply by (q - j)
            poly = _mul_linear(poly, -j)
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
            if not _pairwise_compatible(subset):
                continue
            tree, _ = tree_from_splits(tuple(sorted(subset)), n, a_marks)
            # the special points of a component: its marks and its edges
            counts = [a + b + sum(c in e for e in tree.edges)
                      for c, (a, b) in enumerate(tree.marks)]
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
                if not _pairwise_compatible(new):
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
            for (d,), c in r1.items():
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


def dependent_generators_by_rank(nvars: int, generators: list[dict]) -> list[int]:
    """Indices i such that generator i (a dict exponent tuple -> rational)
    lies in the span of the degree-d multiples of the other generators, d
    its degree, tested one generator at a time with ``FractionEchelon``: the
    generator adds no pivot to the echelon of the others' multiples."""
    out = []
    for i, g in enumerate(generators):
        if not g:
            out.append(i)
            continue
        d = sum(next(iter(g)))
        ech = FractionEchelon()
        for j, h in enumerate(generators):
            if j == i or not h or sum(next(iter(h))) > d:
                continue
            for m in itertools.product(range(d + 1), repeat=nvars):
                if sum(m) == d - sum(next(iter(h))):
                    ech.add_row({tuple(a + b for a, b in zip(e, m)): c
                                 for e, c in h.items()})
        if not ech.add_row(g):
            out.append(i)
    return out


# -- the ring on dicts of monomials ------------------------------------------

@functools.lru_cache(maxsize=None)
def _reduction_table(n: int, degree: int) -> dict:
    """Every nonzero monomial of the degree rewritten onto the non-pivot
    monomials of the raw relation rows, echelonized by ``FractionEchelon``
    with the monomials in their sorted order."""
    if degree == 0:
        return {(): {(): Fraction(1)}}
    rows, monos = raw_relation_rows(n, degree)
    ech = FractionEchelon()
    for row in rows:
        ech.add_row(row)
    reduced = ech.finish()
    table = {}
    for i, m in enumerate(monos):
        if i in reduced:
            table[m] = {monos[c]: -v for c, v in reduced[i].items() if c != i}
        else:
            table[m] = {m: Fraction(1)}
    return table


def reduce(n: int, coeffs: dict) -> dict:
    """The combination of monomials of the n-pointed ring rewritten onto the
    basis monomials of their degrees, term by term in ``Fraction``
    arithmetic; the nonzero coefficients only."""
    acc: dict = {}
    for m, c in coeffs.items():
        if len(m) > n - 3 or not _pairwise_compatible(m):
            continue
        for bm, bc in _reduction_table(n, len(m))[m].items():
            acc[bm] = acc.get(bm, Fraction(0)) + c * bc
    return {m: c for m, c in acc.items() if c}


def linear_combination(terms) -> dict:
    """The sum of c times the dict x over the (x, c) terms, unreduced; the
    nonzero coefficients only."""
    acc: dict = {}
    for x, c in terms:
        for m, v in x.items():
            acc[m] = acc.get(m, Fraction(0)) + c * v
    return {m: c for m, c in acc.items() if c}


def multiply(n: int, a: dict, b: dict) -> dict:
    """The product of every pair of monomials, summed and reduced once."""
    raw: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = monomial(*ma, *mb)
            raw[m] = raw.get(m, Fraction(0)) + ca * cb
    return reduce(n, raw)


def relabel(g, m):
    """The monomial with mark i renamed g[i-1] in every factor."""
    return monomial(*(canonicalize({g[i - 1] for i in d.key}, d.n)
                      for d in m))


def act(g, x: dict) -> dict:
    """Every monomial relabelled by the permutation g of 1..n, summed and
    reduced once."""
    raw: dict = {}
    for m, c in x.items():
        im = relabel(g, m)
        raw[im] = raw.get(im, Fraction(0)) + c
    return reduce(len(g), raw)


# -- pushforward to the base over the whole symmetric group ---------------------

def push_full_group(space, x: dict) -> dict:
    """Pushforward of an invariant class to the base by brute force: the sum
    of the relabelled class over all n! permutations of the marks, reduced
    once and divided by the order of the space's group."""
    acc: dict = {}
    for m, c in x.items():
        for im, k in _images_over_sn(m, space.n).items():
            acc[im] = acc.get(im, Fraction(0)) + c * k
    return reduce(space.n, {m: c / space.group.order for m, c in acc.items()})


def partition_stabilizer(n: int, blocks) -> list[tuple[int, ...]]:
    """Every permutation g of 1..n (g[i-1] the image of i) that maps the
    partition of the marks into the blocks onto itself, blocks of equal
    size possibly swapped, in increasing order: a search of all n!
    permutations."""
    parts = {frozenset(b) for b in blocks}
    return [g for g in itertools.permutations(range(1, n + 1))
            if {frozenset(g[i - 1] for i in b) for b in parts} == parts]


def coset_representatives(group) -> list[tuple[int, ...]]:
    """The lexicographically least element of each left coset gG of a group
    of mark permutations in S_n, in increasing order: |S_n|/|G| of them.

    For a G-invariant x, act(g h, x) = act(g, x) for h in G, so the
    transfer, the sum of g.x over these g, is the S_n-sum over |G|."""
    n = group.n
    covered: set = set()
    reps = []
    for g in itertools.permutations(range(1, n + 1)):
        if g not in covered:
            reps.append(g)
            covered.update(tuple(g[h[i] - 1] for i in range(n))
                           for h in group.elements)
    return reps


@functools.lru_cache(maxsize=None)
def _images_over_sn(m, n: int) -> dict:
    """How many of the n! permutations of the marks send the monomial m to
    each of its images."""
    out: dict = {}
    for perm in itertools.permutations(range(1, n + 1)):
        im = relabel(perm, m)
        out[im] = out.get(im, 0) + 1
    return out


# -- marked trees ---------------------------------------------------------------

def tree_from_splits(factors, n: int, a_marks: frozenset[int]):
    """Dual tree of the stratum cut out by pairwise compatible splits, built
    incrementally: each split cuts the one component whose incident subtrees
    all sit on one side of it.  Returns (MarkedTree, splits); edge k is cut
    by the k-th split and separates the marks as it does."""
    full = frozenset(range(1, n + 1))
    comps: list[frozenset[int]] = [full]
    # edges: (comp index, comp index, far-set as seen from the first)
    edges: list[list] = []
    for div in factors:
        s = div.members
        sc = full - s
        target = None
        for ci, marks in enumerate(comps):
            sides = []
            for e in edges:
                if ci == e[0]:
                    far = e[2]
                elif ci == e[1]:
                    far = full - e[2]
                else:
                    continue
                if far <= s:
                    sides.append("s")
                elif far <= sc:
                    sides.append("c")
                else:
                    sides.append("x")
            if "x" not in sides:
                target = ci
                break
        if target is None:
            raise ValueError(f"split {sorted(s)} does not refine the tree")
        old_marks = comps[target]
        new_index = len(comps)
        comps[target] = old_marks & s
        comps.append(old_marks & sc)
        for e in edges:
            for pos in (0, 1):
                if e[pos] == target:
                    far = e[2] if pos == 0 else full - e[2]
                    if far <= sc:
                        e[pos] = new_index
        edges.append([target, new_index, sc])
    mark_counts = tuple((len(c & a_marks), len(c - a_marks)) for c in comps)
    return (MarkedTree(mark_counts, tuple((e[0], e[1]) for e in edges)),
            list(factors))


def stable_marked_trees(n: int = 6) -> list:
    """Every stable n-marked tree with its marks split into two classes, as
    cut out by a set of pairwise compatible distinct splits (the dual tree
    of a stratum) together with a choice of the A-marks; equal trees once."""
    divisors = all_divisors(n)
    out = {}
    for k in range(n - 2):
        for subset in itertools.combinations(divisors, k):
            if not _pairwise_compatible(subset):
                continue
            for size in range(n + 1):
                for a_marks in itertools.combinations(range(1, n + 1), size):
                    tree, _ = tree_from_splits(subset, n, frozenset(a_marks))
                    out.setdefault(tree, None)
    return list(out)


def same_class_extremities(tree) -> int:
    """Extremities (one node, two marks) whose two marks lie in the same
    class: the r' of the count identity m = 2^(r') * h."""
    return sum(1 for c in range(len(tree.marks))
               if tree.is_extremity(c) and tree.marks[c] in ((2, 0), (0, 2)))


def extremity_kernel_formula(tree, allow_set_swap: bool) -> int:
    """Order of the group of generic automorphisms supported on extremities,
    derived by hand: swapping the two marks of a same-class extremity always
    preserves the partition; the only other element is the simultaneous
    swap on all extremities when every mark of the tree sits on a mixed
    extremity and the two classes may be exchanged globally."""
    mixed = [c for c in range(len(tree.marks))
             if tree.is_extremity(c) and tree.marks[c] == (1, 1)]
    order = 2 ** same_class_extremities(tree)
    total_a, total_b = tree.total_marks()
    if (allow_set_swap and total_a == total_b and order == 1 and mixed
            and 2 * len(mixed) == total_a + total_b):
        order *= 2
    return order


def aut_count_identity_holds(tree, allow_set_swap: bool) -> bool:
    """Whether m = 2^(r') * h holds for this stratum; it fails exactly when
    the swap of every (mixed) extremity realizes the global class exchange,
    which doubles the extremity-supported kernel."""
    return (extremity_kernel_formula(tree, allow_set_swap)
            == 2 ** same_class_extremities(tree))


# -- theta characteristics -----------------------------------------------------

def oracle_partition_sides(g: int, n: int) -> list[frozenset[int]]:
    """The partitions of the 2g+2 branch points with a part of size n, each
    as the set of its smaller part (the part holding point 1 when both have
    the same size): every n-subset is canonicalized into a set of sides,
    which is sorted by the sorted members."""
    points = frozenset(range(1, 2 * g + 3))
    sides = set()
    for c in itertools.combinations(sorted(points), n):
        part = frozenset(c)
        comp = points - part
        if len(part) > len(comp) or (len(part) == len(comp) and 1 not in part):
            part = comp
        sides.add(part)
    return sorted(sides, key=sorted)


def oracle_arf_census(g: int) -> tuple[int, int]:
    """Even and odd quadratic refinements q_c(x) = sum x_{2i} x_{2i+1} +
    sum c_i x_i of the standard symplectic form on 2g coordinates, each
    evaluated point by point on tuples of bits; q_c is even when it takes
    the value 0 more often than 1 (its Arf invariant is its majority
    value)."""
    vectors = list(itertools.product((0, 1), repeat=2 * g))
    quad = [sum(x[2 * i] * x[2 * i + 1] for i in range(g)) for x in vectors]
    even = odd = 0
    for c in vectors:
        zeros = sum((q + sum(ci * xi for ci, xi in zip(c, x))) % 2 == 0
                    for x, q in zip(vectors, quad))
        if 2 * zeros > len(vectors):
            even += 1
        else:
            odd += 1
    return even, odd
