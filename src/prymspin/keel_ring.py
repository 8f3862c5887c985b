"""The rational Chow ring of the moduli space of n-pointed stable rational
curves, presented by boundary divisor classes.

Generators are the boundary divisors D^S, one for each subset S of the
marked points with 2 <= |S| <= n-2, subject to D^S = D^{S^c}.  The ideal of
relations is generated in degree 1 (the four-point relations) and degree 2
(products of divisors whose defining splits cannot coexist on a stable
curve vanish).  The ring is graded with top degree n-3.

``GradedBasis`` is the one ring kernel.  It echelonizes the relations once
per degree, picks the non-pivot monomials as the basis, and stores the
reduction of every nonzero monomial as an integer image: numerators over
one common denominator, as ``SparseEchelon`` stores its rows.  The build
works on divisor ranks (positions in the fixed divisor order): a monomial
is a sorted tuple of ranks, and the divisors compatible with a given one
form one integer bitset, so a relation row is found by index arithmetic
and the tables are named by ``BoundaryIndex`` factors once at the end of
each degree.  Reduction, products and linear combinations all sum such
images in one pass (``sum_images``): the common denominator first, then
integer multiply-adds into one list of numerators.  The images of products
of two basis monomials (the structure constants) are built on first use and
kept.

Ring elements have one form, and one kernel per mark count reads them.
A ``RingElement`` is a reduced class: the kernel that built it, its degree,
and its coordinates in that kernel's basis as integer numerators ``nums``
over one denominator ``den``.  Only ``GradedBasis._element`` makes one, and
only the kernel that built an element reads its coordinates:
``GradedBasis.coordinates`` raises ``ValueError`` for an element of another
kernel instance, and every product, combination, comparison and
integration goes through it.
``build_graded_basis`` keeps the one kernel of each mark count.  An
element's ``coeffs``, a dict from basis monomials to ``Fraction``
coefficients, are built when first read.  A combination that is not
reduced (a four-point relation, a divisor sum to push along a cover) is a
plain dict from sorted monomials to coefficients, as in
``GradedBasis.linear_relations``; ``GradedBasis.element`` is the one reader
of such dicts.  Coefficients are exact: a ``float`` is refused with
``TypeError``.

Relabelling works on ranks too.  ``divisor_permutation(g)`` is the table
of divisor ranks renamed by a permutation g of the marks, read off the side
bitmasks (a side holding mark n is complemented); it checks g once and is
kept per g.  ``relabel_ranks`` renames one monomial of ranks through that
table; ``relabel_images`` maps each basis monomial through it and keeps the
image per g and degree.  ``linear_image(x, table)`` applies the linear map
given by the images of the basis monomials: it takes the coordinates of x
once, sums the images into one list of numerators and builds one element.
``relabel(g, x)``, the mark-permutation action, applies the relabelling
table of g; the pushforward to the base applies the orbit-average table of
``symmetry.average_images``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import total_ordering
from math import lcm

from .exact_linear import QMatrix, Rational, SparseEchelon, solve

# The largest mark count that is built: degree 5 of n = 8 alone would need
# about 1.0 M relation rows over 144,186 monomials.
DEFAULT_N_CAP = 7


@total_ordering
class BoundaryIndex:
    """A boundary divisor of the n-pointed space, named by the subset of
    marks on one side of the node.

    Canonical form: the side not containing the last mark n.  Sorting is
    lexicographic on the sorted members, so that [1,2] < [1,2,3] <
    [1,2,3,4] < [1,2,4] < [1,3] for n = 6; this order fixes the monomial
    order used everywhere, and with it the chosen basis.  Instances are
    immutable values: equal, hashed and ordered as the tuple (key, n).
    """
    __slots__ = ("key", "n", "_hash")

    def __init__(self, key: tuple[int, ...], n: int):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "n", n)
        # hash((key, n)) taken once: monomials of these are the kernel's
        # dict keys, so the hash is asked for far more often than built.
        object.__setattr__(self, "_hash", hash((key, n)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not BoundaryIndex:
            return NotImplemented
        return self.key == other.key and self.n == other.n

    def __lt__(self, other):
        if other.__class__ is not BoundaryIndex:
            return NotImplemented
        return self.key < other.key or (self.key == other.key
                                        and self.n < other.n)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BoundaryIndex(key={self.key!r}, n={self.n!r})"

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.key)

    def __str__(self):
        return "[" + ",".join(str(i) for i in self.key) + "]"


def canonicalize(members, n: int) -> BoundaryIndex:
    """Canonical BoundaryIndex for the split S | S^c: the side without n."""
    s = frozenset(members)
    if not all(1 <= i <= n for i in s):
        raise ValueError(f"marks must lie in 1..{n}: {sorted(s)}")
    if not (2 <= len(s) <= n - 2):
        raise ValueError(f"side size must be within 2..{n - 2}: {sorted(s)}")
    if n in s:
        s = frozenset(range(1, n + 1)) - s
    return BoundaryIndex(tuple(sorted(s)), n)


def all_divisors(n: int) -> list[BoundaryIndex]:
    """All canonical boundary divisors, in the fixed order: the sides
    without mark n are the subsets of 1..n-1 of size 2..n-2."""
    sides = [side for size in range(2, n - 1)
             for side in itertools.combinations(range(1, n), size)]
    return [BoundaryIndex(side, n) for side in sorted(sides)]


# A monomial is a sorted tuple of BoundaryIndex factors (a multiset).
Monomial = tuple[BoundaryIndex, ...]


def monomial(*factors: BoundaryIndex) -> Monomial:
    return tuple(sorted(factors))


class RingElement:
    """A class of the n-pointed ring, reduced onto the basis monomials of
    its degree: the kernel that built it, the degree, and its coordinates
    in that kernel's basis, sum(nums[i] / den * basis[i]), with integer
    numerators (none above the top degree) and an integer den > 0 that
    need not be in lowest terms.

    Only ``GradedBasis._element`` builds one, and only that kernel reads
    its coordinates: comparing it with an element of another kernel
    instance raises ``ValueError``.  An element is never changed after it
    is built, so its coordinates stay valid; its ``Fraction`` coefficients
    are built when ``coeffs`` is first read.
    """

    __slots__ = ("kernel", "degree", "nums", "den", "_coeffs")

    def __init__(self, kernel: GradedBasis, degree: int, nums: list[int],
                 den: int):
        self.kernel = kernel
        self.degree = degree
        self.nums = nums
        self.den = den
        self._coeffs: dict[Monomial, Fraction] | None = None

    @property
    def coeffs(self) -> dict[Monomial, Fraction]:
        """The nonzero coefficients by basis monomial, built on first read
        and kept; read them, never change them."""
        coeffs = self._coeffs
        if coeffs is None:
            basis = self.kernel.basis.get(self.degree, ())
            coeffs = self._coeffs = {m: Fraction(c, self.den)
                                     for m, c in zip(basis, self.nums) if c}
        return coeffs

    @classmethod
    def unit(cls, n: int) -> "RingElement":
        return build_graded_basis(n).element(0, {(): 1})

    def is_zero(self) -> bool:
        return not any(self.nums)

    def scale(self, c) -> "RingElement":
        """c times the element: the numerators times c's numerator and the
        denominator times c's denominator."""
        if type(c) is not Fraction:
            c = _exact(c)
        p = c.numerator
        return self.kernel._element(self.degree, [u * p for u in self.nums],
                                    self.den * c.denominator)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return False
        v = self.kernel.coordinates(other)
        if self.degree != v.degree:
            return False
        # one kernel and degree, so one basis; neither den is in lowest
        # terms, so the numerators are compared cross-multiplied
        if self.den == v.den:
            return self.nums == v.nums
        p, q = v.den, self.den
        return all(x * p == y * q for x, y in zip(self.nums, v.nums))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            mono = "*".join(str(d) for d in m) if m else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    def serialize(self) -> list:
        """Structured-text form: [(list of sorted index lists, "p/q"), ...]."""
        out = []
        for m in sorted(self.coeffs):
            out.append([[list(d.key) for d in m], str(self.coeffs[m])])
        return out


def _exact(c) -> Fraction:
    """c as a Fraction.  A float is refused: its binary value, such as
    3602879701896397/36028797018963968 for 0.1, is rarely the number meant."""
    if isinstance(c, float):
        raise TypeError(f"coefficients must be exact, not float: {c!r}")
    return Fraction(c)


def four_point_relation(n: int, i: int, j: int, k: int,
                        l: int) -> tuple[dict[Monomial, Fraction], ...]:
    """The two independent degree-1 relations attached to four distinct
    marks: the sum of divisors separating {i,j} from {k,l} equals the sum
    separating {i,k} from {j,l}, and equals the one separating {i,l} from
    {j,k}.  Returns (S_ij|kl - S_ik|jl, S_ij|kl - S_il|jk) as dicts of
    monomials; both vanish in the ring."""
    marks = (i, j, k, l)
    if len(set(marks)) != 4 or not all(1 <= x <= n for x in marks):
        raise ValueError("need four distinct marks in range")

    def separating(a, b, c, d, sign):
        rest = [x for x in range(1, n + 1) if x not in (a, b, c, d)]
        return {(canonicalize({a, b} | set(extra), n),): sign
                for r in range(len(rest) + 1)
                for extra in itertools.combinations(rest, r)}

    # A split separates at most one of the three pairings of the four
    # marks, so the sums have no divisor in common.
    s_ij = separating(i, j, k, l, Fraction(1))
    return ({**s_ij, **separating(i, k, j, l, Fraction(-1))},
            {**s_ij, **separating(i, l, j, k, Fraction(-1))})


# A reduced image in one degree: (den, ((i, num), ...)) stands for the sum
# of num/den times the i-th basis monomial, with an integer den > 0.
Image = tuple[int, tuple[tuple[int, int], ...]]

_ZERO_IMAGE: Image = (1, ())


def sum_images(dim: int,
               terms: list[tuple[int, int, Image]]) -> tuple[list[int], int]:
    """The sum of num/den times image over the (num, den, image) terms, as
    (numerators, common denominator), in integers only: one pass takes the
    common denominator, a second adds the numerators scaled to it.  The
    (i, num) pairs of an image are read once, in the second pass."""
    common = 1
    for _, den, (t, _) in terms:
        e = den * t
        if common % e:
            common = lcm(common, e)
    nums = [0] * dim
    for num, den, (t, image) in terms:
        f = num * (common // (den * t))
        for i, v in image:
            nums[i] += f * v
    return nums, common


class GradedBasis:
    """The ring kernel: bases, reduction, products and relabelling of the
    n-pointed ring in basis coordinates.

    The keys of ``reduction[d]`` are the nonzero degree-d monomials (those
    whose factors are pairwise compatible) in sorted order: any other
    sorted product of d divisors is zero.  For each degree d the basis is
    the set of non-pivot monomials of the echelonized relation space,
    spanned by (degree-1 relations) x (nonzero degree d-1 monomials).

    Divisor i is ``divisors[i]``, ``rank`` maps each divisor back to i, and
    ``compatibility[i]`` is the bitset of the divisors compatible with
    it.  The build extends each nonzero degree d-1 monomial, held as a
    sorted tuple of ranks with the AND of its factors' bitsets, by the set
    bits of that AND from its last factor on, in ascending rank; this keeps
    the sorted monomial order and so the choice of basis.  Of the rank
    data, ``rank``, the bitsets, the side masks and the basis monomials as
    rank tuples (``basis_ranks``) outlive the build; the last two serve
    relabelling.
    """

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("need at least 4 marks")
        self.n = n
        self.top = n - 3
        self.divisors = all_divisors(n)
        # The side of divisor i (its rank in the fixed order) as a bitmask,
        # bit k-1 for mark k.  Two splits are compatible when their sides
        # are nested or disjoint; compatibility[i] has bit j set when
        # divisors i and j are.
        sides = [sum(1 << (k - 1) for k in div.key) for div in self.divisors]
        self.compatibility = [
            sum(1 << j for j, b in enumerate(sides) if a & b in (0, a, b))
            for a in sides]
        # The rank of each side, in rank order.
        self._side_rank = {side: r for r, side in enumerate(sides)}
        self.basis: dict[int, list[Monomial]] = {0: [()]}
        # The basis monomials of each degree as sorted tuples of ranks.
        self.basis_ranks: dict[int, list[tuple[int, ...]]] = {0: [()]}
        # reduction[d][monomial] = Image of the monomial in the degree-d basis
        self.reduction: dict[int, dict[Monomial, Image]] = {
            0: {(): (1, ((0, 1),))}}
        self._products: dict[tuple[int, int, int], list[Image]] = {}
        self._divisor_perms: dict[tuple[int, ...], list[int]] = {}
        self._relabels: dict[tuple[tuple[int, ...], int], list[Image]] = {}
        # The echelon rows of symmetry.invariant_basis, by group generators
        # then degree, and orbit-average tables of symmetry.average_images,
        # by group generators and degree.
        self.invariant_bases: dict[tuple[tuple[int, ...], ...],
                                   list[list[dict[int, Fraction]]]] = {}
        self.average_tables: dict[tuple[tuple[tuple[int, ...], ...], int],
                                  list[Image]] = {}
        self._build()
        self._point_norm = self._calibrate_point()

    # -- construction ------------------------------------------------------

    def _build(self):
        n = self.n
        divisors = self.divisors
        rank = self.rank = {div: i for i, div in enumerate(divisors)}
        # Degree-1 relations, echelonized once and reused in every degree.
        ech = SparseEchelon()
        for quad in itertools.combinations(range(1, n + 1), 4):
            for rel in four_point_relation(n, *quad):
                ech.add_row({rank[div]: c for (div,), c in rel.items()})
        # The relations as (rank, integer coefficient) pairs, leading rank
        # first: each is a primitive integer row of the reduced echelon form.
        relations = [[(lead, a)] + sorted(tail)
                     for lead, (a, tail) in sorted(ech.finish().items())]
        self.linear_relations = [
            {(divisors[r],): Fraction(v, rel[0][1]) for r, v in rel}
            for rel in relations]
        # The unit monomial, compatible with every divisor.
        lower = [((), (1 << len(divisors)) - 1)]
        for d in range(1, self.top + 1):
            lower = self._build_degree(d, lower, relations)

    def _build_degree(self, d: int, lower, relations):
        """Basis and reductions of degree d, from the nonzero monomials of
        degree d - 1: sorted tuples of divisor ranks, each with the bitset
        of the divisors compatible with all its factors.  Returns the
        nonzero degree-d monomials in the same form."""
        compatibility = self.compatibility
        # Each lower monomial extended by every compatible divisor from its
        # last factor on, in ascending rank: the nonzero degree-d monomials,
        # in sorted order.
        monos = []
        for m, allowed in lower:
            bits = allowed >> m[-1] << m[-1] if m else allowed
            while bits:
                low = bits & -bits
                bits ^= low
                r = low.bit_length() - 1
                monos.append((m + (r,), allowed & compatibility[r]))
        index = {m: i for i, (m, _) in enumerate(monos)}
        ech = SparseEchelon()
        for rel in relations:
            for m, allowed in lower:
                row = {index[tuple(sorted(m + (r,)))]: c
                       for r, c in rel if allowed >> r & 1}
                if row:
                    ech.add_row(row)
        # Pivot row i reads a*m_i + sum(v*m_c) = 0 over free columns c, so
        # m_i = sum(-v/a * m_c): the image is the row itself, negated.
        rows = ech.finish()
        divisors = self.divisors
        names = [tuple(divisors[r] for r in m) for m, _ in monos]
        column = {}
        basis = []
        basis_ranks = []
        for i, name in enumerate(names):
            if i not in rows:
                column[i] = len(basis)
                basis.append(name)
                basis_ranks.append(monos[i][0])
        red: dict[Monomial, Image] = {}
        for i, name in enumerate(names):
            if i in rows:
                a, tail = rows[i]
                red[name] = (a, tuple(sorted((column[c], -v)
                                             for c, v in tail)))
            else:
                red[name] = (1, ((column[i], 1),))
        self.basis[d] = basis
        self.basis_ranks[d] = basis_ranks
        self.reduction[d] = red
        return monos

    def _calibrate_point(self) -> Fraction:
        """Normalize integration so that the class of a single point — the
        zero-dimensional stratum cut out by the maximal nested chain of
        splits {1,2} < {1,2,3} < ... — integrates to 1."""
        chain = monomial(*[canonicalize(set(range(1, k + 1)), self.n)
                           for k in range(2, self.n - 1)])
        v = self.element(self.top, {chain: 1})
        if len(v.nums) != 1 or not v.nums[0]:
            raise AssertionError("top degree is not one-dimensional")
        return Fraction(v.nums[0], v.den)

    # -- coordinates ---------------------------------------------------------

    def dims(self) -> list[int]:
        return [len(self.basis[d]) for d in range(self.top + 1)]

    def element(self, degree: int, coeffs) -> RingElement:
        """The reduced class of a combination of monomials: coeffs maps
        sorted degree-d monomials of this kernel's divisors to int or
        Fraction coefficients.  The keys of ``reduction[d]`` are all the
        nonzero ones, so any other such monomial (incompatible factors, or
        any degree above the top) is skipped; a monomial of another length,
        with a factor of another mark count, or not sorted raises
        KeyError."""
        red = self.reduction.get(degree, {})
        images = []
        for m, c in coeffs.items():
            if type(c) is not Fraction:
                c = _exact(c)
            image = red.get(m)
            if image is None:
                ranks = [self.rank.get(f) for f in m]
                if (len(m) == degree and None not in ranks
                        and ranks == sorted(ranks)):
                    continue
                raise KeyError(f"not a sorted degree-{degree} monomial: {m}")
            images.append((c.numerator, c.denominator, image))
        return self._element(degree, *sum_images(
            len(self.basis.get(degree, ())), images))

    def _element(self, degree: int, nums: list[int], den: int) -> RingElement:
        """The element with coordinates nums / den.  nums becomes the
        element's own, so the caller leaves it unchanged afterwards; no
        Fraction is built until ``coeffs`` is read."""
        return RingElement(self, degree, nums, den)

    def coordinates(self, x: RingElement) -> RingElement:
        """x, whose ``nums`` and ``den`` are its coordinates in the basis
        of its degree, read, never changed.  Only the kernel that built x
        reads them: an element of another kernel instance raises
        ValueError."""
        if x.kernel is not self:
            raise ValueError("element of another ring kernel")
        return x

    def span_coordinates(self, x: RingElement,
                         span: list[RingElement]) -> list[Fraction] | None:
        """Coefficients c with sum(c[k] * span[k]) = reduce(x), or None when
        reduce(x) lies outside the span (every element of x's degree)."""
        vectors = [self.coordinates(y) for y in span]
        target = self.coordinates(x)
        # Column k holds the numerators of span[k] and the right side those
        # of x, so a solution z gives c[k] = z[k] * den_k / den_x.
        rows = [{k: v.nums[i] for k, v in enumerate(vectors) if v.nums[i]}
                for i in range(len(target.nums))]
        z = solve(QMatrix(rows, len(span)),
                  {i: t for i, t in enumerate(target.nums) if t})
        if z is None:
            return None
        return [Fraction(z.get(k, 0) * v.den, target.den)
                for k, v in enumerate(vectors)]

    # -- reduction, products, relabelling, integration ----------------------

    def reduce(self, x: RingElement) -> RingElement:
        """x itself: an element this kernel built is reduced already and
        never changes.  An element of another kernel instance raises
        ValueError, as in ``coordinates``."""
        self.coordinates(x)
        return x

    def combine(self, degree: int, terms) -> RingElement:
        """The sum of c * x over the (x, c) terms, all of the given degree;
        c is an int or a Fraction.  The coordinates of the terms are summed
        in one pass."""
        vectors = []
        for x, c in terms:
            if x.degree != degree:
                raise ValueError("grade mismatch")
            if type(c) is not Fraction:
                c = _exact(c)
            # the coordinates of x as an image over their own denominator
            v = self.coordinates(x)
            vectors.append((c.numerator, c.denominator,
                            (v.den, enumerate(v.nums))))
        return self._element(degree, *sum_images(
            len(self.basis.get(degree, ())), vectors))

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        """Bilinear product followed by reduction; degrees beyond the top
        give the zero element of that degree."""
        va, vb = self.coordinates(a), self.coordinates(b)
        degree = a.degree + b.degree
        if degree > self.top:
            return self.element(degree, {})
        right = [(j, y) for j, y in enumerate(vb.nums) if y]
        images = []
        for i, x in enumerate(va.nums):
            if x:
                row = self._product_row(a.degree, i, b.degree)
                images += [(x * y, 1, row[j]) for j, y in right]
        nums, den = sum_images(len(self.basis[degree]), images)
        return self._element(degree, nums, den * va.den * vb.den)

    def _product_row(self, da: int, i: int, db: int) -> list[Image]:
        """The Image of the i-th basis monomial of degree da times each basis
        monomial of degree db (a row of structure constants), built on first
        use and kept."""
        row = self._products.get((da, i, db))
        if row is None:
            red = self.reduction[da + db]
            left = self.basis[da][i]
            row = self._products[(da, i, db)] = []
            for right in self.basis[db]:
                row.append(red.get(monomial(*left, *right), _ZERO_IMAGE))
        return row

    def linear_image(self, x: RingElement, table: list[Image],
                     scale: Rational = 1) -> RingElement:
        """scale * sum(v[i] * table[i]), where v are the coordinates of x
        and table[i] is the Image of basis monomial i under a linear map of
        x's degree: one summation in integer coordinates and one element
        at the end.  A float scale is refused."""
        if type(scale) is not Fraction:
            scale = _exact(scale)
        v = self.coordinates(x)
        num, den = scale.numerator, scale.denominator
        nums, common = sum_images(len(v.nums), [
            (c * num, den, table[i]) for i, c in enumerate(v.nums) if c])
        return self._element(x.degree, nums, common * v.den)

    def relabel(self, g: tuple[int, ...], x: RingElement) -> RingElement:
        """x with mark i renamed g[i-1], reduced; a degree beyond the top
        has no relabelling table and gives the zero element."""
        if x.degree > self.top:
            return self.element(x.degree, {})
        return self.linear_image(x, self.relabel_images(g, x.degree))

    def relabel_images(self, g: tuple[int, ...], degree: int) -> list[Image]:
        """The Image of each basis monomial of the degree with its marks
        renamed by g, built on first use and kept."""
        images = self._relabels.get((g, degree))
        if images is None:
            red = self.reduction[degree]
            divisors = self.divisors
            images = self._relabels[(g, degree)] = [
                red[tuple(divisors[r] for r in self.relabel_ranks(g, m))]
                for m in self.basis_ranks[degree]]
        return images

    def relabel_ranks(self, g: tuple[int, ...],
                      m: tuple[int, ...]) -> tuple[int, ...]:
        """The monomial m, a sorted tuple of divisor ranks, with mark i
        renamed g[i-1].  Ranks follow the divisor order, so the sorted
        ranks name the sorted monomial."""
        table = self.divisor_permutation(g)
        return tuple(sorted(table[r] for r in m))

    def divisor_permutation(self, g: tuple[int, ...]) -> list[int]:
        """Entry r is the rank of divisor r with mark i renamed g[i-1],
        built from the side bitmasks on first use and kept; g must be a
        permutation of 1..n."""
        table = self._divisor_perms.get(g)
        if table is None:
            n = self.n
            if sorted(g) != list(range(1, n + 1)):
                raise ValueError(
                    f"not a permutation of the marks 1..{n}: {tuple(g)}")
            images = [1 << (k - 1) for k in g]
            full = (1 << n) - 1
            table = []
            for side in self._side_rank:
                image = 0
                for i in range(n - 1):
                    if side >> i & 1:
                        image |= images[i]
                # the canonical side is the one without mark n
                if image >> (n - 1):
                    image ^= full
                table.append(self._side_rank[image])
            self._divisor_perms[g] = table
        return table

    def integrate(self, x: RingElement) -> Rational:
        """Degree of a top-degree class against the normalized point class."""
        if x.degree != self.top:
            raise ValueError("integration needs a top-degree element")
        v = self.reduce(x)
        (num,) = v.nums
        return Fraction(num, v.den) / self._point_norm


_CACHE: dict[int, GradedBasis] = {}


def build_graded_basis(n: int) -> GradedBasis:
    """Construct (and cache) the graded basis data for the n-pointed ring.

    This is the one place the mark count is capped, at ``DEFAULT_N_CAP``.
    """
    if n > DEFAULT_N_CAP:
        raise ValueError(f"mark count cap exceeded ({n} > {DEFAULT_N_CAP})")
    if n not in _CACHE:
        _CACHE[n] = GradedBasis(n)
    return _CACHE[n]
