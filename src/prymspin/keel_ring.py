"""The rational Chow ring of the moduli space of n-pointed stable rational
curves, presented by boundary divisor classes.

Generators are the boundary divisors D^S, one for each subset S of the
marked points with 2 <= |S| <= n-2, subject to D^S = D^{S^c}.  The ideal of
relations is generated in degree 1 (the four-point relations) and degree 2
(products of divisors whose defining splits cannot coexist on a stable
curve vanish).  The ring is graded with top degree n-3; reduction to a
fixed monomial basis in each degree is done once, by exact linear algebra,
and cached in a GradedBasis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact_linear import Rational, SparseEchelon

DEFAULT_N_CAP = 8


@dataclass(frozen=True, order=True)
class BoundaryIndex:
    """A boundary divisor of the n-pointed space, named by the subset of
    marks on one side of the node.

    Canonical form: the side not containing the last mark n.  Sorting is by
    (size, sorted members), which fixes the monomial order used everywhere.
    """
    key: tuple[int, ...]
    n: int

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
    """All canonical boundary divisors, in the fixed order."""
    seen = set()
    out = []
    for size in range(2, n - 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            d = canonicalize(combo, n)
            if d not in seen:
                seen.add(d)
                out.append(d)
    return sorted(out)


def incompatible(s: BoundaryIndex, t: BoundaryIndex) -> bool:
    """True when D^S . D^T is forced to vanish: the two splits can coexist
    on a stable curve only if one of S<=T, T<=S, S<=T^c, S^c<=T holds."""
    if s.n != t.n:
        raise ValueError("mismatched number of marks")
    a, b = s.members, t.members
    full = frozenset(range(1, s.n + 1))
    return not (a <= b or b <= a or a <= (full - b) or (full - a) <= b)


# A monomial is a sorted tuple of BoundaryIndex factors (a multiset).
Monomial = tuple[BoundaryIndex, ...]


def monomial(*factors: BoundaryIndex) -> Monomial:
    return tuple(sorted(factors))


def monomial_is_zero(m: Monomial) -> bool:
    return any(incompatible(a, b)
               for a, b in itertools.combinations(m, 2))


class RingElement:
    """A Q-linear combination of monomials in boundary generators.

    Elements produced by GradedBasis.reduce are supported on the chosen
    basis monomials of their degree; raw elements (relations, products
    before reduction) may carry arbitrary monomials.
    """

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: dict[Monomial, Fraction] | None = None):
        self.n = n
        self.degree = degree
        self.coeffs: dict[Monomial, Fraction] = {}
        if coeffs:
            for m, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[m] = c

    @classmethod
    def zero(cls, n: int, degree: int) -> "RingElement":
        return cls(n, degree)

    @classmethod
    def unit(cls, n: int) -> "RingElement":
        return cls(n, 0, {(): Fraction(1)})

    @classmethod
    def generator(cls, d: BoundaryIndex) -> "RingElement":
        return cls(d.n, 1, {(d,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("grade mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return RingElement(self.n, self.degree, out)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + other.scale(-1)

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        return RingElement(self.n, self.degree,
                           {m: v * c for m, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.n == other.n
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.degree, frozenset(self.coeffs.items())))

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


def four_point_relation(n: int, i: int, j: int, k: int, l: int) -> tuple[RingElement, RingElement]:
    """The two independent degree-1 relations attached to four distinct
    marks: the sum of divisors separating {i,j} from {k,l} equals the sum
    separating {i,k} from {j,l}, and equals the one separating {i,l} from
    {j,k}.  Returns (S_ij|kl - S_ik|jl, S_ij|kl - S_il|jk); both vanish."""
    marks = (i, j, k, l)
    if len(set(marks)) != 4 or not all(1 <= x <= n for x in marks):
        raise ValueError("need four distinct marks in range")

    def separating_sum(a, b, c, d):
        rest = [x for x in range(1, n + 1) if x not in (a, b, c, d)]
        coeffs: dict[Monomial, Fraction] = {}
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                div = canonicalize({a, b} | set(extra), n)
                m = (div,)
                coeffs[m] = coeffs.get(m, Fraction(0)) + 1
        return RingElement(n, 1, coeffs)

    s_ij = separating_sum(i, j, k, l)
    s_ik = separating_sum(i, k, j, l)
    s_il = separating_sum(i, l, j, k)
    return s_ij - s_ik, s_ij - s_il


def _degree_monomials(n: int, d: int, divisors: list[BoundaryIndex]) -> list[Monomial]:
    """All nonzero (pairwise compatible) degree-d monomials, in order."""
    if d == 0:
        return [()]
    compat = {}
    for a, b in itertools.combinations(divisors, 2):
        compat[(a, b)] = not incompatible(a, b)

    def ok(m: Monomial) -> bool:
        for a, b in itertools.combinations(set(m), 2):
            key = (a, b) if (a, b) in compat else (b, a)
            if not compat[key]:
                return False
        return True

    return [m for m in itertools.combinations_with_replacement(divisors, d) if ok(m)]


class GradedBasis:
    """Bases and reduction data for each degree of the n-pointed ring.

    For each degree d the reduction rewrites every monomial as a combination
    of the chosen basis monomials (the non-pivot columns of the echelonized
    relation space).  The relation space in degree d is spanned by
    (degree-1 relations) x (degree d-1 monomials); products containing an
    incompatible pair are dropped as already zero.
    """

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("need at least 4 marks")
        self.n = n
        self.top = n - 3
        self.divisors = all_divisors(n)
        self.basis: dict[int, list[Monomial]] = {0: [()]}
        # reduction[d][monomial] = dict basis_monomial -> coefficient
        self.reduction: dict[int, dict[Monomial, dict[Monomial, Fraction]]] = {
            0: {(): {(): Fraction(1)}}}
        self._build()
        self._point_norm = self._calibrate_point()

    # -- construction ------------------------------------------------------

    def _build(self):
        n = self.n
        # Degree-1 relations, echelonized once and reused in every degree.
        raw_relations = []
        for quad in itertools.combinations(range(1, n + 1), 4):
            r1, r2 = four_point_relation(n, *quad)
            raw_relations.extend([r1, r2])
        self.linear_relations = self._independent_rows(raw_relations)
        for d in range(1, self.top + 1):
            self._build_degree(d)

    def _independent_rows(self, relations: list[RingElement]) -> list[dict[Monomial, Fraction]]:
        order = {(div,): i for i, div in enumerate(self.divisors)}
        ech = SparseEchelon()
        for rel in relations:
            ech.add_row({order[m]: c for m, c in rel.coeffs.items()})
        rows = ech.finish()
        out = []
        for lead in sorted(rows):
            out.append({(self.divisors[c],): v for c, v in rows[lead].items()})
        return out

    def _build_degree(self, d: int):
        monos = _degree_monomials(self.n, d, self.divisors)
        index = {m: i for i, m in enumerate(monos)}
        ech = SparseEchelon()
        lower_all = (_degree_monomials(self.n, d - 1, self.divisors)
                     if d > 1 else [()])
        for rel in self.linear_relations:
            for mono in lower_all:
                row: dict[int, Fraction] = {}
                for (div,), c in rel.items():
                    prod = monomial(div, *mono)
                    if monomial_is_zero(prod):
                        continue
                    idx = index[prod]
                    nv = row.get(idx, Fraction(0)) + c
                    if nv:
                        row[idx] = nv
                    else:
                        row.pop(idx, None)
                if row:
                    ech.add_row(row)
        rref_rows = ech.finish()
        pivots = set(rref_rows)
        basis = [m for i, m in enumerate(monos) if i not in pivots]
        red: dict[Monomial, dict[Monomial, Fraction]] = {}
        for i, m in enumerate(monos):
            if i in pivots:
                red[m] = {monos[c]: -v for c, v in rref_rows[i].items() if c != i}
            else:
                red[m] = {m: Fraction(1)}
        self.basis[d] = basis
        self.reduction[d] = red

    def _calibrate_point(self) -> Fraction:
        """Normalize integration so that the class of a single point — the
        zero-dimensional stratum cut out by the maximal nested chain of
        splits {1,2} < {1,2,3} < ... — integrates to 1."""
        chain = monomial(*[canonicalize(set(range(1, k + 1)), self.n)
                           for k in range(2, self.n - 1)])
        reduced = self.reduce(RingElement(self.n, self.top, {chain: Fraction(1)}))
        if len(reduced.coeffs) != 1:
            raise AssertionError("top degree is not one-dimensional")
        (coeff,) = reduced.coeffs.values()
        return coeff

    # -- reduction, products, integration -----------------------------------

    def dims(self) -> list[int]:
        return [len(self.basis[d]) for d in range(self.top + 1)]

    def reduce(self, x: RingElement) -> RingElement:
        """Rewrite onto the degree's basis monomials."""
        if x.degree > self.top:
            return RingElement.zero(self.n, x.degree)
        red = self.reduction[x.degree]
        out: dict[Monomial, Fraction] = {}
        for m, c in x.coeffs.items():
            if monomial_is_zero(m):
                continue
            for bm, bc in red[m].items():
                nv = out.get(bm, Fraction(0)) + c * bc
                if nv:
                    out[bm] = nv
                else:
                    out.pop(bm, None)
        return RingElement(self.n, x.degree, out)

    def multiply(self, a: RingElement, b: RingElement) -> RingElement:
        """Bilinear product followed by reduction; degrees beyond the top
        give the zero element of that degree."""
        if a.n != b.n or a.n != self.n:
            raise ValueError("mismatched number of marks")
        degree = a.degree + b.degree
        if degree > self.top:
            return RingElement.zero(self.n, degree)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in a.coeffs.items():
            for mb, cb in b.coeffs.items():
                prod = monomial(*(ma + mb))
                if monomial_is_zero(prod):
                    continue
                c = ca * cb
                nv = out.get(prod, Fraction(0)) + c
                if nv:
                    out[prod] = nv
                else:
                    out.pop(prod, None)
        return self.reduce(RingElement(self.n, degree, out))

    def product(self, elements) -> RingElement:
        acc = RingElement.unit(self.n)
        for e in elements:
            acc = self.multiply(acc, e)
        return acc

    def integrate(self, x: RingElement) -> Rational:
        """Degree of a top-degree class against the normalized point class."""
        if x.degree != self.top:
            raise ValueError("integration needs a top-degree element")
        reduced = self.reduce(x)
        if not reduced.coeffs:
            return Fraction(0)
        (coeff,) = reduced.coeffs.values()
        return coeff / self._point_norm


_CACHE: dict[int, GradedBasis] = {}


def build_graded_basis(n: int, cap: int = DEFAULT_N_CAP) -> GradedBasis:
    """Construct (and cache) the graded basis data for the n-pointed ring.

    This is the one place the mark count is capped; ``cap`` may raise it.
    """
    if n > cap:
        raise ValueError(f"mark count cap exceeded ({n} > {cap})")
    if n not in _CACHE:
        _CACHE[n] = GradedBasis(n)
    return _CACHE[n]
