"""Graded polynomial quotients over Q and their comparison with the
computed invariant rings.

The quotients in scope are Artinian with socle in degree 3, so no Groebner
machinery is needed: the dimension of each graded piece is the number of
monomials minus the rank of the span of (ideal generator) x (complementary
monomial), degree by degree, in exact arithmetic.

A small expression parser (integers, rationals, + - * ^, parentheses,
identifiers) reads the preset ideal generators and ad-hoc relation queries.
It rejects any exponent or product of degree above the presentation's
``max_degree`` and parentheses nested deeper than ``MAX_NESTING``, so the
work it does is bounded by the length of its input.

Polynomials are keyed by sorted tuples of names, the format that
``SpaceDescriptor.evaluate`` takes: generators and monomials reach the
invariant ring through that one evaluator.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .exact_linear import QMatrix, kernel_basis, rank, rref
from .keel_ring import RingElement
from .space_registry import SpaceDescriptor, load_space, load_preset_json
from .symmetry import invariant_dims

# A polynomial is a dict from the sorted tuple of the names a monomial
# multiplies to its coefficient; () keys the constant term.
Poly = dict[tuple[str, ...], Fraction]


# -- expression parser ---------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")


class ExprError(ValueError):
    pass


# Degrees 0..max_degree of a quotient are computed; the presets use 6.
DEFAULT_MAX_DEGREE = 6
MAX_DEGREE_LIMIT = 8
# The parser recurses once per open parenthesis; stay far below the
# interpreter's recursion limit.
MAX_NESTING = 50


def _checked_max_degree(value) -> int:
    """The max_degree of a presentation, rejected unless it is an integer
    in 1..MAX_DEGREE_LIMIT."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"max_degree must be an integer, got {value!r}")
    if not 1 <= value <= MAX_DEGREE_LIMIT:
        raise ValueError(f"max_degree must lie in 1..{MAX_DEGREE_LIMIT}, "
                         f"got {value}")
    return value


class _Parser:
    def __init__(self, text: str, variables: list[str], max_degree: int):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.variables = variables
        self.max_degree = max_degree
        self.depth = 0

    @staticmethod
    def _tokenize(text: str):
        out = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ExprError(f"bad character at {text[pos:]!r}")
                break
            num, name, op = m.groups()
            if num:
                out.append(("num", int(num)))
            elif name:
                out.append(("name", name))
            else:
                out.append(("op", "^" if op == "**" else op))
            pos = m.end()
        return out

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def _take(self, kind=None, value=None):
        tok = self._peek()
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ExprError(f"unexpected token {tok} (wanted {kind} {value})")
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        poly = self._expr()
        if self.pos != len(self.tokens):
            raise ExprError(f"trailing tokens {self.tokens[self.pos:]}")
        return poly

    def _expr(self) -> Poly:
        sign = 1
        if self._peek() == ("op", "-"):
            self._take()
            sign = -1
        elif self._peek() == ("op", "+"):
            self._take()
        acc = _scale(self._term(), sign)
        while self._peek()[0] == "op" and self._peek()[1] in "+-":
            op = self._take()[1]
            t = self._term()
            acc = _add(acc, _scale(t, 1 if op == "+" else -1))
        return acc

    def _term(self) -> Poly:
        acc = self._power()
        while True:
            kind, value = self._peek()
            if kind == "op" and value == "*":
                self._take()
                acc = self._bounded(_mul(acc, self._power()))
            elif kind == "op" and value == "/":
                self._take()
                kind2, denom = self._take("num")
                if not denom:
                    raise ExprError("division by zero")
                acc = _scale(acc, Fraction(1, denom))
            else:
                return acc

    def _power(self) -> Poly:
        base = self._atom()
        if self._peek() == ("op", "^"):
            self._take()
            _, exp = self._take("num")
            if exp > self.max_degree:
                raise ExprError(f"exponent {exp} exceeds max_degree "
                                f"{self.max_degree}")
            out = {(): Fraction(1)}
            for _ in range(exp):
                out = self._bounded(_mul(out, base))
            return out
        return base

    def _bounded(self, poly: Poly) -> Poly:
        """The product just formed, rejected above max_degree."""
        if poly and max(map(len, poly)) > self.max_degree:
            raise ExprError(f"term of degree above max_degree "
                            f"{self.max_degree}")
        return poly

    def _atom(self) -> Poly:
        kind, value = self._peek()
        if kind == "num":
            self._take()
            return _scale({(): 1}, value)
        if kind == "name":
            self._take()
            if value not in self.variables:
                raise ExprError(f"unknown variable {value!r}")
            return {(value,): Fraction(1)}
        if kind == "op" and value == "(":
            self._take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}")
            inner = self._expr()
            self._take("op", ")")
            self.depth -= 1
            return inner
        raise ExprError(f"unexpected token {(kind, value)}")


def _add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        nc = out.get(e, Fraction(0)) + c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


def _scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(sorted(ea + eb))
            nc = out.get(e, Fraction(0)) + ca * cb
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
    return out


def parse_polynomial(text: str, variables: list[str],
                     max_degree: int = DEFAULT_MAX_DEGREE) -> Poly:
    return _Parser(text, variables, max_degree).parse()


def poly_degree(p: Poly) -> int:
    if not p:
        return 0
    degs = {len(e) for e in p}
    if len(degs) > 1:
        raise ExprError(f"inhomogeneous polynomial (degrees {sorted(degs)})")
    return degs.pop()


# -- presentations -------------------------------------------------------------

class Presentation:
    """A graded quotient of a polynomial ring, all variables in degree 1."""

    def __init__(self, variables: list[str], generators: list[Poly],
                 generator_texts: list[str],
                 max_degree: int = DEFAULT_MAX_DEGREE, name: str = ""):
        self.variables = variables
        self.generators = generators
        self.generator_texts = generator_texts
        self.max_degree = max_degree
        self.name = name

    @classmethod
    def from_preset(cls, preset_name: str) -> "Presentation":
        data = load_preset_json(f"presentation_{preset_name}.json")
        p = cls.from_texts(data["variables"], data["generators"],
                           data.get("max_degree", DEFAULT_MAX_DEGREE))
        p.name = preset_name
        return p

    @classmethod
    def from_texts(cls, variables, texts,
                   max_degree: int = DEFAULT_MAX_DEGREE) -> "Presentation":
        for field, value in (("variables", variables), ("generators", texts)):
            if not (isinstance(value, list)
                    and all(isinstance(t, str) for t in value)):
                raise ValueError(f"{field} must be a list of strings, "
                                 f"got {value!r}")
        if len(set(variables)) != len(variables):
            raise ValueError(f"variables must be distinct, got {variables!r}")
        max_degree = _checked_max_degree(max_degree)
        gens = [parse_polynomial(t, list(variables), max_degree)
                for t in texts]
        return cls(list(variables), gens, list(texts), max_degree)


def _monomials(variables: list[str], degree: int):
    """The monomials of the degree, as sorted tuples of names."""
    return itertools.combinations_with_replacement(sorted(variables), degree)


def _degree_relation_rows(p: Presentation, d: int):
    """The degree-d monomials, the rows of the degree-d multiples of the
    generators over them, and the generator each row is a multiple of."""
    monos = list(_monomials(p.variables, d))
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    owners = []
    for gi, g in enumerate(p.generators):
        if not g:
            continue
        e = poly_degree(g)
        if e > d:
            continue
        for m in _monomials(p.variables, d - e):
            rows.append({index[tuple(sorted(key + m))]: c
                         for key, c in g.items()})
            owners.append(gi)
    return monos, rows, owners


def hilbert_function(p: Presentation) -> list[int]:
    """Dimensions of the graded pieces of the quotient, degrees 0..max.

    The quotient is generated in degree 1, so once H(d) = 0 every monomial
    of degree d + 1 is a multiple of one in the ideal: the remaining
    degrees are zero and no rank is computed for them."""
    out = []
    for d in range(p.max_degree + 1):
        if out and out[-1] == 0:
            out.append(0)
            continue
        monos, rows, _ = _degree_relation_rows(p, d)
        r = len(rref(QMatrix(rows, len(monos)))[1]) if rows else 0
        out.append(len(monos) - r)
    return out


def dependent_generators(p: Presentation) -> list[int]:
    """Indices of generators lying in the degree-d truncation of the ideal
    generated by the others (d the generator's degree).

    A generator g_i of degree d is one exactly when some linear relation
    among the degree-d multiples of the generators, that is some kernel
    vector of their transposed rows, has a nonzero entry on g_i itself; a
    zero generator always is.  One kernel per degree answers for all the
    generators of that degree."""
    out = {gi for gi, g in enumerate(p.generators) if not g}
    for d in sorted({poly_degree(g) for g in p.generators if g}):
        monos, rows, owners = _degree_relation_rows(p, d)
        own = [k for k, gi in enumerate(owners)
               if poly_degree(p.generators[gi]) == d]
        transposed = [{k: row[j] for k, row in enumerate(rows) if j in row}
                      for j in range(len(monos))]
        for v in kernel_basis(QMatrix(transposed, len(rows))):
            out.update(owners[k] for k in own if k in v)
    return sorted(out)


def independence_check(p: Presentation) -> bool:
    """No generator lies in the degree-d truncation of the ideal generated
    by the others (d the generator's degree)."""
    return not dependent_generators(p)


def evaluate_in_ring(space: SpaceDescriptor, p: Poly) -> RingElement:
    """Substitute the named boundary (and Hodge) classes for the variables
    and reduce in the invariant ring."""
    return space.evaluate(p)


def check_relation(space_tag: str, text: str) -> tuple[bool, RingElement]:
    """True iff the polynomial in the space's class names vanishes in the
    invariant ring; otherwise also the nonzero residue."""
    space = load_space(space_tag)
    variables = list(space.boundary) + [space.lambda_name]
    poly = parse_polynomial(text, variables)
    residue = evaluate_in_ring(space, poly)
    return residue.is_zero(), residue


class PresentationReport:
    """The comparison of a presentation with the invariant ring of a space."""

    def __init__(self, generators_vanish: list[bool],
                 surjective_by_degree: list[bool], hilbert: list[int],
                 invariant_dims: list[int], independent: bool):
        self.generators_vanish = generators_vanish
        self.surjective_by_degree = surjective_by_degree
        self.hilbert = hilbert
        self.invariant_dims = invariant_dims
        self.independent = independent

    @property
    def isomorphic(self) -> bool:
        top = len(self.invariant_dims)
        return (all(self.generators_vanish)
                and all(self.surjective_by_degree)
                and self.hilbert[:top] == self.invariant_dims
                and all(h == 0 for h in self.hilbert[top:]))


def verify_presentation(space_tag: str, p: Presentation) -> PresentationReport:
    """Checks that the quotient presents the invariant ring: every ideal
    generator vanishes under the substitution, the substitution is
    degreewise surjective, and the Hilbert function matches the invariant
    dimensions (with zeros beyond the socle)."""
    space = load_space(space_tag)
    gb = space.gb
    if set(p.variables) != set(space.boundary):
        raise ValueError(f"variables {p.variables} do not match the "
                         f"boundary classes of {space_tag}")
    vanish = [evaluate_in_ring(space, g).is_zero() for g in p.generators]
    inv_dims = invariant_dims(space.group, gb)
    surjective = []
    for d in range(gb.top + 1):
        images = [evaluate_in_ring(space, {m: Fraction(1)})
                  for m in _monomials(p.variables, d)]
        rows = [{i: v for i, v in enumerate(gb.coordinates(x).nums) if v}
                for x in images]
        surjective.append(rank(QMatrix(rows, len(gb.basis[d])))
                          == inv_dims[d])
    return PresentationReport(
        generators_vanish=vanish, surjective_by_degree=surjective,
        hilbert=hilbert_function(p), invariant_dims=inv_dims,
        independent=independence_check(p))
