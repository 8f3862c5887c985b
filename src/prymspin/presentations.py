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
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_linear import QMatrix, rref
from .keel_ring import RingElement
from .space_registry import SpaceDescriptor, load_space, load_preset_json
from .symmetry import invariant_basis

# A polynomial is a dict exponent-tuple -> coefficient.
Poly = dict[tuple[int, ...], Fraction]


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
    """The max_degree of a presentation, rejected outside 1..MAX_DEGREE_LIMIT."""
    value = int(value)
    if not 1 <= value <= MAX_DEGREE_LIMIT:
        raise ValueError(f"max_degree must lie in 1..{MAX_DEGREE_LIMIT}, "
                         f"got {value}")
    return value


class _Parser:
    def __init__(self, text: str, variables: list[str], max_degree: int):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.variables = variables
        self.index = {v: i for i, v in enumerate(variables)}
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
            out = _const(Fraction(1), len(self.variables))
            for _ in range(exp):
                out = self._bounded(_mul(out, base))
            return out
        return base

    def _bounded(self, poly: Poly) -> Poly:
        """The product just formed, rejected above max_degree."""
        if poly and max(map(sum, poly)) > self.max_degree:
            raise ExprError(f"term of degree above max_degree "
                            f"{self.max_degree}")
        return poly

    def _atom(self) -> Poly:
        kind, value = self._peek()
        if kind == "num":
            self._take()
            return _const(Fraction(value), len(self.variables))
        if kind == "name":
            self._take()
            if value not in self.index:
                raise ExprError(f"unknown variable {value!r}")
            expo = [0] * len(self.variables)
            expo[self.index[value]] = 1
            return {tuple(expo): Fraction(1)}
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


def _const(c: Fraction, nvars: int) -> Poly:
    return {tuple([0] * nvars): c} if c else {}


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
            e = tuple(x + y for x, y in zip(ea, eb))
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
    degs = {sum(e) for e in p}
    if len(degs) > 1:
        raise ExprError(f"inhomogeneous polynomial (degrees {sorted(degs)})")
    return degs.pop()


# -- presentations -------------------------------------------------------------

@dataclass
class Presentation:
    """A graded quotient of a polynomial ring, all variables in degree 1."""
    variables: list[str]
    generators: list[Poly]
    generator_texts: list[str]
    max_degree: int = DEFAULT_MAX_DEGREE
    name: str = ""

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
        max_degree = _checked_max_degree(max_degree)
        gens = [parse_polynomial(t, list(variables), max_degree)
                for t in texts]
        return cls(list(variables), gens, list(texts), max_degree)


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def _degree_relation_rows(p: Presentation, d: int, skip: int | None = None):
    monos = _monomials(len(p.variables), d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for gi, g in enumerate(p.generators):
        if gi == skip or not g:
            continue
        e = poly_degree(g)
        if e > d:
            continue
        for m in _monomials(len(p.variables), d - e):
            prod = _mul(g, {m: Fraction(1)})
            row = [Fraction(0)] * len(monos)
            for expo, c in prod.items():
                row[index[expo]] = c
            rows.append(row)
    return monos, rows


def hilbert_function(p: Presentation) -> list[int]:
    """Dimensions of the graded pieces of the quotient, degrees 0..max."""
    out = []
    for d in range(p.max_degree + 1):
        monos, rows = _degree_relation_rows(p, d)
        r = len(rref(QMatrix(rows))[1]) if rows else 0
        out.append(len(monos) - r)
    return out


def dependent_generators(p: Presentation) -> list[int]:
    """Indices of generators lying in the degree-d truncation of the ideal
    generated by the others (d the generator's degree)."""
    out = []
    for gi, g in enumerate(p.generators):
        d = poly_degree(g)
        monos, rows = _degree_relation_rows(p, d, skip=gi)
        index = {m: i for i, m in enumerate(monos)}
        target = [Fraction(0)] * len(monos)
        for expo, c in g.items():
            target[index[expo]] = c
        if not rows:
            if not any(target):
                out.append(gi)
            continue
        base_rank = len(rref(QMatrix(rows))[1])
        ext_rank = len(rref(QMatrix(rows + [target]))[1])
        if ext_rank == base_rank:
            out.append(gi)
    return out


def independence_check(p: Presentation) -> bool:
    """No generator lies in the degree-d truncation of the ideal generated
    by the others (d the generator's degree)."""
    return not dependent_generators(p)


def evaluate_in_ring(space: SpaceDescriptor, p: Poly,
                     variables: list[str]) -> RingElement:
    """Substitute the named boundary (and Hodge) classes for the variables
    and reduce in the invariant ring."""
    gb = space.gb
    degree = poly_degree(p) if p else 0
    acc = RingElement.zero(space.n, degree)
    values = [space.named_class(v).value for v in variables]
    for expo, c in p.items():
        term = RingElement.unit(space.n)
        for vi, e in enumerate(expo):
            for _ in range(e):
                term = gb.multiply(term, values[vi])
        acc = acc + term.scale(c)
    return gb.reduce(acc)


def check_relation(space_tag: str, text: str) -> tuple[bool, RingElement]:
    """True iff the polynomial in the space's class names vanishes in the
    invariant ring; otherwise also the nonzero residue."""
    space = load_space(space_tag)
    variables = list(space.boundary) + [space.lambda_name]
    poly = parse_polynomial(text, variables)
    residue = evaluate_in_ring(space, poly, variables)
    return residue.is_zero(), residue


@dataclass
class PresentationReport:
    space: str
    presentation: str
    generators_vanish: list[bool]
    surjective_by_degree: list[bool]
    hilbert: list[int]
    invariant_dims: list[int]
    independent: bool

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
    vanish = [evaluate_in_ring(space, g, p.variables).is_zero()
              for g in p.generators]
    inv = invariant_basis(space.group, gb)
    inv_dims = inv.dims()
    surjective = []
    for d in range(gb.top + 1):
        images = [evaluate_in_ring(space, {m: Fraction(1)}, p.variables)
                  for m in _monomials(len(p.variables), d)]
        ambient = gb.basis[d]
        rows = [[x.coeffs.get(mn, Fraction(0)) for mn in ambient]
                for x in images]
        r = len(rref(QMatrix(rows))[1]) if rows else 0
        surjective.append(r == inv_dims[d])
    return PresentationReport(
        space=space_tag, presentation=p.name or "(custom)",
        generators_vanish=vanish, surjective_by_degree=surjective,
        hilbert=hilbert_function(p), invariant_dims=inv_dims,
        independent=independence_check(p))


def substitution_degree1_kernel(space_tag: str, p: Presentation):
    """Basis of the kernel of the degree-1 substitution map, as coefficient
    vectors over the presentation variables."""
    space = load_space(space_tag)
    gb = space.gb
    ambient = gb.basis[1]
    cols = [space.named_class(v).value for v in p.variables]
    mat = QMatrix([[c.coeffs.get(mn, Fraction(0)) for c in cols]
                   for mn in ambient])
    from .exact_linear import kernel_basis
    return kernel_basis(mat)
