"""Pushforward and pullback calculus between the quotient spaces.

This module carries the whole intersection-theoretic toolbox: pushforward
of boundary classes along the finite covers from the 6- and 5-marked
rational curve spaces, derivation of the linear and quadratic boundary
relations from the four-point relations, the Hodge-class identity chains,
the full intersection-number tables of boundary divisors against
codimension-2 strata, and the base-space numbers they calibrate against.

Every cover pushes by one rule: a monomial upstairs maps onto the class
whose orbit holds it, with that class's ``cover_degree``.  A 5-marked
cover has no table of its own.  Its source is the covered divisor
D_c = M_{0,5} x M_{0,3} of the 6-marked space, the node of D_c playing
mark 5, so a 5-marked divisor is the codimension-2 monomial (D_c, D_S')
upstairs, S' its canonical side with the marks renamed into D_c's main
component (``COVERS``).

The pushforward of a G-invariant class x to the base is |S_6|/|G| times
its average over S_6 (15, 10 and 6 times for R2, S2plus and S2minus),
read off one orbit-average table per degree that all four spaces share;
``push_to_base`` refuses a class that is not G-invariant, for which that
average is not the pushforward.

Intersection numbers follow the convention d . s = n [x] with [x] the
plain class of a general point; in the invariant-ring model this becomes
n = C * integral(rep(d) * rep(s)) / |G| where the constant C is pinned
once by the anchor value d0''.[E',']_Q = 1/4 and then frozen; every other
table entry is a check, not an input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact_linear import QMatrix, Rational, rref
from .keel_ring import (Monomial, RingElement, canonicalize,
                        four_point_relation, monomial)
from .space_registry import SpaceDescriptor, load_space
from .symmetry import act, average_images

# Frozen by the single documented calibration (see intersection_number).
INTERSECTION_CALIBRATION = Fraction(4)


# -- linear combinations of named classes -------------------------------------

class NamedCombo:
    """A rational combination of formal products of class names on a space.

    Keys are sorted tuples of names; the empty tuple is the unit.  This is
    the exchange format for pushforwards and derived relations: ``add``
    accumulates terms, ``normalized`` gives the form compared against the
    reference tables, and ``evaluate`` reaches the invariant ring through
    ``SpaceDescriptor.evaluate``, the one evaluator of named classes.
    """

    def __init__(self, space: str):
        self.space = space
        self.terms: dict[tuple[str, ...], Fraction] = {}

    def add(self, names: tuple[str, ...], coeff) -> None:
        key = tuple(sorted(names))
        c = self.terms.get(key, Fraction(0)) + Fraction(coeff)
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)

    def normalized(self) -> "NamedCombo":
        """Primitive integer coefficients, first term positive, for stable
        comparison against the reference relations."""
        if not self.terms:
            return NamedCombo(self.space)
        keys = sorted(self.terms)
        denom = lcm(*(v.denominator for v in self.terms.values()))
        ints = [self.terms[k] * denom for k in keys]
        g = gcd(*(int(v) for v in ints))
        sign = 1 if ints[0] > 0 else -1
        out = NamedCombo(self.space)
        for k, v in zip(keys, ints):
            out.add(k, Fraction(int(v) * sign, g))
        return out

    def evaluate(self, space: SpaceDescriptor) -> RingElement:
        return space.evaluate(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            mono = "*".join(k) if k else "1"
            parts.append(f"({self.terms[k]})*{mono}")
        return " + ".join(parts)


# -- pushforward along the covers ---------------------------------------------

def pushforward(space: SpaceDescriptor,
                coeffs: dict[Monomial, Fraction]) -> NamedCombo:
    """Proper pushforward of a formal combination of monomials of the
    6-marked space, in stack-weighted coordinates: a monomial maps onto the
    class W whose orbit holds it with degree k = ``cover_degree(W)``, and
    contributes k [W] = k * aut(W) * w.  A monomial in no orbit raises
    KeyError."""
    out = NamedCombo(space.tag)
    for m, c in coeffs.items():
        name = space.class_of.get(m)
        if name is None:
            raise KeyError(f"monomial {m} not tabled for {space.tag}")
        out.add((name,), c * space.cover_degree(name)
                * space.aut_number(name))
    return out


def derive_linear_relation(space_tag: str) -> NamedCombo:
    """Push the kernel's echelon basis of the four-point relations through
    the cover and echelonize: pushforward is linear, so the images span the
    module of linear relations between the boundary classes downstairs
    (zero for the odd spin space)."""
    space = load_space(space_tag)
    names = list(space.boundary)
    column = {name: j for j, name in enumerate(names)}
    rows = []
    for rel in space.gb.linear_relations:
        combo = pushforward(space, rel)
        rows.append({column[nm]: c for (nm,), c in combo.terms.items()})
    red, pivots = rref(QMatrix(rows, len(names)))
    if not pivots:
        return NamedCombo(space_tag)
    if len(pivots) > 1:
        raise AssertionError("more than one independent linear relation")
    out = NamedCombo(space_tag)
    for j, c in red[0].items():
        out.add((names[j],), c)
    return out.normalized()


# -- the 5-marked boundary covers ---------------------------------------------

# The maps a divisor combination is pushed along, by name: the finite maps
# from the 6-marked space onto the quotients, pushed by ``pushforward``,
# and the boundary covers of ``COVERS``, pushed by ``pushforward_m05``.
QUOTIENT_MAPS = {"f_R": "R2", "f_plus": "S2plus", "f_minus": "S2minus"}

# Each cover of a divisor D_c sends marks 1..4 of the 5-marked space to the
# marks on D_c's main component, listed here; mark 5 is the node, and the
# other two marks sit on the bubble.  Which upstairs mark plays which mark
# of the 5-marked space is a labelling convention, not a derived value.
COVERS = {"h0p": ("R2", (1, 2, 5, 6)),         # D0' = [3,4]
          "h0alpha": ("S2minus", (1, 4, 5, 6))}  # A0- = [2,3]


def pushforward_m05(cover: str,
                    coeffs: dict[Monomial, Fraction]) -> NamedCombo:
    """Pushforward of a formal divisor combination of the 5-marked space
    along a boundary cover, in stack coordinates: each divisor is lifted to
    the monomial (D_c, D_S') of the 6-marked space and pushed from there.
    A key that is not a 5-marked divisor raises ValueError."""
    space_tag, marks = COVERS[cover]
    space = load_space(space_tag)
    n = space.n
    covered = canonicalize(set(range(1, n + 1)) - set(marks), n)
    lifted: dict[Monomial, Fraction] = {}
    for m, c in coeffs.items():
        if len(m) != 1 or m[0].n != n - 1:
            raise ValueError(f"{cover} pushes divisors of the 5-marked "
                             f"space, not {m}")
        side = canonicalize({marks[i - 1] for i in m[0].key}, n)
        lifted[monomial(covered, side)] = c
    return pushforward(space, lifted)


def derive_m05_relations() -> list[NamedCombo]:
    """The three relations obtained by pushing four-point relations of the
    5-marked space through the boundary covers, after rewriting transverse
    stratum classes as products and splitting reducible intersections."""
    rel_a = four_point_relation(5, 5, 1, 2, 3)[1]   # [51]+[23] = [53]+[12]
    rel_b = four_point_relation(5, 1, 2, 3, 4)[0]   # [12]+[34] = [13]+[24]

    # (1) through the cover of the divisor D0' on R2, with all four image
    # strata rewritten as transverse products of boundary classes.
    combo1 = pushforward_m05("h0p", rel_a)
    out1 = NamedCombo("R2")
    substitution = {"F11p": ("d0p", "d11"), "Ep_r": ("d0p", "d0r"),
                    "F1p": ("d0p", "d1"), "Ep_pp": ("d0p", "d0pp")}
    for (name,), c in combo1.terms.items():
        out1.add(substitution[name], c)
    out1 = out1.normalized()

    # (2) through the cover of A0- on the odd spin space, using that the
    # intersection of A0- and A1- splits into the two strata X- and Y-.
    combo2 = pushforward_m05("h0alpha", rel_a)
    out2 = NamedCombo("S2minus")
    for (name,), c in combo2.terms.items():
        if name == "Dm":
            out2.add(("a0m", "b0m"), c)
        elif name == "Ym":
            out2.add(("a0m", "a1m"), c)     # [Y-] = a0m a1m - [X-]
            out2.add(("Xm",), -c)
        else:
            out2.add((name,), c)
    out2 = out2.normalized()

    # (3) through the D0' cover again: a pure stratum-class relation.
    combo3 = pushforward_m05("h0p", rel_b)
    return [out1, out2, combo3.normalized()]


# -- intersection numbers ------------------------------------------------------

def intersection_number(space: SpaceDescriptor, divisor_name: str,
                        stratum_name: str) -> Rational:
    """The rational n with d . [S]_Q = n [x], [x] the plain class of a
    general point of the space."""
    product = space.evaluate({(divisor_name, stratum_name): 1})
    total = space.gb.integrate(product)
    return INTERSECTION_CALIBRATION * total / space.group.order


def codim2_strata(space: SpaceDescriptor) -> list[str]:
    return [name for name, e in space.strata.items() if len(e.rep) == 2]


def intersection_table(space_tag: str):
    """Rows: codimension-2 strata (in registry order); columns: boundary
    divisors.  Returns (row names, column names, rows of entries)."""
    space = load_space(space_tag)
    rows = codim2_strata(space)
    cols = list(space.boundary)
    return rows, cols, [[intersection_number(space, c, r) for c in cols]
                        for r in rows]


def mumford_base_numbers() -> dict[str, Rational]:
    """The four base-space pairings delta_i . [stratum]_Q computed inside
    the full symmetric-group invariants."""
    m2 = load_space("M2")
    out = {}
    for div in ("delta0", "delta1"):
        for stratum in ("Delta00", "Delta01"):
            out[f"{div}.{stratum}"] = intersection_number(m2, div, stratum)
    return out


# -- ring checks of named relations -------------------------------------------

def check_combo_vanishes(combo: NamedCombo) -> tuple[bool, RingElement]:
    space = load_space(combo.space)
    residue = combo.evaluate(space)
    return residue.is_zero(), residue


# -- Hodge class identity chains ----------------------------------------------

# Each chain replays a projection-formula computation: the stack class y
# equals (1/factor) f_*(1) for a boundary cover f, the Hodge class pulls
# back to a combination of genus-1 boundary symbols (after the one-twelfth
# identity on the elliptic base), and the table of f-pushforwards lands the
# product back in boundary products downstairs.
LAMBDA_CHAINS = [
    # (space, y, factor, [(coeff, product names)], morphism note)
    ("R2", "d11", Fraction(1, 2),
     [(Fraction(1, 4), ("d0r", "d11")), (Fraction(1, 4), ("d0r", "d11"))],
     "two-elliptic cover of D1:1: Hodge class restricts as (1/4) td0r on "
     "each factor; each factor pushes to d0r*d11"),
    ("R2", "d0pp", Fraction(1, 2),
     [(Fraction(1, 12), ("d0p", "d0pp")), (Fraction(1, 12), ("d0p", "d0pp"))],
     "two-marked elliptic cover of D0'': Hodge class restricts as one "
     "twelfth of the nodal class, which pushes to 2 d0p*d0pp"),
    ("R2", "d0p", Fraction(1, 2),
     [(Fraction(1, 3), ("Ep_p",)), (Fraction(1, 6), ("d0p", "d0pp")),
      (Fraction(1, 3), ("d0p", "d0r"))],
     "five-marked cover of D0': Hodge class pulls back to one sixth of the "
     "three boundary classes, which push to 2[E',']_Q, d0p*d0pp and "
     "2 d0p*d0r"),
    ("S2plus", "b0p", Fraction(1, 2),
     [(Fraction(1, 4), ("a0p", "b0p")), (Fraction(1, 4), ("a0p", "b0p"))],
     "two-marked even spin cover of B0+: Hodge class restricts as a "
     "quarter of talpha0p, which pushes to 2 a0p*b0p"),
    ("S2plus", "a1p", Fraction(1, 4),
     [(Fraction(1, 4), ("a0p", "a1p")), (Fraction(1, 4), ("a0p", "a1p")),
      (Fraction(1, 4), ("a0p", "a1p")), (Fraction(1, 4), ("a0p", "a1p"))],
     "product of two one-marked even spin curves over A1+: each factor "
     "contributes a quarter of talpha0p, pushing to 2 a0p*a1p"),
    ("S2plus", "b1p", Fraction(1, 4),
     [(Fraction(1, 12), ("a0p", "b1p")), (Fraction(1, 12), ("a0p", "b1p")),
      (Fraction(1, 12), ("a0p", "b1p")), (Fraction(1, 12), ("a0p", "b1p"))],
     "product of two elliptic curves over B1+: each factor contributes one "
     "twelfth of the nodal class, pushing to 2 a0p*b1p"),
    ("S2minus", "b0m", Fraction(1, 2),
     [(Fraction(1, 12), ("a0m", "b0m")), (Fraction(1, 12), ("a0m", "b0m"))],
     "two-marked elliptic cover of B0-: Hodge class restricts as one "
     "twelfth of the nodal class, pushing to 2 a0m*b0m"),
    ("S2minus", "a0m", Fraction(1, 2),
     [(Fraction(1, 3), ("Cm",)), (Fraction(1, 3), ("a0m", "b0m"))],
     "twisted two-marked cover of A0-: Hodge class pulls back to one "
     "twelfth of (alpha-check + 2 beta-check), which push to 4[C-]_Q and "
     "2 a0m*b0m"),
]

LAMBDA_VANISHING = [
    ("R2", ("l", "l", "d0p")), ("R2", ("l", "l", "d0pp")),
    ("R2", ("l", "l", "d0r")),
    ("S2plus", ("lp", "lp", "a0p")), ("S2plus", ("lp", "lp", "b0p")),
    ("S2minus", ("lm", "lm", "a0m")), ("S2minus", ("lm", "lm", "b0m")),
]


def verify_lambda_identities() -> dict[str, dict]:
    """Replays each Hodge-class chain and checks it in the invariant ring,
    then checks the square-of-Hodge vanishings.  Returns a report keyed by
    identity text; each residue is a ring element, zero when it holds."""
    report = {}
    for space_tag, y, factor, pushes, note in LAMBDA_CHAINS:
        space = load_space(space_tag)
        lam = space.lambda_name
        rhs = NamedCombo(space_tag)
        diff = NamedCombo(space_tag)
        diff.add((y, lam), 1)
        for coeff, names in pushes:
            rhs.add(names, factor * coeff)
            diff.add(names, -factor * coeff)
        ok, residue = check_combo_vanishes(diff)
        report[f"{y}*{lam} = {rhs}"] = {
            "holds": ok, "space": space_tag, "note": note,
            "residue": residue}
    for space_tag, names in LAMBDA_VANISHING:
        combo = NamedCombo(space_tag)
        combo.add(names, 1)
        ok, residue = check_combo_vanishes(combo)
        report["*".join(names) + " = 0"] = {
            "holds": ok, "space": space_tag,
            "note": "square of the Hodge class vanishes against this "
                    "boundary divisor (pullback from a one-dimensional base)",
            "residue": residue}
    return report


# -- pushforward to the base and the projection formula ------------------------

def push_to_base(space: SpaceDescriptor, element: RingElement) -> RingElement:
    """Pushforward of a G-invariant class, G = space.group, to the full
    symmetric-group invariants (the base space).

    The pushforward is the relative transfer, the sum of g.x over the left
    cosets gG of G in S_n.  For a G-invariant x that is the S_n-sum divided
    by |G|, so |S_n|/|G| times the S_n-average of x.  The precondition is
    checked on the generators of G first, one ``act`` each, compared with
    x in the integer coordinates the kernel records; a class that is not
    invariant raises ValueError.  The average is then one
    ``GradedBasis.linear_image`` through the S_n table of
    ``average_images``: one summation in integer coordinates and one
    element, whose ``Fraction`` coefficients are built only if read."""
    gb = space.gb
    reduced = gb.reduce(element)
    for h in space.group.generators:
        if act(h, element, gb) != reduced:
            raise ValueError(f"push_to_base needs a {space.tag}-invariant "
                             f"class; the generator {h} moves this one")
    table = average_images(load_space("M2").group, gb, element.degree)
    return gb.linear_image(reduced, table, space.fundamental_pushforward)


def base_class_coordinates(element: RingElement):
    """Express a symmetric invariant element in the named base classes of
    its degree; returns dict name -> coefficient or None if outside the
    span."""
    m2 = load_space("M2")
    if element.degree == 0:
        names, span = ["1"], [m2.gb.element(0, {(): 1})]
    else:
        names = (["delta0", "delta1"] if element.degree == 1
                 else [n for n in m2.strata
                       if len(m2.strata[n].rep) == element.degree])
        span = [m2.named_class(nm).value for nm in names]
    coords = m2.gb.span_coordinates(element, span)
    return None if coords is None else dict(zip(names, coords))


def stratum_pushforward_check(space_tag: str) -> dict[str, bool]:
    """Ring-level audit of every pushforward column entry.

    The pushforward of a stratum's class must equal the stated multiple of
    the named base stratum class.  A boundary divisor W maps onto the base
    divisor B whose orbit holds W's, so its class must have the coordinates
    fiber_count(W) * aut(B) / aut(W) on B and 0 on the other base divisor."""
    space = load_space(space_tag)
    m2 = load_space("M2")
    out = {}
    for name, e in space.strata.items():
        if e.pushforward_target is None:
            continue
        pushed = push_to_base(space, space.named_class(name).value)
        target = m2.named_class(e.pushforward_target).value
        out[name] = pushed == space.gb.reduce(
            target.scale(e.pushforward_coeff))
    for name, e in space.boundary.items():
        pushed = push_to_base(space, space.named_class(name).value)
        expected = dict.fromkeys(m2.boundary, Fraction(0))
        for b in m2.boundary.values():
            if e.orbit <= b.orbit:
                expected[b.name] = Fraction(e.fiber_count * b.aut, e.aut)
        out[name] = base_class_coordinates(pushed) == expected
    return out
