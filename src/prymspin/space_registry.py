"""Named quotient spaces and their class dictionaries.

Each space (the base of genus-2 curves, the square-root covers of it with a
nontrivial 2-torsion bundle, and the two theta-characteristic components)
is a quotient of the 6-marked rational curve space by a mark-permutation
group.  Every preset class of a space is an orbit of boundary strata
upstairs, and every one is held in one record, ``StratumEntry``: a sorted
representative monomial of k compatible splits (k = 1 for a boundary
divisor), its orbit, its dual tree with the edges at which the stable model
is blown up, and the published values the entry must reproduce.  A divisor
carries its mapping degree and fiber count over the base stratum, a
stratum of higher codimension its pushforward coefficient; every entry
carries its automorphism number.  Loading a space maps every monomial of
every orbit to its class (``SpaceDescriptor.class_of``), refusing a
monomial that two entries share, recomputes the published values from the
dual-tree combinatorics, keeps each beside its table value in the entry's
``checks`` and fails loudly on any mismatch.  ``cover_degree`` is the
degree |G|/(|orbit| m) with which an orbit monomial upstairs maps onto its
class; it is the divisor degree the audit checks and the degree every
pushforward reads.  The forgetful degree |S_6|/|G|, the pullbacks of the
base boundary classes (``pullback_tables``) and the Hodge class (Mumford's
10 lambda = delta0 + 2 delta1, pulled back) are derived, never read.

``SpaceDescriptor.evaluate`` is the one evaluator of polynomials in named
classes, and the one place where named classes are multiplied: relations,
Hodge chains, pullbacks, presentation generators and the images of the
presentation monomials all reach the invariant ring through it.  It keeps
each product of sorted names it forms, so a monomial costs one product
beyond the longest prefix already kept."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources
from math import factorial

from .keel_ring import (GradedBasis, Monomial, RingElement,
                        build_graded_basis, canonicalize)
from .reference import MUMFORD_LAMBDA
from .strata_aut import (MarkedTree, count_marked_automorphisms,
                         fiber_count, prym_aut_number,
                         stratum_pushforward_coeff, trees_isomorphic)
from .symmetry import PermGroup, standard_group

QUOTIENT_TAGS = ("R2", "S2plus", "S2minus")
SPACE_TAGS = QUOTIENT_TAGS + ("M2",)


class RegistryError(ValueError):
    """A preset entry failed its consistency audit."""


_PACKAGED_PRESETS = str(resources.files("prymspin").joinpath("presets"))


def _preset_path(name: str) -> str:
    """Absolute path of a preset file: MODULI_PRESETS/name if that file
    exists, else the packaged copy."""
    override = os.environ.get("MODULI_PRESETS")
    if override:
        candidate = os.path.abspath(os.path.join(override, name))
        if os.path.exists(candidate):
            return candidate
    return os.path.join(_PACKAGED_PRESETS, name)


def load_preset_json(name: str) -> dict:
    with open(_preset_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def tree_from_monomial(factors: Monomial, n: int,
                       a_marks: frozenset[int]) -> MarkedTree:
    """Dual tree of the stratum cut out by distinct pairwise compatible
    splits; edge k of the tree separates the marks exactly as factor k does.

    The canonical sides (without mark n) of compatible splits are nested or
    disjoint, so component k is side k minus the sides inside it, the last
    component holds the remaining marks, and edge k joins side k to the
    least side that contains it (the last component when none does)."""
    sides = [div.members for div in factors]
    for i, s in enumerate(sides):
        for t in sides[:i]:
            if s & t and not (s < t or t < s):
                raise RegistryError(f"split {sorted(s)} does not refine the tree")
    comps = [s.difference(*(t for t in sides if t < s)) for s in sides]
    comps.append(frozenset(range(1, n + 1)).difference(*sides))
    parent = [min((j for j, t in enumerate(sides) if s < t),
                  key=lambda j: len(sides[j]), default=len(sides))
              for s in sides]
    mark_counts = tuple((len(c & a_marks), len(c - a_marks)) for c in comps)
    return MarkedTree(mark_counts, tuple(enumerate(parent)))


class NamedClass:
    """A named cycle class of a space, living in the invariant subring."""

    def __init__(self, value: RingElement):
        self.value = value


class StratumEntry:
    """A preset class of codimension k = len(rep): its orbit of monomials
    upstairs, with the table values of its kind and the data computed from
    its dual tree.  A boundary divisor (k = 1) has a mapping degree and a
    fiber count; a stratum has a pushforward target and coefficient unless
    it is a base stratum.  Values a kind does not have are None.  The
    load audit fills ``checks`` with {what: (computed, table value)}."""

    def __init__(self, name: str, display: str, rep: Monomial,
                 orbit: frozenset[Monomial], aut: int, stab_order: int,
                 tree: MarkedTree, blown_edges: frozenset[int],
                 degree: int | None, fiber_count: int | None,
                 pushforward_target: str | None,
                 pushforward_coeff: Fraction | None):
        self.name = name
        self.display = display
        self.rep = rep
        self.orbit = orbit
        self.aut = aut
        self.stab_order = stab_order   # generic automorphisms m of the tree
        self.tree = tree
        self.blown_edges = blown_edges
        self.degree = degree
        self.fiber_count = fiber_count
        self.pushforward_target = pushforward_target
        self.pushforward_coeff = pushforward_coeff
        self.checks: dict[str, tuple] = {}


class SpaceDescriptor:
    """A loaded space: its group, its preset classes and the graded basis
    of the 6-marked ring it lives in."""

    def __init__(self, tag: str, group: PermGroup, n: int,
                 a_marks: frozenset[int], unordered_classes: bool,
                 boundary: dict[str, StratumEntry],
                 class_of: dict[Monomial, str],
                 strata: dict[str, StratumEntry], lambda_name: str,
                 lambda_coeffs: dict[str, Fraction], gb: GradedBasis):
        self.tag = tag
        self.group = group
        self.n = n
        self.a_marks = a_marks
        self.unordered_classes = unordered_classes
        # degree of the forgetful map to the base: |S_n| / |G|
        self.fundamental_pushforward = Fraction(factorial(n), group.order)
        self.boundary = boundary
        self.class_of = class_of  # each orbit monomial upstairs -> its class
        self.strata = strata
        self.lambda_name = lambda_name
        self.lambda_coeffs = lambda_coeffs
        self.gb = gb
        # Named classes and products of sorted names built so far.  A space
        # is never changed after loading, and the space cache is keyed by
        # its preset files.
        self._classes: dict[str, NamedClass] = {}
        self._products: dict[tuple[str, ...], RingElement] = {}

    # -- class dictionary ---------------------------------------------------

    def names(self) -> list[str]:
        return list(self.boundary) + list(self.strata) + [self.lambda_name]

    def _entry(self, name: str) -> StratumEntry | None:
        return self.boundary.get(name) or self.strata.get(name)

    def aut_number(self, name: str) -> int:
        e = self._entry(name)
        if e is None:
            raise KeyError(f"no automorphism number for {name!r}")
        return e.aut

    def cover_degree(self, name: str) -> Fraction:
        """The degree |G|/(|orbit| m) with which each monomial of the class's
        orbit maps onto the class: |G|/|orbit| is the order of the
        monomial's stabilizer in G, and m of those permutations are generic
        automorphisms of the stratum, which fix it pointwise."""
        e = self._entry(name)
        if e is None:
            raise KeyError(f"no cover degree for {name!r}")
        return Fraction(self.group.order, len(e.orbit) * e.stab_order)

    def named_class(self, name: str) -> NamedClass:
        """The invariant ring element representing a named class.

        A divisor or stratum class (always meant in the stack-weighted
        normalization) is represented by m/(n 2^(k-1)) times the sum of the
        monomials in its orbit, where m is the generic automorphism count of
        the stratum upstairs, n the automorphism number downstairs and k the
        codimension.  The 2^(k-1) accounts for the square-root structure's
        extra inessential symmetries over k-nodal curves; it is the unique
        scaling under which transverse intersections of these classes
        multiply with multiplicity one, and it is validated entry by entry
        against the reference intersection tables."""
        cached = self._classes.get(name)
        if cached is None:
            cached = self._classes[name] = self._build_class(name)
        return cached

    def _build_class(self, name: str) -> NamedClass:
        if name == self.lambda_name:
            return NamedClass(self.evaluate(
                {(b,): c for b, c in self.lambda_coeffs.items()}))
        e = self._entry(name)
        if e is None:
            raise KeyError(f"unknown class name {name!r} on {self.tag}")
        k = len(e.rep)
        mult = Fraction(e.stab_order, e.aut * 2 ** (k - 1))
        return NamedClass(self.gb.element(k, dict.fromkeys(e.orbit, mult)))

    def evaluate(self, terms: dict[tuple[str, ...], Fraction]) -> RingElement:
        """The reduced sum of c times the product of the named classes, over
        the terms (names, c); the empty tuple of names is the unit.

        Empty terms give the zero element of degree 0.  Terms of different
        degrees raise ValueError; an unknown name raises KeyError."""
        products = [(self._product(tuple(sorted(names))), c)
                    for names, c in terms.items()]
        degrees = {prod.degree for prod, _ in products}
        if len(degrees) > 1:
            raise ValueError(f"inhomogeneous combination: degrees "
                             f"{sorted(degrees)}")
        return self.gb.combine(degrees.pop() if degrees else 0, products)

    def _product(self, names: tuple[str, ...]) -> RingElement:
        """The product of the classes of the sorted names, kept as the kept
        product of all but the last name times the class of the last."""
        if len(names) < 2:
            return (self.named_class(names[0]).value if names
                    else self.gb.element(0, {(): 1}))
        prod = self._products.get(names)
        if prod is None:
            prod = self._products[names] = self.gb.multiply(
                self._product(names[:-1]), self.named_class(names[-1]).value)
        return prod


def pullback_tables(boundary: dict[str, StratumEntry],
                    base: dict[str, StratumEntry]) -> dict[str, dict[str, Fraction]]:
    """The pullback of each base boundary class b as {W: c_W}, over the
    boundary classes W whose divisor orbit lies inside b's.

    Both sides are scaled orbit sums upstairs (see ``named_class``), and the
    orbits inside b's partition it, so c_W = (m_b n_W) / (n_b m_W)."""
    return {b.name: {w.name: Fraction(b.stab_order * w.aut,
                                      b.aut * w.stab_order)
                     for w in boundary.values() if w.orbit <= b.orbit}
            for b in base.values()}


# -- loading and audits -------------------------------------------------------

# Every space is a quotient of the 6-marked rational curve space.
MARKS = 6

# Keyed by the resolved preset files of the space and of the base, whose
# boundary classes give the Hodge class, so that a space loaded from one
# preset directory is never returned for another, whatever the working
# directory, and a directory without the files shares the packaged space.
_SPACE_CACHE: dict[tuple[str, str], SpaceDescriptor] = {}


def load_space(tag: str) -> SpaceDescriptor:
    if tag not in SPACE_TAGS:
        raise ValueError(f"unknown space tag {tag!r}")
    path = _preset_path(f"space_{tag}.json")
    key = (path, _preset_path("space_M2.json"))
    cached = _SPACE_CACHE.get(key)
    if cached is not None:
        return cached
    n = MARKS
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    group = standard_group(data["group"], n)
    gb = build_graded_basis(n)
    a_marks = frozenset(data["a_marks"])
    unordered = bool(data["unordered_classes"])
    blown_names = set(data["blown_boundary"])
    # Orbits are taken on divisor ranks: a monomial is a sorted tuple of
    # ranks, which each generator renames through the kernel's table.
    divisors = gb.divisors
    # The divisors come first, so each divisor upstairs has its class in
    # class_of before any stratum reads which of its edges are blown up.
    boundary: dict[str, StratumEntry] = {}
    strata: dict[str, StratumEntry] = {}
    class_of: dict[Monomial, str] = {}
    n_divisors = len(data["boundary"])
    for i, item in enumerate(data["boundary"] + data["strata"]):
        divisor = i < n_divisors
        name = item["name"]
        ranks = tuple(sorted(gb.rank[canonicalize(set(s), n)]
                             for s in item["rep"]))
        rep = tuple(divisors[r] for r in ranks)
        orbit = frozenset(tuple(divisors[r] for r in m)
                          for m in group.orbit(ranks, gb.relabel_ranks))
        for m in orbit:
            if m in class_of:
                raise RegistryError(f"{tag}: orbits of {class_of[m]} and "
                                    f"{name} share the monomial {m}")
            class_of[m] = name
        tree = tree_from_monomial(rep, n, a_marks)
        push = item.get("pushforward")
        entry = StratumEntry(
            name=name, display=item["display"], rep=rep, orbit=orbit,
            aut=int(item["aut"]),
            stab_order=count_marked_automorphisms(tree, unordered), tree=tree,
            # a divisor missing from every orbit fails the coverage audit
            blown_edges=frozenset(k for k, d in enumerate(rep)
                                  if class_of.get((d,)) in blown_names),
            degree=int(item["degree"]) if divisor else None,
            fiber_count=int(item["fiber_count"]) if divisor else None,
            pushforward_target=push[0] if push else None,
            pushforward_coeff=Fraction(push[1]) if push else None)
        (boundary if divisor else strata)[name] = entry

    base = None if tag == "M2" else load_space("M2")
    pulled = pullback_tables(boundary, base.boundary if base else boundary)
    space = SpaceDescriptor(
        tag=tag, group=group, n=n, a_marks=a_marks,
        unordered_classes=unordered,
        boundary=boundary, class_of=class_of, strata=strata,
        lambda_name=data["lambda_class"]["name"],
        lambda_coeffs={w: share * c for b, share in MUMFORD_LAMBDA.items()
                       for w, c in pulled[b].items()},
        gb=gb)
    _audit(space, base or space)
    _SPACE_CACHE[key] = space
    return space


def _audit(space: SpaceDescriptor, base: SpaceDescriptor):
    """Checks that the boundary orbits cover every divisor and that each
    stratum's tree forgets to its pushforward target's; that no two entries
    share a monomial is checked by the loader as it fills ``class_of``.
    Each entry's ``checks`` maps what is recomputed to (computed, table
    value): the automorphism number, for a divisor the ``cover_degree`` and
    the fiber count, for a stratum with a target the pushforward
    coefficient.  Any pair that differs raises."""
    tag, swap = space.tag, space.unordered_classes
    missing = [d for d in space.gb.divisors if (d,) not in space.class_of]
    if missing:
        raise RegistryError(f"{tag}: boundary orbits do not cover all "
                            f"divisors; missing {sorted(map(str, missing))}")
    for e in list(space.boundary.values()) + list(space.strata.values()):
        stratum = (e.tree, e.blown_edges, swap)
        e.checks = {"automorphism number": (prym_aut_number(*stratum), e.aut)}
        if e.degree is not None:
            e.checks["degree"] = (space.cover_degree(e.name), e.degree)
            e.checks["fiber count"] = (fiber_count(e.tree, swap),
                                       e.fiber_count)
        if e.pushforward_target is not None:
            target = base.strata[e.pushforward_target]
            plain_src = MarkedTree(
                tuple((a + b, 0) for a, b in e.tree.marks), e.tree.edges)
            if not trees_isomorphic(plain_src, target.tree):
                raise RegistryError(f"{tag}/{e.name}: underlying tree does "
                                    f"not match {e.pushforward_target}")
            e.checks["pushforward coefficient"] = (
                stratum_pushforward_coeff(*stratum, target.aut),
                e.pushforward_coeff)
        for what, (computed, table) in e.checks.items():
            if computed != table:
                raise RegistryError(f"{tag}/{e.name}: computed {what} "
                                    f"{computed}, table says {table}")
