"""Named quotient spaces and their class dictionaries.

Each space (the base of genus-2 curves, the square-root covers of it with a
nontrivial 2-torsion bundle, and the two theta-characteristic components)
is a quotient of the 6-marked rational curve space by a mark-permutation
group.  The preset file of a space lists its boundary divisors and closed
strata by orbit representatives, together with the reference values every
entry must reproduce: mapping degree, automorphism number of the generic
object, fiber count over the base stratum, and pushforward coefficient.

Loading a space recomputes all of these from the dual-tree combinatorics
and fails loudly on any mismatch, so a transcription error in the presets
cannot survive."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .exact_linear import Rational
from .keel_ring import (BoundaryIndex, GradedBasis, Monomial, RingElement,
                        all_divisors, build_graded_basis, canonicalize,
                        monomial)
from .strata_aut import (MarkedTree, StratumDescriptor,
                         count_marked_automorphisms, fiber_count,
                         prym_aut_number, trees_isomorphic)
from .symmetry import PermGroup, apply_to_divisor, apply_to_monomial, standard_group

SPACE_TAGS = ("R2", "S2plus", "S2minus", "M2")


class RegistryError(ValueError):
    """A preset entry failed its consistency audit."""


def _preset_path(name: str) -> str:
    override = os.environ.get("MODULI_PRESETS")
    if override:
        candidate = os.path.join(override, name)
        if os.path.exists(candidate):
            return candidate
    return str(resources.files("prymspin").joinpath("presets").joinpath(name))


def load_preset_json(name: str) -> dict:
    with open(_preset_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def tree_from_monomial(factors: Monomial, n: int, a_marks: frozenset[int]):
    """Dual tree of the stratum cut out by pairwise compatible splits.

    Returns (MarkedTree, edge divisor list): edge k of the tree separates
    the marks exactly as the k-th returned divisor does.  Components are
    found by repeatedly splitting the vertex whose incident subtrees all
    sit on one side of the new split."""
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
            raise RegistryError(f"split {sorted(s)} does not refine the tree")
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
    tree = MarkedTree(mark_counts,
                      tuple((e[0], e[1]) for e in edges))
    divisors = list(factors)
    return tree, divisors


@dataclass
class NamedClass:
    """A named cycle class of a space, living in the invariant subring."""
    space: str
    name: str
    value: RingElement
    aut: int | None = None       # automorphism number (None for lambda)
    cite: str = ""


@dataclass
class BoundaryEntry:
    name: str
    display: str
    rep: BoundaryIndex
    orbit: frozenset[BoundaryIndex]
    degree: int
    aut: int
    fiber_count: int
    stab_order: int              # generic automorphisms m of the tree
    blown: bool
    cite: str


@dataclass
class StratumEntry:
    name: str
    display: str
    rep: Monomial
    orbit: frozenset[Monomial]
    aut: int
    stab_order: int
    tree: MarkedTree
    blown_edges: frozenset[int]
    pushforward_target: str | None
    pushforward_coeff: Fraction | None
    cite: str


@dataclass
class SpaceDescriptor:
    tag: str
    group: PermGroup
    n: int
    a_marks: frozenset[int]
    unordered_classes: bool
    aut_generic: int
    fundamental_pushforward: Fraction
    boundary: dict[str, BoundaryEntry]
    strata: dict[str, StratumEntry]
    lambda_name: str
    lambda_coeffs: dict[str, Fraction]
    gb: GradedBasis = field(repr=False)
    pullback_delta0: dict[str, Fraction] | None = None
    pullback_delta1: dict[str, Fraction] | None = None

    # -- class dictionary ---------------------------------------------------

    def names(self) -> list[str]:
        return list(self.boundary) + list(self.strata) + [self.lambda_name]

    def aut_number(self, name: str) -> int:
        if name in self.boundary:
            return self.boundary[name].aut
        if name in self.strata:
            return self.strata[name].aut
        if name == "point":
            return self.aut_generic
        raise KeyError(f"no automorphism number for {name!r}")

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
        if name in self.boundary:
            e = self.boundary[name]
            coeffs = {(d,): Fraction(e.stab_order, e.aut) for d in e.orbit}
            value = self.gb.reduce(RingElement(self.n, 1, coeffs))
            return NamedClass(self.tag, name, value, e.aut, e.cite)
        if name in self.strata:
            e = self.strata[name]
            deg = len(e.rep)
            mult = Fraction(e.stab_order, e.aut * 2 ** (deg - 1))
            coeffs = {m: mult for m in e.orbit}
            value = self.gb.reduce(RingElement(self.n, deg, coeffs))
            return NamedClass(self.tag, name, value, e.aut, e.cite)
        if name == self.lambda_name:
            acc = RingElement.zero(self.n, 1)
            for bname, c in self.lambda_coeffs.items():
                acc = acc + self.named_class(bname).value.scale(c)
            return NamedClass(self.tag, name, self.gb.reduce(acc))
        raise KeyError(f"unknown class name {name!r} on {self.tag}")

    def qclass_convert(self, name: str) -> int:
        """Scaling factor n with plain class = n x stack-weighted class."""
        return self.aut_number(name)

    def class_names_of_degree(self, d: int) -> list[str]:
        out = []
        if d == 1:
            out.extend(self.boundary)
        for name, e in self.strata.items():
            if len(e.rep) == d:
                out.append(name)
        return out


def pullback_delta(space: "SpaceDescriptor") -> tuple[RingElement, RingElement]:
    """The pullbacks of the two base boundary classes, as invariant ring
    elements (the base space itself is refused)."""
    if space.pullback_delta0 is None:
        raise ValueError("the base space has no forgetful pullback")
    out = []
    for table in (space.pullback_delta0, space.pullback_delta1):
        acc = RingElement.zero(space.n, 1)
        for name, c in table.items():
            acc = acc + space.named_class(name).value.scale(c)
        out.append(space.gb.reduce(acc))
    return out[0], out[1]


# -- loading and audits -------------------------------------------------------

# Every space is a quotient of the 6-marked rational curve space.
MARKS = 6

_SPACE_CACHE: dict[str, SpaceDescriptor] = {}


def load_space(tag: str) -> SpaceDescriptor:
    if tag not in SPACE_TAGS:
        raise ValueError(f"unknown space tag {tag!r}")
    if tag in _SPACE_CACHE:
        return _SPACE_CACHE[tag]
    n = MARKS
    data = load_preset_json(f"space_{tag}.json")
    group = standard_group(data["group"], n)
    gb = build_graded_basis(n)
    a_marks = frozenset(data["a_marks"])
    unordered = bool(data["unordered_classes"])
    blown_names = set(data["blown_boundary"])

    boundary: dict[str, BoundaryEntry] = {}
    divisor_to_name: dict[BoundaryIndex, str] = {}
    for item in data["boundary"]:
        rep = canonicalize(set(item["rep"][0]), n)
        orbit = frozenset(group.orbit(rep, apply_to_divisor))
        tree, _ = tree_from_monomial((rep,), n, a_marks)
        m = count_marked_automorphisms(tree, unordered)
        entry = BoundaryEntry(
            name=item["name"], display=item["display"], rep=rep,
            orbit=orbit, degree=int(item["degree"]), aut=int(item["aut"]),
            fiber_count=int(item["fiber_count"]), stab_order=m,
            blown=item["name"] in blown_names, cite=item.get("cite", ""))
        boundary[entry.name] = entry
        for d in orbit:
            if d in divisor_to_name:
                raise RegistryError(
                    f"{tag}: divisor orbits of {divisor_to_name[d]} and "
                    f"{entry.name} overlap")
            divisor_to_name[d] = entry.name
    _audit_boundary(tag, group, boundary, divisor_to_name, n, unordered)

    strata: dict[str, StratumEntry] = {}
    for item in data["strata"]:
        rep = monomial(*(canonicalize(set(s), n) for s in item["rep"]))
        orbit = frozenset(group.orbit(rep, apply_to_monomial))
        tree, edge_divs = tree_from_monomial(rep, n, a_marks)
        blown_edges = frozenset(
            k for k, d in enumerate(edge_divs)
            if divisor_to_name[d] in blown_names)
        m = count_marked_automorphisms(tree, unordered)
        push = item.get("pushforward")
        entry = StratumEntry(
            name=item["name"], display=item["display"], rep=rep, orbit=orbit,
            aut=int(item["aut"]), stab_order=m, tree=tree,
            blown_edges=blown_edges,
            pushforward_target=push[0] if push else None,
            pushforward_coeff=Fraction(push[1]) if push else None,
            cite=item.get("cite", ""))
        strata[entry.name] = entry

    space = SpaceDescriptor(
        tag=tag, group=group, n=n, a_marks=a_marks,
        unordered_classes=unordered, aut_generic=int(data["aut_generic"]),
        fundamental_pushforward=Fraction(data["fundamental_pushforward"]),
        boundary=boundary, strata=strata,
        lambda_name=data["lambda_class"]["name"],
        lambda_coeffs={k: Fraction(v)
                       for k, v in data["lambda_class"]["coeffs"].items()},
        gb=gb,
        pullback_delta0=({k: Fraction(v) for k, v in data["pullback_delta0"].items()}
                         if data.get("pullback_delta0") else None),
        pullback_delta1=({k: Fraction(v) for k, v in data["pullback_delta1"].items()}
                         if data.get("pullback_delta1") else None))
    _audit_strata(space)
    if Fraction(720, group.order) != space.fundamental_pushforward:
        raise RegistryError(f"{tag}: forgetful degree mismatch")
    _SPACE_CACHE[tag] = space
    return space


def _audit_boundary(tag, group, boundary, divisor_to_name, n, unordered):
    covered = set(divisor_to_name)
    expected = set(all_divisors(n))
    if covered != expected:
        missing = sorted(str(d) for d in expected - covered)
        raise RegistryError(f"{tag}: boundary orbits do not cover all "
                            f"divisors; missing {missing}")
    for e in boundary.values():
        if len(e.orbit) * e.degree * e.stab_order != group.order:
            raise RegistryError(
                f"{tag}/{e.name}: orbit({len(e.orbit)}) x degree({e.degree}) "
                f"x aut_upstairs({e.stab_order}) != group order {group.order}")


def _audit_strata(space: SpaceDescriptor):
    tag = space.tag
    base = space if tag == "M2" else load_space("M2")
    seen: dict[Monomial, str] = {}
    for e in space.strata.values():
        for m in e.orbit:
            if m in seen:
                raise RegistryError(f"{tag}: strata {seen[m]} and {e.name} "
                                    f"share the monomial {m}")
            seen[m] = e.name
        desc = StratumDescriptor(e.tree, e.blown_edges, space.unordered_classes)
        n_computed = prym_aut_number(desc)
        if n_computed != e.aut:
            raise RegistryError(f"{tag}/{e.name}: computed automorphism "
                                f"number {n_computed}, table says {e.aut}")
        if e.pushforward_target is not None:
            target = base.strata[e.pushforward_target]
            plain_src = MarkedTree(
                tuple((a + b, 0) for a, b in e.tree.marks), e.tree.edges)
            if not trees_isomorphic(plain_src, target.tree):
                raise RegistryError(f"{tag}/{e.name}: underlying tree does "
                                    f"not match {e.pushforward_target}")
            m_count = fiber_count(e.tree, space.unordered_classes)
            coeff = Fraction(m_count * target.aut, e.aut)
            if coeff != e.pushforward_coeff:
                raise RegistryError(
                    f"{tag}/{e.name}: computed pushforward coefficient "
                    f"{coeff}, table says {e.pushforward_coeff}")
    for e in space.boundary.values():
        tree, _ = tree_from_monomial((e.rep,), space.n, space.a_marks)
        m_count = fiber_count(tree, space.unordered_classes)
        if m_count != e.fiber_count:
            raise RegistryError(f"{tag}/{e.name}: computed fiber count "
                                f"{m_count}, table says {e.fiber_count}")
        desc = StratumDescriptor(
            tree, frozenset([0]) if e.blown else frozenset(),
            space.unordered_classes)
        n_computed = prym_aut_number(desc)
        if n_computed != e.aut:
            raise RegistryError(f"{tag}/{e.name}: computed automorphism "
                                f"number {n_computed}, table says {e.aut}")
