"""Dual trees of stable pointed rational curves, generic automorphism
counting, the dual graph of the associated double cover, and the
automorphism numbers of the corresponding square-root structures.

A stratum of one of the quotient spaces is recorded as a marked tree (mark
counts per component, split into two classes) together with the set of
edges at which the stable model is blown up.  Everything a registry table
needs — generic automorphism count m, structure automorphism number n,
fiber counts over the base space — is computed from this data.

One enumerator answers every question about a tree: ``_tree_maps`` yields
the component bijections (with or without exchanging the two classes) that
carry one tree onto another.  Isomorphism is the existence of such a map;
the explicit generic automorphism group of ``marked_tree_automorphism_group``
is built from the maps of a tree onto itself, and the count m, the
extremity kernel behind n and the orbits behind the fiber counts are all
read off that group.

Counting contract: automorphisms are counted at a *generic* point of the
stratum.  Whole components can be exchanged only when they carry at most 3
special points (more special points means moduli, which generic points do
not share); a component fixed by the symmetry admits any permutation of at
most 3 special points, only the identity and the three double
transpositions of exactly 4, and only the identity of 5 or more.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MarkedTree:
    """Tree of components with per-component counts of A- and B-marks.

    ``marks[c] = (a, b)``; ``edges[k] = (c, d)`` joins components c and d.
    Marks are unlabeled within their class.
    """
    marks: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.marks)
        adj = {i: set() for i in range(n)}
        for c, d in self.edges:
            adj[c].add(d)
            adj[d].add(c)
        # connected and acyclic
        if len(self.edges) != n - 1:
            raise ValueError("not a tree")
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) != n:
            raise ValueError("not connected")
        for c in range(n):
            if self.special_count(c) < 3:
                raise ValueError(f"component {c} unstable")

    def degree(self, c: int) -> int:
        return sum(1 for e in self.edges if c in e)

    def special_count(self, c: int) -> int:
        a, b = self.marks[c]
        return a + b + self.degree(c)

    def total_marks(self) -> tuple[int, int]:
        return (sum(a for a, _ in self.marks), sum(b for _, b in self.marks))

    def incident_edges(self, c: int) -> list[int]:
        return [k for k, e in enumerate(self.edges) if c in e]

    def is_extremity(self, c: int) -> bool:
        a, b = self.marks[c]
        return self.degree(c) == 1 and a + b == 2

    def far_side_marks(self, edge_index: int, from_comp: int) -> tuple[int, int]:
        """Mark counts on the far side of an edge, seen from one endpoint."""
        c, d = self.edges[edge_index]
        far = d if from_comp == c else c
        reach = {far}
        frontier = [far]
        while frontier:
            nxt = []
            for v in frontier:
                for k, (x, y) in enumerate(self.edges):
                    if k == edge_index:
                        continue
                    for w in ((y,) if x == v else (x,) if y == v else ()):
                        if w not in reach:
                            reach.add(w)
                            nxt.append(w)
            frontier = nxt
        a = sum(self.marks[v][0] for v in reach)
        b = sum(self.marks[v][1] for v in reach)
        return a, b


def parse_tree(text: str) -> MarkedTree:
    """Parse the tree grammar: components are parenthesized groups of mark
    tokens A, B and edge references, e.g. "(A A -1)(B B B B -1)".  Each edge
    id must occur in exactly two components."""
    comps = re.findall(r"\(([^()]*)\)", text)
    if not comps:
        raise ValueError(f"no components in tree grammar: {text!r}")
    marks = []
    edge_ends: dict[int, list[int]] = {}
    for ci, body in enumerate(comps):
        a = b = 0
        for tok in body.split():
            if tok == "A":
                a += 1
            elif tok == "B":
                b += 1
            elif tok.startswith("-") and tok[1:].isdigit():
                edge_ends.setdefault(int(tok[1:]), []).append(ci)
            else:
                raise ValueError(f"bad token {tok!r} in tree grammar")
        marks.append((a, b))
    edges = []
    for eid in sorted(edge_ends):
        ends = edge_ends[eid]
        if len(ends) != 2:
            raise ValueError(f"edge -{eid} must appear exactly twice")
        edges.append(tuple(ends))
    return MarkedTree(tuple(marks), tuple(edges))


# -- generic automorphisms ---------------------------------------------------

def _tree_maps(src: MarkedTree, dst: MarkedTree, allow_set_swap: bool):
    """The (component bijection, class swap) pairs carrying the mark counts
    of src and then its edges onto those of dst: comp_perm[c] is the image
    of component c, and a swap exchanges the two classes."""
    n = len(src.marks)
    if n != len(dst.marks):
        return
    edge_set = {frozenset(e) for e in dst.edges}
    wants = {False: list(src.marks)}
    if allow_set_swap:
        wants[True] = [m[::-1] for m in src.marks]
    for perm in itertools.permutations(range(n)):
        images = [dst.marks[p] for p in perm]
        for swap, want in wants.items():
            if images == want and all(frozenset((perm[c], perm[d])) in edge_set
                                      for c, d in src.edges):
                yield perm, swap


def _is_identity_or_double_transposition(images: dict[int, int], size: int) -> bool:
    if all(images[i] == i for i in range(size)):
        return True
    moved = [i for i in range(size) if images[i] != i]
    if len(moved) != 4:
        return False
    return all(images[images[i]] == i for i in moved)


def count_marked_automorphisms(tree: MarkedTree, allow_set_swap: bool = False) -> int:
    """Number of automorphisms of a generic curve of the stratum that
    preserve the pair of mark classes (optionally allowing the two classes
    to be exchanged, for spaces whose partition is unordered): the size of
    the explicit group of ``marked_tree_automorphism_group``."""
    return len(marked_tree_automorphism_group(tree, allow_set_swap))


def extremity_kernel(tree: MarkedTree, allow_set_swap: bool = False):
    """The automorphisms that keep every component and move only marks
    sitting on extremities: the kernel of the action on the contracted mark
    data.  Every leaf carries marks, and a tree map fixing the leaves is the
    identity, so keeping each mark on its component keeps every component."""
    ends = {c for c in range(len(tree.marks)) if tree.is_extremity(c)}
    return [(swap, f) for swap, f in
            marked_tree_automorphism_group(tree, allow_set_swap)
            if all(s == t or (s[0] == t[0] and s[0] in ends)
                   for s, t in f.items())]


# -- double covers -----------------------------------------------------------

@dataclass
class CoverVertex:
    comp: int
    sheet: int | None          # None for a connected (branched) cover
    genus: int
    exceptional: bool


@dataclass
class CoverGraph:
    """Dual graph of the double cover of a marked tree, branched at the
    marks: vertices are cover components with their genus, edges are the
    nodes of the cover; components over extremities are exceptional."""
    vertices: list[CoverVertex]
    edges: list[tuple[int, int, int]]   # (vertex, vertex, tree edge id)

    def total_genus(self) -> int:
        comps = _component_count(len(self.vertices),
                                 [(a, b) for a, b, _ in self.edges])
        cycles = len(self.edges) - len(self.vertices) + comps
        return sum(v.genus for v in self.vertices) + cycles


def _component_count(nverts: int, edges) -> int:
    parent = list(range(nverts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(nverts)})


def double_cover_graph(tree: MarkedTree) -> CoverGraph:
    """The admissible double cover of a generic curve of the stratum,
    branched exactly at the marks: per component, the branch points are its
    marks plus the incident nodes whose far side carries an odd number of
    marks; zero branch points split the cover into two sheets, otherwise
    the cover is connected of genus (branch count)/2 - 1."""
    total_a, total_b = tree.total_marks()
    if (total_a + total_b) % 2 != 0:
        raise ValueError("double cover needs an even number of marks")
    ncomp = len(tree.marks)
    edge_branched = []
    for k, (c, _) in enumerate(tree.edges):
        fa, fb = tree.far_side_marks(k, c)
        edge_branched.append((fa + fb) % 2 == 1)
    branch = []
    for c in range(ncomp):
        a, b = tree.marks[c]
        cnt = a + b + sum(1 for k in tree.incident_edges(c) if edge_branched[k])
        branch.append(cnt)

    vertices: list[CoverVertex] = []
    vmap: dict[tuple[int, int | None], int] = {}
    for c in range(ncomp):
        if branch[c] == 0:
            for sheet in (0, 1):
                vmap[(c, sheet)] = len(vertices)
                vertices.append(CoverVertex(c, sheet, 0, tree.is_extremity(c)))
        else:
            if branch[c] % 2 != 0:
                raise ValueError(f"odd branch count on component {c}")
            vmap[(c, None)] = len(vertices)
            vertices.append(CoverVertex(c, None, branch[c] // 2 - 1,
                                        tree.is_extremity(c)))

    def verts_of(c):
        if (c, None) in vmap:
            return [vmap[(c, None)]]
        return [vmap[(c, 0)], vmap[(c, 1)]]

    edges: list[tuple[int, int, int]] = []
    for k, (c, d) in enumerate(tree.edges):
        vc, vd = verts_of(c), verts_of(d)
        if edge_branched[k]:
            if len(vc) != 1 or len(vd) != 1:
                raise ValueError("branched node on a split cover component")
            edges.append((vc[0], vd[0], k))
        else:
            if len(vc) == 1 and len(vd) == 1:
                edges.append((vc[0], vd[0], k))
                edges.append((vc[0], vd[0], k))
            elif len(vc) == 2 and len(vd) == 1:
                edges.append((vc[0], vd[0], k))
                edges.append((vc[1], vd[0], k))
            elif len(vc) == 1 and len(vd) == 2:
                edges.append((vc[0], vd[0], k))
                edges.append((vc[0], vd[1], k))
            else:
                edges.append((vc[0], vd[0], k))
                edges.append((vc[1], vd[1], k))
    return CoverGraph(vertices, edges)


@dataclass(frozen=True)
class StratumDescriptor:
    """A stratum: its marked tree, the tree edges whose node on the stable
    model is blown up in the square-root structure, and whether the two
    mark classes are interchangeable on the ambient space."""
    tree: MarkedTree
    blown_edges: frozenset[int] = frozenset()
    allow_set_swap: bool = False


def _stable_model_graph(cover: CoverGraph):
    """Contract exceptional cover vertices: each has exactly two incident
    cover edges over the same tree edge, which merge into one node of the
    stable model.  Returns (vertex ids kept, list of (v, w, tree edge id))."""
    keep = [i for i, v in enumerate(cover.vertices) if not v.exceptional]
    node_edges = []
    consumed = set()
    for i, v in enumerate(cover.vertices):
        if not v.exceptional:
            continue
        inc = [j for j, e in enumerate(cover.edges) if i in (e[0], e[1])]
        if len(inc) != 2:
            raise ValueError("exceptional cover component must meet 2 nodes")
        (a1, b1, k1), (a2, b2, k2) = cover.edges[inc[0]], cover.edges[inc[1]]
        if k1 != k2:
            raise ValueError("exceptional component over two distinct edges")
        w1 = a1 if b1 == i else b1
        w2 = a2 if b2 == i else b2
        node_edges.append((w1, w2, k1))
        consumed.update(inc)
    for j, (a, b, k) in enumerate(cover.edges):
        if j in consumed:
            continue
        if cover.vertices[a].exceptional or cover.vertices[b].exceptional:
            continue
        node_edges.append((a, b, k))
    return keep, node_edges


def nonexceptional_component_count(desc: StratumDescriptor) -> int:
    """Connected components of the square-root support after removing its
    exceptional components: contract exceptional cover vertices, then delete
    the nodes that are blown up."""
    cover = double_cover_graph(desc.tree)
    keep, node_edges = _stable_model_graph(cover)
    index = {v: i for i, v in enumerate(keep)}
    kept_edges = [(index[a], index[b]) for a, b, k in node_edges
                  if k not in desc.blown_edges]
    return _component_count(len(keep), kept_edges)


@functools.lru_cache(maxsize=None)
def prym_aut_number(desc: StratumDescriptor) -> int:
    """Automorphism number of the square-root structure carried by a
    generic curve of the stratum: n = 2^(s-r) * i * h, with s components,
    r extremities, i = 2^(u-1) counting inessential automorphisms via the
    u components of the non-exceptional subcurve, and h = m / |K| the
    automorphism count of the contracted mark data, K the extremity kernel:
    a subgroup of the m generic automorphisms, so |K| divides m.
    Descriptors are immutable, and each one is computed once."""
    tree = desc.tree
    m = count_marked_automorphisms(tree, desc.allow_set_swap)
    h = m // len(extremity_kernel(tree, desc.allow_set_swap))
    s = len(tree.marks)
    r = sum(1 for c in range(s) if tree.is_extremity(c))
    u = nonexceptional_component_count(desc)
    return 2 ** (s - r) * 2 ** (u - 1) * h


# -- explicit automorphisms and fiber counts ---------------------------------

def marked_tree_automorphism_group(tree: MarkedTree, allow_set_swap: bool = False):
    """Explicit generic automorphisms as slot permutations.

    Slots are (component, class, index) with class 'a' or 'b'; each
    automorphism is returned as a dict slot -> slot together with its swap
    flag.  This is the one enumerator: counts, the extremity kernel and
    fiber orbits all use it.  Each (tree, flag) is enumerated once; trees
    are immutable, and the tuple returned is shared by every caller, which
    must not change it.
    """
    return _automorphisms(tree, bool(allow_set_swap))


@functools.lru_cache(maxsize=None)
def _automorphisms(tree: MarkedTree, allow_set_swap: bool):
    out = []
    for comp_perm, swap in _tree_maps(tree, tree, allow_set_swap):
        per_comp = [_slot_bijections(tree, c, comp_perm, swap)
                    for c in range(len(tree.marks))]
        for combo in itertools.product(*per_comp):
            slot_map = {}
            for part in combo:
                slot_map.update(part)
            out.append((swap, slot_map))
    return tuple(out)


def _slot_bijections(tree: MarkedTree, c: int, comp_perm, swap: bool):
    """All realizable mark-slot bijections of component c onto its image."""
    a, b = tree.marks[c]
    target = comp_perm[c]
    src_a = [(c, "a", i) for i in range(a)]
    src_b = [(c, "b", i) for i in range(b)]
    ta, tb = tree.marks[target]
    tgt_a = [(target, "a", i) for i in range(ta)]
    tgt_b = [(target, "b", i) for i in range(tb)]
    if swap:
        tgt_a, tgt_b = tgt_b, tgt_a
    if target != c:
        if tree.special_count(c) > 3:
            return []
        out = []
        for pa in itertools.permutations(tgt_a):
            for pb in itertools.permutations(tgt_b):
                out.append(dict(zip(src_a + src_b, list(pa) + list(pb))))
        return out
    # component fixed: respect the 4-point / 5-point realizability rules;
    # comp_perm carries each incident edge onto an incident edge
    inc = tree.incident_edges(c)
    by_ends = {frozenset(tree.edges[k]): k for k in inc}
    edge_map = {k: by_ends[frozenset(comp_perm[x] for x in tree.edges[k])]
                for k in inc}
    k_special = a + b + len(inc)
    edge_fixed = all(edge_map[k] == k for k in inc)
    a_target, b_target = ("b", "a") if swap else ("a", "b")
    out = []
    for pa in itertools.permutations(range(len(tgt_a))):
        for pb in itertools.permutations(range(len(tgt_b))):
            if k_special <= 3:
                valid = True
            elif k_special >= 5:
                valid = (edge_fixed and not swap
                         and pa == tuple(range(a)) and pb == tuple(range(b)))
                if swap and a == 0 and b == 0:
                    valid = edge_fixed
            else:
                slots = [("e", k) for k in inc] + \
                        [("a", i) for i in range(a)] + [("b", i) for i in range(b)]
                pos = {s: i for i, s in enumerate(slots)}
                images = {}
                for k in inc:
                    images[pos[("e", k)]] = pos[("e", edge_map[k])]
                for i in range(a):
                    images[pos[("a", i)]] = pos[(a_target, pa[i])]
                for i in range(b):
                    images[pos[("b", i)]] = pos[(b_target, pb[i])]
                valid = _is_identity_or_double_transposition(images, len(slots))
            if valid:
                out.append(dict(zip(src_a + src_b,
                                    [tgt_a[i] for i in pa] + [tgt_b[i] for i in pb])))
    return out


def trees_isomorphic(t1: MarkedTree, t2: MarkedTree, allow_set_swap: bool = False) -> bool:
    """Isomorphism of marked trees as combinatorial types (no genericity
    constraints), optionally up to exchanging the two mark classes."""
    return any(_tree_maps(t1, t2, allow_set_swap))


def fiber_count(tree: MarkedTree, unordered_classes: bool = False) -> int:
    """Number of points with this partitioned type in the fiber of the
    class-forgetting map over a generic unpartitioned curve of the same
    topological type: assignments of the A-marks to the mark slots of the
    unpartitioned tree realizing the type, counted up to the generic
    automorphisms of the unpartitioned curve (and up to exchanging the two
    classes when the ambient partition is unordered).

    The enumerated automorphisms are the whole group, so the orbit of an
    assignment is its set of images."""
    total_a, _ = tree.total_marks()
    plain = MarkedTree(tuple((a + b, 0) for a, b in tree.marks), tree.edges)
    slots = [(c, "a", i) for c in range(len(plain.marks))
             for i in range(plain.marks[c][0])]
    all_slots = frozenset(slots)
    autos = marked_tree_automorphism_group(plain)

    def canonical(assignment):
        if unordered_classes:
            return min(assignment, all_slots - assignment, key=sorted)
        return assignment

    seen = set()
    # Many assignments give the same mark counts: one test per count vector.
    realizes: dict[tuple[tuple[int, int], ...], bool] = {}
    orbits = 0
    for combo in itertools.combinations(slots, total_a):
        chosen = frozenset(combo)
        if canonical(chosen) in seen:
            continue
        taken = [0] * len(plain.marks)
        for c, _, _ in chosen:
            taken[c] += 1
        counts = tuple((a, tot - a) for a, (tot, _) in zip(taken, plain.marks))
        if counts not in realizes:
            realizes[counts] = trees_isomorphic(
                MarkedTree(counts, tree.edges), tree,
                allow_set_swap=unordered_classes)
        if realizes[counts]:
            orbits += 1
            seen.update(canonical(frozenset(f[s] for s in chosen))
                        for _, f in autos)
    return orbits


def stratum_pushforward_coeff(desc: StratumDescriptor, image_aut: int) -> Fraction:
    """Coefficient of the image stratum class under the forgetful map:
    (number of structures over a general image point) x (automorphisms of
    the image object) / (automorphisms of the source object)."""
    m_count = fiber_count(desc.tree, desc.allow_set_swap)
    return Fraction(m_count * image_aut, prym_aut_number(desc))
