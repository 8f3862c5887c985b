"""Dual trees of stable pointed rational curves, generic automorphism
counting, the dual graph of the associated double cover, and the
automorphism numbers of the corresponding square-root structures.

A stratum of one of the quotient spaces is given by three plain values: a
marked tree (mark counts per component, split into two classes), the
frozenset of edges at which the stable model is blown up, and whether the
two mark classes may be exchanged.  Every number a registry table needs —
generic automorphism count m, structure automorphism number n, fiber counts
and pushforward coefficients over the base space — is a function of these
values, passed as positional arguments; n is kept per stratum.

One enumerator answers every question about a tree: ``_tree_maps`` yields
the component bijections (with or without exchanging the two classes) that
carry one tree onto another.  Isomorphism is the existence of such a map;
the explicit generic automorphism group of ``marked_tree_automorphism_group``
is built from the maps of a tree onto itself, and the count m, the
extremity kernel behind n and the orbits behind the fiber counts are all
read off that group.

One slot order: ``mark_slots`` numbers the marks component by component,
A-slots before B-slots, and an automorphism is a class swap flag with the
tuple of slot images.  One genericity rule, ``_realizable``, decides which
maps of a component's special points a generic curve carries: any map of at
most 3 points; with more points the component has moduli, so it must stay
where it is, and then only the identity and the three double transpositions
of exactly 4 points, and only the identity of 5 or more, are realizable.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction


class MarkedTree:
    """Tree of components with per-component counts of A- and B-marks.

    ``marks[c] = (a, b)``; ``edges[k] = (c, d)`` joins components c and d.
    Marks are unlabeled within their class.  Trees are immutable values,
    equal and hashed as the tuple (marks, edges).
    """
    __slots__ = ("marks", "edges")

    def __init__(self, marks: tuple[tuple[int, int], ...],
                 edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "edges", edges)
        n = len(marks)
        # connected with n - 1 edges, so acyclic
        if len(edges) != n - 1:
            raise ValueError("not a tree")
        if len(set(_components(n, edges))) != 1:
            raise ValueError("not connected")
        # degrees counted in one pass: a long chain stays linear
        degree = [0] * n
        for c, d in edges:
            degree[c] += 1
            degree[d] += 1
        for c, (a, b) in enumerate(marks):
            if a + b + degree[c] < 3:
                raise ValueError(f"component {c} unstable")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not MarkedTree:
            return NotImplemented
        return self.marks == other.marks and self.edges == other.edges

    def __hash__(self):
        return hash((self.marks, self.edges))

    def __repr__(self):
        return f"MarkedTree(marks={self.marks!r}, edges={self.edges!r})"

    def degree(self, c: int) -> int:
        return sum(1 for e in self.edges if c in e)

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
        root = _components(len(self.marks), [e for k, e in enumerate(self.edges)
                                             if k != edge_index])
        side = [m for v, m in enumerate(self.marks) if root[v] == root[far]]
        return sum(a for a, _ in side), sum(b for _, b in side)


def parse_tree(text: str) -> MarkedTree:
    """Parse the tree grammar: components are parenthesized groups of mark
    tokens A, B and edge references, e.g. "(A A -1)(B B B B -1)", with only
    whitespace between the groups.  Each edge id must occur in exactly two
    components."""
    parts = re.split(r"\(([^()]*)\)", text)
    comps = parts[1::2]         # the group bodies; the rest lies around them
    if not comps:
        raise ValueError(f"no components in tree grammar: {text!r}")
    stray = " ".join(" ".join(parts[::2]).split())
    if stray:
        raise ValueError(f"stray text {stray!r} outside the groups of "
                         "tree grammar")
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


def mark_slots(tree: MarkedTree) -> list[tuple[int, int]]:
    """(component, class) of every mark slot, class 0 for A and 1 for B:
    component by component, its A-slots and then its B-slots."""
    return [(c, cls) for c, m in enumerate(tree.marks)
            for cls in (0, 1) for _ in range(m[cls])]


def _realizable(points: dict[int, int], moved: bool) -> bool:
    """Whether a generic curve carries the map ``points`` of one component's
    special points (its edges and mark slots), the component being carried
    onto another one when ``moved``: any map of at most 3 points; otherwise
    the component stays, and the map is the identity or, on exactly 4
    points, a double transposition."""
    if len(points) <= 3:
        return True
    if moved:
        return False
    shifted = [p for p, q in points.items() if p != q]
    if len(points) == 4 and len(shifted) == 4:
        return all(points[q] == p for p, q in points.items())
    return not shifted


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
    comp = [c for c, _ in mark_slots(tree)]
    ends = {c for c in range(len(tree.marks)) if tree.is_extremity(c)}
    return [(swap, sigma) for swap, sigma in
            marked_tree_automorphism_group(tree, allow_set_swap)
            if all(s == t or (comp[s] == comp[t] and comp[s] in ends)
                   for s, t in enumerate(sigma))]


# -- double covers -----------------------------------------------------------

class CoverVertex:
    def __init__(self, genus: int, exceptional: bool):
        self.genus = genus
        self.exceptional = exceptional


class CoverGraph:
    """Dual graph of the double cover of a marked tree, branched at the
    marks: vertices are cover components with their genus, edges are the
    nodes of the cover; components over extremities are exceptional."""

    def __init__(self, vertices: list[CoverVertex],
                 edges: list[tuple[int, int, int]]):
        self.vertices = vertices
        self.edges = edges          # (vertex, vertex, tree edge id)

    def total_genus(self) -> int:
        comps = len(set(_components(len(self.vertices),
                                    [(a, b) for a, b, _ in self.edges])))
        cycles = len(self.edges) - len(self.vertices) + comps
        return sum(v.genus for v in self.vertices) + cycles


def _components(nverts: int, edges) -> list[int]:
    """A representative vertex of the connected component of each vertex."""
    parent = list(range(nverts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return [find(v) for v in range(nverts)]


def double_cover_graph(tree: MarkedTree) -> CoverGraph:
    """The admissible double cover of a generic curve of the stratum,
    branched exactly at the marks: per component, the branch points are its
    marks plus the incident nodes whose far side carries an odd number of
    marks; zero branch points split the cover into two sheets, otherwise
    the cover is connected of genus (branch count)/2 - 1."""
    total_a, total_b = tree.total_marks()
    if (total_a + total_b) % 2 != 0:
        raise ValueError("double cover needs an even number of marks")
    # With an even total every branch count is even: a component's marks
    # and the marks on the far sides of its edges add up to the total.  A
    # branched node is a branch point on both of its components, so both
    # of them are connected covers.
    edge_branched = [sum(tree.far_side_marks(k, c)) % 2 == 1
                     for k, (c, _) in enumerate(tree.edges)]
    vertices: list[CoverVertex] = []
    verts_of: list[range] = []
    for c, (a, b) in enumerate(tree.marks):
        branch = a + b + sum(1 for k in tree.incident_edges(c)
                             if edge_branched[k])
        sheets, genus = (1, branch // 2 - 1) if branch else (2, 0)
        verts_of.append(range(len(vertices), len(vertices) + sheets))
        vertices += [CoverVertex(genus, tree.is_extremity(c))
                     for _ in range(sheets)]

    edges: list[tuple[int, int, int]] = []
    for k, (c, d) in enumerate(tree.edges):
        vc, vd = verts_of[c], verts_of[d]
        for i in range(1 if edge_branched[k] else 2):
            edges.append((vc[i % len(vc)], vd[i % len(vd)], k))
    return CoverGraph(vertices, edges)


def nonexceptional_component_count(tree: MarkedTree,
                                   blown_edges: frozenset[int]) -> int:
    """Connected components of the square-root support after removing its
    exceptional components and the blown-up nodes.  An exceptional cover
    vertex meets the two lifts of one tree edge, which make one node of the
    stable model, so the count is that of the cover without the blown lifts,
    taken at its non-exceptional vertices."""
    cover = double_cover_graph(tree)
    root = _components(len(cover.vertices), [(a, b) for a, b, k in cover.edges
                                             if k not in blown_edges])
    return len({root[i] for i, v in enumerate(cover.vertices)
                if not v.exceptional})


@functools.lru_cache(maxsize=None)
def prym_aut_number(tree: MarkedTree, blown_edges: frozenset[int],
                    allow_set_swap: bool) -> int:
    """Automorphism number of the square-root structure carried by a
    generic curve of the stratum given by the tree, the edges whose node is
    blown up, and whether the two mark classes may be exchanged:
    n = 2^(s-r) * i * h, with s components, r extremities, i = 2^(u-1)
    counting inessential automorphisms via the u components of the
    non-exceptional subcurve, and h = m / |K| the automorphism count of the
    contracted mark data, K the extremity kernel: a subgroup of the m
    generic automorphisms, so |K| divides m.  The arguments are immutable,
    and each stratum is computed once."""
    m = count_marked_automorphisms(tree, allow_set_swap)
    h = m // len(extremity_kernel(tree, allow_set_swap))
    s = len(tree.marks)
    r = sum(1 for c in range(s) if tree.is_extremity(c))
    u = nonexceptional_component_count(tree, blown_edges)
    return 2 ** (s - r) * 2 ** (u - 1) * h


# -- explicit automorphisms and fiber counts ---------------------------------

def marked_tree_automorphism_group(tree: MarkedTree, allow_set_swap: bool = False):
    """Explicit generic automorphisms as slot permutations.

    Each automorphism is a pair (swap, sigma): the swap flag, and the tuple
    of images ``sigma[s]`` of the slots s of ``mark_slots``.  This is the
    one enumerator: counts, the extremity kernel and fiber orbits all use
    it.  Each (tree, flag) is enumerated once; trees are immutable, and the
    tuple returned is shared by every caller, which must not change it.
    """
    return _automorphisms(tree, bool(allow_set_swap))


@functools.lru_cache(maxsize=None)
def _automorphisms(tree: MarkedTree, allow_set_swap: bool):
    slots = [[[], []] for _ in tree.marks]
    for s, (c, cls) in enumerate(mark_slots(tree)):
        slots[c][cls].append(s)
    edge_index = {frozenset(e): k for k, e in enumerate(tree.edges)}
    out = []
    for perm, swap in _tree_maps(tree, tree, allow_set_swap):
        edge_image = [edge_index[frozenset((perm[c], perm[d]))]
                      for c, d in tree.edges]
        per_comp = []
        for c, (src_a, src_b) in enumerate(slots):
            # edge k is the point ~k, apart from every slot number
            edge_points = {~k: ~edge_image[k]
                           for k in tree.incident_edges(c)}
            tgt_a, tgt_b = slots[perm[c]][swap], slots[perm[c]][not swap]
            per_comp.append([
                pa + pb for pa in itertools.permutations(tgt_a)
                for pb in itertools.permutations(tgt_b)
                if _realizable(edge_points | dict(zip(src_a + src_b, pa + pb)),
                               perm[c] != c)])
        # the slots run component by component, so the images concatenate
        out.extend((swap, sum(combo, ()))
                   for combo in itertools.product(*per_comp))
    return tuple(out)


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
    comp = [c for c, _ in mark_slots(plain)]
    full = (1 << len(comp)) - 1
    autos = marked_tree_automorphism_group(plain)
    seen = set()
    # Many assignments give the same mark counts: one test per count vector.
    realizes: dict[tuple[tuple[int, int], ...], bool] = {}
    orbits = 0
    for chosen in itertools.combinations(range(len(comp)), total_a):
        if sum(1 << s for s in chosen) in seen:
            continue
        taken = [0] * len(plain.marks)
        for s in chosen:
            taken[comp[s]] += 1
        counts = tuple((a, tot - a) for a, (tot, _) in zip(taken, plain.marks))
        if counts not in realizes:
            realizes[counts] = trees_isomorphic(
                MarkedTree(counts, tree.edges), tree,
                allow_set_swap=unordered_classes)
        if realizes[counts]:
            orbits += 1
            for _, sigma in autos:
                image = sum(1 << sigma[s] for s in chosen)
                seen.add(image)
                if unordered_classes:
                    seen.add(full ^ image)
    return orbits


def stratum_pushforward_coeff(tree: MarkedTree, blown_edges: frozenset[int],
                              allow_set_swap: bool, image_aut: int) -> Fraction:
    """Coefficient of the image stratum class under the forgetful map:
    (number of structures over a general image point) x (automorphisms of
    the image object) / (automorphisms of the source object)."""
    m_count = fiber_count(tree, allow_set_swap)
    return Fraction(m_count * image_aut,
                    prym_aut_number(tree, blown_edges, allow_set_swap))
