import itertools
from fractions import Fraction

import pytest

from oracles import (aut_count_identity_holds, extremity_kernel_formula,
                     stable_marked_trees)
from prymspin.strata_aut import (MarkedTree, _realizable,
                                 count_marked_automorphisms,
                                 double_cover_graph, extremity_kernel,
                                 fiber_count, mark_slots,
                                 marked_tree_automorphism_group, parse_tree,
                                 prym_aut_number,
                                 stratum_pushforward_coeff, trees_isomorphic)

# (name, tree grammar, blown edges, set swap, generic auts m, structure auts n)
R2_TABLE = [
    ("D0pp", "(A A -1)(B B B B -1)", [], False, 2, 2),
    ("D0p", "(B B -1)(A A B B -1)", [], False, 2, 2),
    ("D0r", "(A B -1)(A B B B -1)", [0], False, 1, 2),
    ("D1", "(A A B -1)(B B B -1)", [], False, 1, 4),
    ("D11", "(A B B -1)(A B B -1)", [], False, 1, 4),
    ("Ep_p", "(B B -1)(A A -1 -2)(B B -2)", [], False, 8, 4),
    ("Ep_pp", "(A A -1)(B B -1 -2)(B B -2)", [], False, 4, 2),
    ("Ep_r", "(A B -1)(A B -1 -2)(B B -2)", [0], False, 2, 2),
    ("Er_r", "(A B -1)(B B -1 -2)(A B -2)", [0, 1], False, 2, 4),
    ("F1p", "(B B -1)(B -1 -2)(A A B -2)", [], False, 2, 4),
    ("F1pp", "(A A -1)(B -1 -2)(B B B -2)", [], False, 2, 4),
    ("F1r", "(A B -1)(A -1 -2)(B B B -2)", [0], False, 1, 4),
    ("F11p", "(B B -1)(A -1 -2)(A B B -2)", [], False, 2, 4),
    ("F11r", "(A B -1)(B -1 -2)(A B B -2)", [0], False, 1, 4),
    ("Gp", "(A A -1)(B B -2)(B B -3)(-1 -2 -3)", [], False, 16, 4),
    ("Gr", "(A B -1)(A B -2)(B B -3)(-1 -2 -3)", [0, 1], False, 4, 4),
    ("H1p", "(A A -1)(B -1 -2)(B -2 -3)(B B -3)", [], False, 4, 4),
    ("H1r", "(A B -1)(A -1 -2)(B -2 -3)(B B -3)", [0], False, 2, 4),
    ("H11p", "(B B -1)(A -1 -2)(A -2 -3)(B B -3)", [], False, 8, 8),
    ("H11r", "(A B -1)(B -1 -2)(A -2 -3)(B B -3)", [0], False, 2, 4),
    ("H11rr", "(A B -1)(B -1 -2)(B -2 -3)(A B -3)", [0, 2], False, 2, 8),
]

S2PLUS_TABLE = [
    ("A0p", "(A A -1)(A B B B -1)", [], True, 2, 2),
    ("B0p", "(A B -1)(A A B B -1)", [0], True, 1, 2),
    ("A1p", "(A A B -1)(A B B -1)", [0], True, 1, 8),
    ("B1p", "(A A A -1)(B B B -1)", [0], True, 1, 8),
    ("Cp", "(A A -1)(A B -1 -2)(B B -2)", [], True, 8, 4),
    ("Dp", "(A A -1)(B B -1 -2)(A B -2)", [], True, 2, 2),
    ("E", "(A B -1)(A B -1 -2)(A B -2)", [], True, 2, 4),
    ("Yp", "(A A -1)(A -1 -2)(B B B -2)", [1], True, 2, 8),
    ("Xp", "(A A -1)(B -1 -2)(A B B -2)", [1], True, 2, 8),
    ("Zp", "(A B -1)(A -1 -2)(A B B -2)", [0, 1], True, 1, 8),
    ("Lp", "(A A -1)(A B -2)(B B -3)(-1 -2 -3)", [1], True, 8, 4),
    ("M", "(A B -1)(A B -2)(A B -3)(-1 -2 -3)", [0, 1, 2], True, 12, 24),
    ("Qp", "(A A -1)(A -1 -2)(B -2 -3)(B B -3)", [1], True, 8, 16),
    ("Pp", "(A A -1)(B -1 -2)(A -2 -3)(B B -3)", [1], True, 8, 16),
    ("R", "(A B -1)(A -1 -2)(B -2 -3)(A B -3)", [0, 1, 2], True, 2, 16),
    ("Up", "(A A -1)(B -1 -2)(B -2 -3)(A B -3)", [1, 2], True, 2, 8),
]

S2MINUS_TABLE = [
    ("A0m", "(B B -1)(A B B B -1)", [], False, 2, 2),
    ("B0m", "(A B -1)(B B B B -1)", [0], False, 1, 2),
    ("A1m", "(A B B -1)(B B B -1)", [0], False, 1, 8),
    ("Cm", "(B B -1)(A B -1 -2)(B B -2)", [], False, 4, 2),
    ("Dm", "(A B -1)(B B -1 -2)(B B -2)", [0], False, 2, 2),
    ("Xm", "(B B -1)(A -1 -2)(B B B -2)", [1], False, 2, 8),
    ("Ym", "(B B -1)(B -1 -2)(A B B -2)", [1], False, 2, 8),
    ("Zm", "(A B -1)(B -1 -2)(B B B -2)", [0, 1], False, 1, 8),
    ("Lm", "(A B -1)(B B -2)(B B -3)(-1 -2 -3)", [0], False, 8, 4),
    ("Pm", "(A B -1)(B -1 -2)(B -2 -3)(B B -3)", [0, 1], False, 2, 8),
    ("Um", "(B B -1)(A -1 -2)(B -2 -3)(B B -3)", [1], False, 4, 8),
]

M2_TABLE = [
    ("Delta0", "(A A -1)(A A A A -1)", [], False, 2, 2),
    ("Delta1", "(A A A -1)(A A A -1)", [], False, 1, 4),
    ("Delta00", "(A A -1)(A A -1 -2)(A A -2)", [], False, 8, 4),
    ("Delta01", "(A A -1)(A -1 -2)(A A A -2)", [], False, 2, 4),
    ("C000", "(A A -1)(A A -2)(A A -3)(-1 -2 -3)", [], False, 48, 12),
    ("C001", "(A A -1)(A -1 -2)(A -2 -3)(A A -3)", [], False, 8, 8),
]

ALL_TABLES = R2_TABLE + S2PLUS_TABLE + S2MINUS_TABLE + M2_TABLE


class TestParse:
    def test_roundtrip(self):
        t = parse_tree("(A A -1)(B B B B -1)")
        assert t.marks == ((2, 0), (0, 4))
        assert t.edges == ((0, 1),)

    def test_edge_must_pair(self):
        with pytest.raises(ValueError):
            parse_tree("(A A -1)(B B B B -2)")

    def test_unstable(self):
        with pytest.raises(ValueError):
            parse_tree("(A -1)(A B B B B -1)")


def _reached_marks(tree, edge_index, start):
    """Mark counts of the components a depth-first walk reaches from start
    without crossing the edge."""
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for k, (x, y) in enumerate(tree.edges):
            if k != edge_index and v in (x, y):
                w = y if x == v else x
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return (sum(tree.marks[v][0] for v in seen),
            sum(tree.marks[v][1] for v in seen))


class TestTreeTraversal:
    def test_wrong_edge_count_is_not_a_tree(self):
        for edges in ((), ((0, 1), (0, 1))):
            with pytest.raises(ValueError, match="not a tree"):
                MarkedTree(((2, 0), (0, 4)), edges)

    def test_self_loop_is_not_connected(self):
        with pytest.raises(ValueError, match="not connected"):
            parse_tree("(A A -1 -1)(B B B B)")
        with pytest.raises(ValueError, match="not connected"):
            MarkedTree(((1, 1), (1, 1), (1, 1)), ((0, 0), (1, 2)))

    def test_far_side_marks_on_every_stable_tree(self):
        trees = stable_marked_trees(6)
        assert len(trees) == 692
        for tree in trees:
            for k, (c, d) in enumerate(tree.edges):
                near_c = tree.far_side_marks(k, c)
                near_d = tree.far_side_marks(k, d)
                assert near_c == _reached_marks(tree, k, d), (tree, k)
                assert near_d == _reached_marks(tree, k, c), (tree, k)
                assert (near_c[0] + near_d[0], near_c[1] + near_d[1]) \
                    == tree.total_marks(), (tree, k)


class TestValueSemantics:
    """Trees are memo keys: built twice they are equal and hash as their
    field tuples, so a stratum's (tree, blown edges, swap flag) built twice
    hits the memo."""

    def test_marked_tree(self):
        a = parse_tree("(A A -1)(B B B B -1)")
        b = MarkedTree(((2, 0), (0, 4)), ((0, 1),))
        assert a == b and a is not b and not a != b
        assert hash(a) == hash(b) == hash((a.marks, a.edges))
        assert a != parse_tree("(B B B B -1)(A A -1)")
        assert a != (a.marks, a.edges)
        assert repr(a) == "MarkedTree(marks=((2, 0), (0, 4)), edges=((0, 1),))"
        with pytest.raises(AttributeError):
            a.marks = ()

    @pytest.mark.parametrize("name, grammar, blown, swap, m, n", R2_TABLE)
    def test_stratum_descriptor_hits_the_memo(self, name, grammar, blown,
                                              swap, m, n):
        first = (parse_tree(grammar), frozenset(blown), swap)
        second = (parse_tree(grammar), frozenset(blown), swap)
        assert first[0] is not second[0]
        prym_aut_number(*first)
        info = prym_aut_number.cache_info()
        assert prym_aut_number(*second) == n
        after = prym_aut_number.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)


class TestGenericAutomorphisms:
    @pytest.mark.parametrize("name,grammar,blown,swap,m,n", ALL_TABLES,
                             ids=[row[0] for row in ALL_TABLES])
    def test_counts(self, name, grammar, blown, swap, m, n):
        tree = parse_tree(grammar)
        assert count_marked_automorphisms(tree, swap) == m

    def test_six_generic_points_rigid(self):
        t = parse_tree("(A A A B B B)")
        assert count_marked_automorphisms(t, allow_set_swap=True) == 1

    def test_explicit_group_is_a_group(self):
        # (swap, slot images) pairs compose as (s xor t, f o g)
        for tree, swap in itertools.product(stable_marked_trees(6),
                                            (False, True)):
            autos = marked_tree_automorphism_group(tree, swap)
            elements = set(autos)
            assert len(elements) == len(autos), tree
            slots = range(len(mark_slots(tree)))
            assert (False, tuple(slots)) in elements, tree
            for s, f in autos:
                for t, g in autos:
                    composed = tuple(f[g[x]] for x in slots)
                    assert (s != t, composed) in elements, tree


class TestGenericityRule:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_at_most_three_points_always_realizable(self, k):
        for images in itertools.permutations(range(k)):
            for moved in (False, True):
                assert _realizable(dict(enumerate(images)), moved)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_moved_component_with_moduli_refused(self, k):
        for images in itertools.permutations(range(k)):
            assert not _realizable(dict(enumerate(images)), moved=True)

    def test_four_points_identity_or_double_transposition(self):
        passing = [images for images in itertools.permutations(range(4))
                   if _realizable(dict(enumerate(images)), moved=False)]
        assert passing == [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                           (3, 2, 1, 0)]

    def test_five_points_only_identity(self):
        passing = [images for images in itertools.permutations(range(5))
                   if _realizable(dict(enumerate(images)), moved=False)]
        assert passing == [(0, 1, 2, 3, 4)]


class TestCoverGraph:
    def test_d0pp_cover(self):
        cover = double_cover_graph(parse_tree("(A A -1)(B B B B -1)"))
        genera = sorted(v.genus for v in cover.vertices)
        assert genera == [0, 1]
        exceptional = [v for v in cover.vertices if v.exceptional]
        assert len(exceptional) == 1 and exceptional[0].genus == 0
        assert len(cover.edges) == 2          # unbranched node, two lifts
        assert cover.total_genus() == 2

    def test_d1_cover(self):
        cover = double_cover_graph(parse_tree("(A A B -1)(B B B -1)"))
        assert sorted(v.genus for v in cover.vertices) == [1, 1]
        assert len(cover.edges) == 1          # branched node, one lift
        assert cover.total_genus() == 2

    def test_smooth_cover(self):
        cover = double_cover_graph(parse_tree("(A A B B B B)"))
        assert len(cover.vertices) == 1
        assert cover.vertices[0].genus == 2
        assert not cover.vertices[0].exceptional

    @pytest.mark.parametrize("name,grammar,blown,swap,m,n", ALL_TABLES,
                             ids=[row[0] for row in ALL_TABLES])
    def test_total_genus_always_two(self, name, grammar, blown, swap, m, n):
        assert double_cover_graph(parse_tree(grammar)).total_genus() == 2

    def test_every_stable_tree(self):
        # genus 2 over every tree; a node lifts once when it is a branch
        # point (an odd number of marks beyond it) and twice otherwise
        trees = stable_marked_trees(6)
        assert len(trees) == 692
        for tree in trees:
            cover = double_cover_graph(tree)
            assert cover.total_genus() == 2, tree
            lifts = [k for _, _, k in cover.edges]
            for k, (c, _) in enumerate(tree.edges):
                odd = sum(tree.far_side_marks(k, c)) % 2 == 1
                assert lifts.count(k) == (1 if odd else 2), (tree, k)

    def test_odd_marks_rejected(self):
        with pytest.raises(ValueError):
            double_cover_graph(MarkedTree(((3, 0),), ()))


class TestStructureAutomorphisms:
    @pytest.mark.parametrize("name,grammar,blown,swap,m,n", ALL_TABLES,
                             ids=[row[0] for row in ALL_TABLES])
    def test_numbers(self, name, grammar, blown, swap, m, n):
        assert prym_aut_number(parse_tree(grammar), frozenset(blown),
                               swap) == n

    def test_count_identity_and_its_documented_exception(self):
        # m = 2^(r') h holds everywhere except the all-mixed star, where the
        # simultaneous extremity swap realizes the global class exchange
        for name, grammar, blown, swap, m, n in ALL_TABLES:
            tree = parse_tree(grammar)
            holds = aut_count_identity_holds(tree, swap)
            assert holds == (name != "M"), name

    @pytest.mark.parametrize("swap", [False, True])
    def test_extremity_kernel_matches_the_formula(self, swap):
        trees = stable_marked_trees(6)
        assert len(trees) == 692
        for tree in trees:
            assert len(extremity_kernel(tree, swap)) == \
                extremity_kernel_formula(tree, swap), tree


class TestFiberCounts:
    @pytest.mark.parametrize("grammar,unordered,expected", [
        ("(B B -1)(A A B B -1)", False, 6),      # D0'
        ("(A A -1)(B B B B -1)", False, 1),      # D0''
        ("(A B -1)(A B B B -1)", False, 4),      # D0^r
        ("(A A B -1)(B B B -1)", False, 6),      # D1
        ("(A B B -1)(A B B -1)", False, 9),      # D1:1
        ("(A A -1)(A B B B -1)", True, 4),       # A0+
        ("(A B -1)(A A B B -1)", True, 3),       # B0+
        ("(A A B -1)(A B B -1)", True, 9),       # A1+
        ("(A A A -1)(B B B -1)", True, 1),       # B1+
        ("(B B -1)(A B B B -1)", False, 4),      # A0-
        ("(A B -1)(B B B B -1)", False, 1),      # B0-
        ("(A B B -1)(B B B -1)", False, 6),      # A1-
    ])
    def test_divisor_fibers(self, grammar, unordered, expected):
        assert fiber_count(parse_tree(grammar), unordered) == expected

    def test_pushforward_coefficients(self):
        # D0' -> 6 x the one-nodal base divisor (image aut 2)
        d0p = parse_tree("(B B -1)(A A B B -1)")
        assert stratum_pushforward_coeff(d0p, frozenset(), False, 2) == 6
        # D1:1 -> 9 x the two-component base divisor (image aut 4)
        d11 = parse_tree("(A B B -1)(A B B -1)")
        assert stratum_pushforward_coeff(d11, frozenset(), False, 4) == 9
        # B1+ -> 1/2 x the two-component base divisor
        b1p = parse_tree("(A A A -1)(B B B -1)")
        assert stratum_pushforward_coeff(b1p, frozenset([0]), True, 4) \
            == Fraction(1, 2)


def test_trees_isomorphic():
    a = parse_tree("(A A -1)(B B B B -1)")
    b = parse_tree("(B B B B -1)(A A -1)")
    assert trees_isomorphic(a, b)
    c = parse_tree("(B B -1)(A A B B -1)")
    assert not trees_isomorphic(a, c)
    assert trees_isomorphic(parse_tree("(A A -1)(B B B B -1)"),
                            parse_tree("(B B -1)(A A A A -1)"),
                            allow_set_swap=True)
