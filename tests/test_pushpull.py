import itertools
from fractions import Fraction

import pytest

import oracles
import prymspin.pushpull as pushpull
import prymspin.symmetry as symmetry
from oracles import push_full_group
from prymspin import reference
from prymspin.exact_linear import QMatrix, kernel_basis, rank, rref
from prymspin.keel_ring import (GradedBasis, RingElement, build_graded_basis,
                                canonicalize, four_point_relation)
from prymspin.presentations import check_relation
from prymspin.pushpull import (INTERSECTION_CALIBRATION, NamedCombo,
                               check_combo_vanishes, derive_linear_relation,
                               derive_m05_relations, intersection_number,
                               intersection_table, mumford_base_numbers,
                               push_to_base, pushforward,
                               pushforward_m05, stratum_pushforward_check,
                               verify_lambda_identities)
from prymspin.space_registry import SPACE_TAGS, load_space
from prymspin.symmetry import act


def gen(*marks, n=6):
    """The formal combination of one boundary divisor."""
    return {(canonicalize(set(marks), n),): Fraction(1)}


# The published tables of the two 5-marked boundary covers: the 2-subset
# side of each divisor of the 5-marked space (mark 5 is the glued point)
# with its (image stratum, mapping degree).
PUBLISHED_COVERS = {
    "h0p": ("R2", {
        frozenset({1, 2}): ("Ep_pp", 2),
        frozenset({3, 4}): ("Ep_p", 2),
        frozenset({1, 3}): ("Ep_r", 1), frozenset({1, 4}): ("Ep_r", 1),
        frozenset({2, 3}): ("Ep_r", 1), frozenset({2, 4}): ("Ep_r", 1),
        frozenset({5, 1}): ("F11p", 2), frozenset({5, 2}): ("F11p", 2),
        frozenset({5, 3}): ("F1p", 2), frozenset({5, 4}): ("F1p", 2),
    }),
    "h0alpha": ("S2minus", {
        frozenset({2, 3}): ("Cm", 2), frozenset({2, 4}): ("Cm", 2),
        frozenset({3, 4}): ("Cm", 2),
        frozenset({1, 2}): ("Dm", 2), frozenset({1, 3}): ("Dm", 2),
        frozenset({1, 4}): ("Dm", 2),
        frozenset({5, 1}): ("Xm", 6),
        frozenset({5, 2}): ("Ym", 2), frozenset({5, 3}): ("Ym", 2),
        frozenset({5, 4}): ("Ym", 2),
    }),
}


class TestPushforward:
    def test_f_r_examples(self):
        r2 = load_space("R2")
        combo = pushforward(r2, gen(1, 2))
        assert combo.terms == {("d0pp",): Fraction(48)}     # 24 [D0'']
        combo = pushforward(r2, gen(3, 4))
        assert combo.terms == {("d0p",): Fraction(8)}       # 4 [D0']
        combo = pushforward(r2, gen(1, 3))
        assert combo.terms == {("d0r",): Fraction(12)}      # 6 [D0^r]

    def test_f_plus_example(self):
        sp = load_space("S2plus")
        combo = pushforward(sp, gen(1, 2, 3))
        assert combo.terms == {("b1p",): Fraction(576)}     # 72 [B1+]

    def test_linear_relations(self):
        for tag in ("R2", "S2plus", "S2minus"):
            combo = derive_linear_relation(tag)
            expected = {k: Fraction(v)
                        for k, v in reference.LINEAR_RELATIONS[tag].items()}
            assert combo.terms == expected

    def test_derived_relation_vanishes_in_ring(self):
        for tag in ("R2", "S2plus"):
            combo = derive_linear_relation(tag)
            ok, _ = check_combo_vanishes(combo)
            assert ok

    def test_relation_lies_in_table_kernel(self):
        for tag in ("R2", "S2plus"):
            combo = derive_linear_relation(tag)
            rows, cols, mat = intersection_table(tag)
            vec = [combo.terms.get((c,), Fraction(0)) for c in cols]
            assert all(sum(mat[i][j] * vec[j] for j in range(len(cols)))
                       == 0 for i in range(len(rows)))


class TestTabledPush:
    @pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus"])
    def test_relation_basis_spans_all_four_point_relations(self, tag):
        # the direct route: push all 30 four-point relations and take the
        # reduced row-echelon form of their images
        space = load_space(tag)
        names = list(space.boundary)
        rows = []
        for quad in itertools.combinations(range(1, space.n + 1), 4):
            for rel in four_point_relation(space.n, *quad):
                combo = pushforward(space, rel)
                rows.append({j: combo.terms[(nm,)]
                             for j, nm in enumerate(names)
                             if (nm,) in combo.terms})
        assert len(rows) == 30
        red, _ = rref(QMatrix(rows, len(names)))
        assert len(red) <= 1
        expected = NamedCombo(tag)
        for row in red:
            for j, c in row.items():
                expected.add((names[j],), c)
        assert derive_linear_relation(tag).terms == expected.normalized().terms

    def test_divisor_of_another_space_is_refused(self):
        with pytest.raises(KeyError, match="not tabled for S2plus"):
            pushforward(load_space("S2plus"), gen(1, 2, n=5))

    def test_degree_two_class_pushes_to_its_stratum(self):
        # (D12, D34) is the lift of h0p's divisor [1,2], so both push alike
        product = {(canonicalize({1, 2}, 6), canonicalize({3, 4}, 6)): 1}
        combo = pushforward(load_space("R2"), product)
        assert combo.terms == {("Ep_pp",): Fraction(4)}
        assert combo.terms == pushforward_m05("h0p", gen(1, 2, n=5)).terms

    def test_incompatible_pair_is_refused(self):
        product = {(canonicalize({1, 2}, 6), canonicalize({1, 3}, 6)): 1}
        with pytest.raises(KeyError, match="not tabled for R2"):
            pushforward(load_space("R2"), product)

    def test_degree_two_class_is_refused(self):
        # a 5-marked cover lifts divisors of the 5-marked space only
        for key in [(canonicalize({1, 2}, 5), canonicalize({3, 4}, 5)),
                    (canonicalize({1, 2}, 6),)]:
            with pytest.raises(ValueError, match="divisors of the 5-marked"):
                pushforward_m05("h0p", {key: Fraction(1)})

    @pytest.mark.parametrize("cover", sorted(PUBLISHED_COVERS))
    def test_every_h_table_row(self, cover):
        space_tag, table = PUBLISHED_COVERS[cover]
        space = load_space(space_tag)
        assert len(table) == 10
        for pair, (name, degree) in table.items():
            combo = pushforward_m05(cover, gen(*pair, n=5))
            assert combo.space == space_tag
            assert combo.terms == {
                (name,): Fraction(degree * space.aut_number(name))}, pair


class TestM05:
    def test_h_table_pushforward(self):
        elem = gen(5, 1, n=5)
        combo = pushforward_m05("h0alpha", elem)
        assert combo.terms == {("Xm",): Fraction(48)}       # 6 [X-], aut 8

    def test_relations_match_reference_and_hold(self):
        combos = derive_m05_relations()
        for combo, (space_tag, expected) in zip(combos, reference.M05_RELATIONS):
            assert combo.space == space_tag
            assert combo.terms == {k: Fraction(v) for k, v in expected.items()}
            ok, _ = check_combo_vanishes(combo)
            assert ok


class TestIntersectionTables:
    @pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus"])
    def test_every_entry(self, tag):
        rows, cols, mat = intersection_table(tag)
        order = reference.BOUNDARY_ORDER[tag]
        perm = [cols.index(c) for c in order]
        for i, rname in enumerate(rows):
            got = [mat[i][j] for j in perm]
            expected = [Fraction(x) for x in reference.A4_TABLES[tag][rname]]
            assert got == expected, rname

    @pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus"])
    def test_rank_and_kernel(self, tag):
        rows, cols, table = intersection_table(tag)
        mat = QMatrix([{j: x for j, x in enumerate(row) if x} for row in table],
                      len(cols))
        assert rank(mat) == reference.A4_RANKS[tag]
        ker = kernel_basis(mat)
        # compared by span: the reference vectors, in reference column
        # order, lie in the span of the computed kernel of the same size
        order = [cols.index(c) for c in reference.BOUNDARY_ORDER[tag]]
        expected = [{order[i]: Fraction(y) for i, y in enumerate(v) if y}
                    for v in reference.A4_KERNELS[tag]]
        assert (len(ker) == len(expected)
                == rank(QMatrix(expected, len(cols)))
                == rank(QMatrix(ker + expected, len(cols))))

    def test_calibration_anchor(self):
        # the single documented calibration: d0''.[E',']_Q = 1/4 pins the
        # constant, and the frozen value reproduces it
        r2 = load_space("R2")
        gb = r2.gb
        total = gb.integrate(gb.multiply(r2.named_class("d0pp").value,
                                         r2.named_class("Ep_p").value))
        derived = Fraction(1, 4) * r2.group.order / total
        assert derived == INTERSECTION_CALIBRATION

    def test_empty_intersections(self):
        r2 = load_space("R2")
        assert intersection_number(r2, "d0r", "Ep_p") == 0
        assert intersection_number(r2, "d1", "Ep_p") == Fraction(0)


def test_mumford_base_numbers():
    assert mumford_base_numbers() == reference.MUMFORD_VALUES


def test_m2_relation_verdicts():
    assert reference.M2_RELATION == "12*delta1^2 + delta0*delta1"
    assert check_relation("M2", reference.M2_RELATION)[0] is True
    # the two cross-check variants, evaluated rather than assumed: the
    # swapped-index variant fails, the cubic one holds
    assert reference.M2_VARIANTS == ("delta0*delta1 + 12*delta0^2",
                                     "528*delta1^3 + delta0^3")
    assert [check_relation("M2", text)[0]
            for text in reference.M2_VARIANTS] == [False, True]
    assert not hasattr(pushpull, "m2_relation_verdicts")


def test_lambda_identities_all_hold():
    report = verify_lambda_identities()
    assert len(report) == 15
    assert all(info["holds"] for info in report.values())
    # the residue is the ring element itself, zero exactly when it holds
    assert all(isinstance(info["residue"], RingElement)
               and info["residue"].is_zero() for info in report.values())


class TestTransversality:
    # products of stack classes of transverse strata equal the stack class
    # of the intersection
    @pytest.mark.parametrize("tag,a,b,target", [
        ("R2", "d0p", "d0pp", "Ep_pp"),
        ("R2", "d0p", "d0r", "Ep_r"),
        ("R2", "d0p", "d1", "F1p"),
        ("R2", "d0p", "d11", "F11p"),
        ("R2", "d0r", "d1", "F1r"),
        ("R2", "d0r", "d11", "F11r"),
        ("M2", "delta0", "delta1", "Delta01"),
        ("S2minus", "b0m", "a1m", "Zm"),
        ("S2minus", "a0m", "b0m", "Dm"),
    ])
    def test_products(self, tag, a, b, target):
        space = load_space(tag)
        gb = space.gb
        prod = gb.multiply(space.named_class(a).value,
                           space.named_class(b).value)
        assert prod == space.named_class(target).value

    def test_reducible_intersection_splits(self):
        # the intersection of A0- and A1- has two components
        sm = load_space("S2minus")
        gb = sm.gb
        prod = gb.multiply(sm.named_class("a0m").value,
                           sm.named_class("a1m").value)
        total = gb.combine(2, [(sm.named_class("Xm").value, 1),
                               (sm.named_class("Ym").value, 1)])
        assert prod == total


class TestPushToBase:
    def test_boundary_pushforwards(self):
        m2 = load_space("M2")
        expected = {
            "R2": {"d0p": ("delta0", 6), "d0pp": ("delta0", 1),
                   "d0r": ("delta0", 4), "d1": ("delta1", 6),
                   "d11": ("delta1", 9)},
            "S2plus": {"a0p": ("delta0", 4), "b0p": ("delta0", 3),
                       "a1p": ("delta1", Fraction(9, 2)),
                       "b1p": ("delta1", Fraction(1, 2))},
            "S2minus": {"a0m": ("delta0", 4), "b0m": ("delta0", 1),
                        "a1m": ("delta1", 3)},
        }
        for tag, table in expected.items():
            space = load_space(tag)
            for name, (base_name, coeff) in table.items():
                pushed = push_to_base(space, space.named_class(name).value)
                target = m2.named_class(base_name).value.scale(coeff)
                assert pushed == space.gb.reduce(target), (tag, name)

    def test_fundamental_class_degree(self):
        # the forgetful degree is the published count of square roots or
        # theta characteristics of a genus-2 curve
        census = {"R2": "prym_total", "S2plus": "spin_even",
                  "S2minus": "spin_odd"}
        for tag, count in census.items():
            space = load_space(tag)
            pushed = push_to_base(space, RingElement.unit(6))
            degree = reference.THETA_G2[count]
            assert space.fundamental_pushforward == degree
            assert pushed == RingElement.unit(6).scale(degree)

    @pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus"])
    def test_stratum_pushforward_columns(self, tag):
        results = stratum_pushforward_check(tag)
        assert results and all(results.values())

    def test_divisor_row_checks_the_multiple(self, monkeypatch):
        # a divisor row compares the pushed class with fiber_count times the
        # automorphism ratio, so a wrong fiber count fails that row alone
        space = load_space("R2")
        monkeypatch.setattr(space.boundary["d0r"], "fiber_count", 2)
        results = stratum_pushforward_check("R2")
        assert results["d0r"] is False
        assert all(v for name, v in results.items() if name != "d0r")

    def test_projection_formula(self):
        # f_*(a . f^* b) = f_* a . b on sampled classes
        m2 = load_space("M2")
        gb = m2.gb
        for tag in ("R2", "S2plus", "S2minus"):
            space = load_space(tag)
            samples_a = [space.named_class(n).value
                         for n in list(space.boundary)[:3]]
            samples_b = [m2.named_class(n).value
                         for n in ("delta0", "delta1")]
            for a, b in itertools.product(samples_a, samples_b):
                lhs = push_to_base(space, gb.multiply(a, b))
                rhs = gb.multiply(push_to_base(space, a), b)
                assert lhs == rhs


def _transfer_inputs(tag):
    """Every named class of a space, its products with delta0 and delta1,
    and the unit."""
    space = load_space(tag)
    m2 = load_space("M2")
    named = [(nm, space.named_class(nm).value) for nm in space.names()]
    out = list(named)
    for base in ("delta0", "delta1"):
        b = m2.named_class(base).value
        out += [(f"{nm}*{base}", space.gb.multiply(x, b)) for nm, x in named]
    out.append(("1", RingElement.unit(space.n)))
    return space, out


class TestCosetTransfer:
    @pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
    def test_matches_full_group_oracle(self, tag):
        space, inputs = _transfer_inputs(tag)
        for label, x in inputs:
            assert push_to_base(space, x).coeffs == \
                push_full_group(space, x.coeffs), label

    def test_non_invariant_class_is_refused(self):
        with pytest.raises(ValueError, match="invariant"):
            push_to_base(load_space("R2"),
                         build_graded_basis(6).element(1, gen(1, 3)))

    @pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
    def test_matches_coset_oracle(self, tag):
        space, inputs = _transfer_inputs(tag)
        reps = oracles.coset_representatives(space.group)
        for label, x in inputs:
            total = oracles.linear_combination(
                (oracles.act(g, x.coeffs), 1) for g in reps)
            assert push_to_base(space, x).coeffs == total, label

    @pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
    def test_acts_per_push(self, tag, monkeypatch):
        # the invariance guard acts once per generator, and only its acts
        # relabel; the transfer reads the S6 orbit-average table, built once
        # per degree on the kernel and shared by all four spaces
        acts, applied, built = [], [], []
        relabel_images = GradedBasis.relabel_images

        def counting_act(g, x, gb):
            acts.append(g)
            return act(g, x, gb)

        def counting_images(gb, g, degree):
            applied.append(g)
            return relabel_images(gb, g, degree)

        class CountingTables(dict):
            def __setitem__(self, key, table):
                built.append(key)
                super().__setitem__(key, table)

        # the invariance guard calls pushpull's alias; the transfer calls none
        monkeypatch.setattr(pushpull, "act", counting_act)
        monkeypatch.setattr(symmetry, "act", counting_act)
        monkeypatch.setattr(GradedBasis, "relabel_images", counting_images)
        space = load_space(tag)
        monkeypatch.setattr(space.gb, "average_tables", CountingTables())
        gens = space.group.generators
        codim2 = [nm for nm, e in space.strata.items() if len(e.rep) == 2]
        for name in list(space.boundary)[:2] + codim2[:1]:
            acts.clear()
            applied.clear()
            push_to_base(space, space.named_class(name).value)
            assert acts == gens, name
            assert applied == gens, name
        for other in SPACE_TAGS:
            sp = load_space(other)
            push_to_base(sp, sp.named_class(next(iter(sp.boundary))).value)
        s6 = tuple(load_space("M2").group.generators)
        assert built == [(s6, 1), (s6, 2)]


class TestCoordinateRecord:
    @pytest.mark.parametrize("tag", ["R2", "S2plus", "S2minus", "M2"])
    def test_record_matches_accumulated_coordinates(self, tag):
        # the coordinates an element carries against its coefficients read
        # again through the kernel's reader of monomial dicts
        space, inputs = _transfer_inputs(tag)
        gb = space.gb

        def vector(c):
            return [Fraction(v, c.den) for v in c.nums]

        for label, x in inputs:
            if x.degree > gb.top:
                continue
            again = gb.element(x.degree, x.coeffs)
            assert again is not x
            assert vector(gb.coordinates(x)) == vector(again), label

    @staticmethod
    def _spy(monkeypatch, gb, calls):
        """Record in calls the kernel of every call of its dict reader."""
        element = gb.element

        def counting(degree, coeffs):
            calls.append(gb)
            return element(degree, coeffs)
        monkeypatch.setattr(gb, "element", counting)

    def test_warm_push_accumulates_nothing(self, monkeypatch):
        space = load_space("R2")
        x = space.named_class(space.names()[0]).value
        pushed = push_to_base(space, x)
        read = []
        self._spy(monkeypatch, space.gb, read)
        assert push_to_base(space, x) == pushed
        assert read == []
