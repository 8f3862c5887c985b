import itertools

import pytest

from oracles import oracle_arf_census, oracle_partition_sides
from prymspin.theta_f2 import (PartitionClass, TorsionVector, arf_census,
                               count_partitions, partition_classes, phi_R,
                               spin_parity, torsion_census, verify_bijections)


class TestTorsionVector:
    def test_even_weight_required(self):
        with pytest.raises(ValueError):
            TorsionVector.from_subset(2, {1, 2, 3})

    def test_complement_identified(self):
        v = TorsionVector.from_subset(2, {1, 2})
        w = TorsionVector.from_subset(2, {3, 4, 5, 6})
        assert v == w
        # balanced weight: the side without the first point is kept
        u = TorsionVector.from_subset(3, {1, 2, 3, 4})
        assert u == TorsionVector.from_subset(3, {5, 6, 7, 8})
        assert u.bits == 0b11110000

    def test_pairing_well_defined_and_alternating(self):
        g = 2
        vectors = set()
        for n in (2, 4, 6):
            for c in itertools.combinations(range(1, 2 * g + 3), n):
                vectors.add(TorsionVector.from_subset(g, c))
        for v in vectors:
            assert v.pairing(v) == 0        # alternating: even self-meet
        # nondegenerate: every nonzero vector pairs nontrivially with some
        nonzero = [v for v in vectors if not v.is_zero()]
        for v in nonzero:
            assert any(v.pairing(w) for w in nonzero)

    def test_group_structure(self):
        v = TorsionVector.from_subset(2, {1, 2})
        w = TorsionVector.from_subset(2, {2, 3})
        assert (v + w) == TorsionVector.from_subset(2, {1, 3})
        assert (v + v).is_zero()


class TestPhiR:
    def test_g2_image_nonzero(self):
        p = PartitionClass.make(2, {1, 2})
        assert not phi_R(p).is_zero()

    def test_g2_bijective_on_pairs(self):
        images = {phi_R(p) for p in partition_classes(2, 2)}
        assert len(images) == 15 == 2 ** 4 - 1

    def test_g3_counts(self):
        assert count_partitions(3, 2) == 28
        assert count_partitions(3, 4) == 35
        assert 28 + 35 == 2 ** 6 - 1

    def test_odd_part_rejected(self):
        with pytest.raises(ValueError):
            phi_R(PartitionClass.make(2, {1, 2, 3}))


class TestPartitionClasses:
    @pytest.mark.parametrize("g", range(1, 7))
    def test_sides_match_oracle(self, g):
        n_pts = 2 * g + 2
        for n in range(n_pts + 1):
            sides = [frozenset(i + 1 for i in range(n_pts) if p.side >> i & 1)
                     for p in partition_classes(g, n)]
            assert sides == oracle_partition_sides(g, n)
            assert len(sides) == count_partitions(g, n)

    def test_make_keeps_canonical_side(self):
        assert PartitionClass.make(2, {3, 4, 5, 6}).side == 0b11
        assert PartitionClass.make(2, {4, 5, 6}).side == 0b111


class TestSpinParity:
    def test_examples(self):
        assert spin_parity(2, 3) == "even"
        assert spin_parity(2, 1) == "odd"
        assert spin_parity(3, 0) == "even"     # g - n + 1 = 4

    def test_wrong_parity_rejected(self):
        with pytest.raises(ValueError):
            spin_parity(2, 2)


class TestArf:
    def test_small_census(self):
        assert arf_census(1) == (3, 1)
        assert arf_census(2) == (10, 6)
        assert arf_census(3) == (36, 28)

    def test_closed_form(self):
        for g in range(1, 8):
            even, odd = arf_census(g)
            assert even == 2 ** (2 * g - 1) + 2 ** (g - 1)
            assert odd == 2 ** (2 * g - 1) - 2 ** (g - 1)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_matches_pointwise_oracle(self, g):
        assert arf_census(g) == oracle_arf_census(g)


class TestCensuses:
    @pytest.mark.parametrize("g", range(1, 8))
    def test_verify_bijections(self, g):
        rep = verify_bijections(g)
        assert rep["prym_count_matches"]
        assert rep["phi_bijective"]
        assert rep["census_match"]

    def test_census_works_on_masks(self, monkeypatch):
        # the census forms no PartitionClass or TorsionVector through their
        # constructors from point sets; the masks go straight into a set
        calls = {"make": 0, "from_subset": 0}
        real_make, real_from = PartitionClass.make, TorsionVector.from_subset

        def counting_make(g, part):
            calls["make"] += 1
            return real_make(g, part)

        def counting_from(g, subset):
            calls["from_subset"] += 1
            return real_from(g, subset)

        monkeypatch.setattr(PartitionClass, "make", staticmethod(counting_make))
        monkeypatch.setattr(TorsionVector, "from_subset",
                            staticmethod(counting_from))
        assert verify_bijections(6)["phi_bijective"]
        assert calls == {"make": 0, "from_subset": 0}

    def test_g2_values(self):
        census = torsion_census(2)
        assert census["prym_total"] == 15
        assert census["spin_even"] == 10
        assert census["spin_odd"] == 6

    def test_g1_odd_unique(self):
        # one odd theta characteristic on an elliptic curve
        assert arf_census(1)[1] == 1
