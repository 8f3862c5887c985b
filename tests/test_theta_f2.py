import itertools

import pytest

import prymspin.theta_f2 as theta_f2
from oracles import oracle_arf_census, oracle_partition_sides
from prymspin.theta_f2 import (_canonical_bits, _side_masks, arf_census,
                               count_partitions, spin_parity, torsion_census,
                               verify_bijections)


def mask(points) -> int:
    """Branch point i is bit i-1."""
    return sum(1 << (i - 1) for i in set(points))


def pairing(v: int, w: int) -> int:
    """The symplectic pairing |S meet T| mod 2 of two torsion masks."""
    return (v & w).bit_count() % 2


class TestTorsionVector:
    """2-torsion as even-weight masks modulo the all-ones mask, each kept as
    its canonical representative."""

    def test_even_weight_required(self):
        # the census maps only even parts, so every image has even weight;
        # an odd set keeps its odd weight under canonicalization
        assert _canonical_bits(mask({1, 2, 3}), 6).bit_count() % 2 == 1
        for g in range(1, 7):
            for n in torsion_census(g)["prym_by_size"]:
                assert n % 2 == 0
                assert all(_canonical_bits(side, 2 * g + 2).bit_count() % 2 == 0
                           for side in _side_masks(g, n))

    def test_complement_identified(self):
        v = _canonical_bits(mask({1, 2}), 6)
        w = _canonical_bits(mask({3, 4, 5, 6}), 6)
        assert v == w
        # balanced weight: the side without the first point is kept
        u = _canonical_bits(mask({1, 2, 3, 4}), 8)
        assert u == _canonical_bits(mask({5, 6, 7, 8}), 8)
        assert u == 0b11110000

    def test_pairing_well_defined_and_alternating(self):
        g = 2
        vectors = set()
        for n in (2, 4, 6):
            for c in itertools.combinations(range(1, 2 * g + 3), n):
                vectors.add(_canonical_bits(mask(c), 2 * g + 2))
        for v in vectors:
            assert pairing(v, v) == 0       # alternating: even self-meet
        # well defined: a complement pairs like the canonical side
        full = (1 << (2 * g + 2)) - 1
        for v, w in itertools.product(vectors, repeat=2):
            assert pairing(v ^ full, w) == pairing(v, w)
        # nondegenerate: every nonzero vector pairs nontrivially with some
        nonzero = [v for v in vectors if v]
        for v in nonzero:
            assert any(pairing(v, w) for w in nonzero)

    def test_group_structure(self):
        v = _canonical_bits(mask({1, 2}), 6)
        w = _canonical_bits(mask({2, 3}), 6)
        assert _canonical_bits(v ^ w, 6) == _canonical_bits(mask({1, 3}), 6)
        assert _canonical_bits(v ^ v, 6) == 0


class TestPhiR:
    """phi_R sends an even part of size 2..g+1 to its torsion mask."""

    def test_g2_image_nonzero(self):
        assert _canonical_bits(mask({1, 2}), 6) != 0

    def test_g2_bijective_on_pairs(self):
        images = {_canonical_bits(side, 6) for side in _side_masks(2, 2)}
        assert len(images) == 15 == 2 ** 4 - 1

    def test_g3_counts(self):
        assert count_partitions(3, 2) == 28
        assert count_partitions(3, 4) == 35
        assert 28 + 35 == 2 ** 6 - 1

    def test_odd_part_rejected(self):
        # only even parts of size 2..g+1 are mapped
        assert list(torsion_census(2)["prym_by_size"]) == [2]
        assert list(torsion_census(3)["prym_by_size"]) == [2, 4]
        assert list(torsion_census(6)["prym_by_size"]) == [2, 4, 6]


class TestPartitionClasses:
    @pytest.mark.parametrize("g", range(1, 7))
    def test_sides_match_oracle(self, g):
        n_pts = 2 * g + 2
        for n in range(n_pts + 1):
            sides = [frozenset(i + 1 for i in range(n_pts) if side >> i & 1)
                     for side in _side_masks(g, n)]
            assert sides == oracle_partition_sides(g, n)
            assert len(sides) == count_partitions(g, n)

    def test_make_keeps_canonical_side(self):
        # the smaller part, and for a balanced partition point 1's part
        assert 0b11 in _side_masks(2, 4)
        assert mask({3, 4, 5, 6}) not in _side_masks(2, 4)
        assert 0b111 in _side_masks(2, 3)
        assert mask({4, 5, 6}) not in _side_masks(2, 3)


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
        assert rep["prym_total"] == 2 ** (2 * g) - 1
        assert rep["phi_bijective"] is True
        assert rep["spin_census"] == rep["arf_census"]
        # values, not verdicts: the rows of the report compare them
        assert set(rep) == {"prym_total", "phi_bijective", "spin_census",
                            "arf_census"}

    def test_census_works_on_masks(self):
        # the census forms its images from side masks alone: the module
        # keeps no object layer over point sets
        assert verify_bijections(6)["phi_bijective"]
        for name in ("TorsionVector", "PartitionClass", "partition_classes",
                     "phi_R", "_mask"):
            assert not hasattr(theta_f2, name)

    def test_g2_values(self):
        census = torsion_census(2)
        assert census["prym_total"] == 15
        assert census["spin_even"] == 10
        assert census["spin_odd"] == 6

    def test_g1_odd_unique(self):
        # one odd theta characteristic on an elliptic curve
        assert arf_census(1)[1] == 1
