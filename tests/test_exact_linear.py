import random
from fractions import Fraction
from math import gcd

import pytest

from oracles import FractionEchelon, reference_rref
from prymspin.exact_linear import (QMatrix, SparseEchelon, kernel_basis, rank,
                                   rref, solve)


def test_rref_identity():
    m = QMatrix.identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]


def test_rref_rank_one():
    red, pivots = rref(QMatrix([[1, 2], [2, 4]]))
    assert red.rows == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_rref_idempotent():
    rng = random.Random(7)
    m = QMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(6)] for _ in range(4)])
    red, _ = rref(m)
    red2, _ = rref(red)
    assert red == red2


def test_kernel_examples():
    assert kernel_basis(QMatrix.identity(2)) == []
    ker = kernel_basis(QMatrix([[1, 1]]))
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == -v[1] and v[1] != 0


def test_rank_plus_kernel_is_cols():
    rng = random.Random(11)
    for _ in range(10):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = QMatrix([[rng.randint(-3, 3) for _ in range(cols)]
                     for _ in range(rows)])
        assert rank(m) + len(kernel_basis(m)) == cols


def test_solve_consistent_and_inconsistent():
    m = QMatrix([[1, 2], [3, 4]])
    x = solve(m, [5, 6])
    assert x is not None and m.mul_vec(x) == [Fraction(5), Fraction(6)]
    assert solve(QMatrix([[1, 1], [1, 1]]), [0, 1]) is None


def test_modular_rank_oracle_random_matrix():
    # rank over Q of a random 50x80 matrix equals the rank mod a large prime
    # chosen away from every denominator
    rng = random.Random(2024)
    p = 2147483647
    m = QMatrix([[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
                  for _ in range(80)] for _ in range(50)])
    from oracles import mod_rank
    rows = []
    for r in m.rows:
        denom = 1
        for x in r:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        rows.append({j: int(x * denom) for j, x in enumerate(r) if x})
    assert rank(m) == mod_rank(rows, 80, p)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_sparse_echelon_matches_dense():
    # the engine against the Fraction reference elimination of the oracles
    rng = random.Random(3)
    rows = [[rng.randint(-2, 2) for _ in range(7)] for _ in range(9)]
    ech = SparseEchelon()
    ref = FractionEchelon()
    for r in rows:
        assert (ech.add_row({i: Fraction(v) for i, v in enumerate(r) if v})
                == ref.add_row({i: v for i, v in enumerate(r) if v}))
    assert ech.rank == len(ref.pivot_rows) == rank(QMatrix(rows))
    assert ech.finish() == ref.finish()


def _random_matrix(rng, nrows, ncols, entry):
    return [[entry() if rng.random() < 0.6 else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]


def _assert_matches_oracle(rows, ncols):
    red, pivots = rref(QMatrix(rows))
    ref_pivots, ref_rows = reference_rref(rows, ncols)
    assert pivots == ref_pivots
    assert red.rows == ref_rows
    ech = SparseEchelon()
    for r in rows:
        ech.add_row({j: x for j, x in enumerate(r) if x})
        # stored rows stay primitive integer rows with a positive lead
        for lead_value, tail in ech._pivots.values():
            assert lead_value > 0
            assert gcd(lead_value, *(v for _, v in tail)) == 1
    reduced = ech.finish()
    assert sorted(reduced) == ref_pivots
    for i, c in enumerate(ref_pivots):
        assert reduced[c] == {j: x for j, x in enumerate(ref_rows[i]) if x}


@pytest.mark.parametrize("seed", range(6))
def test_engine_matches_oracle_mixed_denominators(seed):
    rng = random.Random(100 + seed)
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    rows = _random_matrix(rng, nrows, ncols, lambda: Fraction(
        rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 6, 7, 9, 25])))
    _assert_matches_oracle(rows, ncols)


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_oracle_zero_and_duplicate_rows(seed):
    rng = random.Random(200 + seed)
    ncols = rng.randint(2, 9)
    base = _random_matrix(rng, 4, ncols, lambda: Fraction(
        rng.randint(-5, 5), rng.randint(1, 5)))
    rows = base + [list(base[1]), [Fraction(0)] * ncols,
                   [3 * x for x in base[0]], list(base[1])]
    rng.shuffle(rows)
    _assert_matches_oracle(rows, ncols)
    assert rank(QMatrix(rows)) <= 4


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_oracle_negative_leads(seed):
    rng = random.Random(300 + seed)
    ncols = rng.randint(3, 10)
    rows = []
    for _ in range(rng.randint(2, 10)):
        lead = rng.randrange(ncols)
        row = [Fraction(0)] * ncols
        row[lead] = -Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for j in range(lead + 1, ncols):
            row[j] = Fraction(rng.randint(-4, 4))
        rows.append(row)
    _assert_matches_oracle(rows, ncols)


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_oracle_large_coefficients(seed):
    rng = random.Random(400 + seed)
    nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
    rows = _random_matrix(rng, nrows, ncols, lambda: Fraction(
        rng.randint(10**12 - 10**6, 10**12 + 10**6) * rng.choice([1, -1]),
        rng.choice([1, 10**12 - 11, 999_999_937])))
    _assert_matches_oracle(rows, ncols)


def test_engine_empty_matrix():
    red, pivots = rref(QMatrix([]))
    assert (red.nrows, red.ncols, pivots) == (0, 0, [])
    red, pivots = rref(QMatrix([[0, 0], [0, 0]]))
    assert pivots == [] and red.rows == [[0, 0], [0, 0]]
    ech = SparseEchelon()
    assert ech.add_row({}) is False
    assert ech.finish() == {} and ech.rank == 0
    assert kernel_basis(QMatrix([])) == []
    assert solve(QMatrix([[0]]), [0]) == [0]


def test_a4_kernel_vector():
    # the 9x5 intersection matrix has a one-dimensional kernel spanned by a
    # multiple of (1, 6, -3, 12, -8)
    from prymspin.pushpull import intersection_table
    _, cols, mat = intersection_table("R2")
    ker = kernel_basis(mat)
    assert len(ker) == 1
    order = ["d0p", "d0pp", "d0r", "d1", "d11"]
    v = [ker[0][cols.index(c)] for c in order]
    scale = v[0]
    assert scale != 0
    assert [x / scale for x in v] == [1, 6, -3, 12, -8]
