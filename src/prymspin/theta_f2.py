"""Two-torsion and theta characteristics of a hyperelliptic curve in the
field-of-two-elements model, on integer bitmasks: branch point i is bit i-1.

The 2-torsion of a double cover of the line branched at 2g+2 points is the
even-weight masks modulo the all-ones mask, with the intersection pairing
popcount(S & T) mod 2.  Square roots of the trivial bundle correspond to
balanced partitions of the branch points into even parts; theta
characteristics correspond to the partitions of the opposite parity, with
the parity of sections given by the residue of g - n + 1 modulo 4.  All of
this is checked against a brute-force Arf census: each quadratic refinement
of the standard symplectic form is the mask of its values at all 2^(2g)
points, and a Gray-code walk reaches each from the last by one XOR.
"""

from __future__ import annotations

import itertools
from math import comb


def _canonical_bits(bits: int, n_pts: int) -> int:
    """The representative of a mask modulo the all-ones mask: the side of
    smaller weight, and for balanced weight the side without point 1."""
    comp = bits ^ ((1 << n_pts) - 1)
    w, wc = bits.bit_count(), comp.bit_count()
    if w < wc:
        return bits
    if wc < w:
        return comp
    return bits if not (bits & 1) else comp


def _side_masks(g: int, n: int) -> list[int]:
    """The side masks of the size-n partitions in lexicographic order:
    the k-subsets of the powers of two, k the smaller part size."""
    n_pts = 2 * g + 2
    if not 0 <= n <= n_pts:
        raise ValueError("part size out of range")
    k = min(n, n_pts - n)
    points = [1 << i for i in range(n_pts)]
    if 2 * k == n_pts:
        # balanced: the first half of the k-subsets, those holding point 1
        return [1 | sum(c) for c in itertools.combinations(points[1:], k - 1)]
    return [sum(c) for c in itertools.combinations(points, k)]


def count_partitions(g: int, n: int) -> int:
    """|P_n| in closed form: binomial, halved for the balanced case."""
    n_pts = 2 * g + 2
    if n == n_pts - n:
        return comb(n_pts, n) // 2
    return comb(n_pts, min(n, n_pts - n))


def spin_parity(g: int, n: int) -> str:
    """Parity of the theta characteristic attached to a size-n partition:
    'even' exactly when g - n + 1 is divisible by 4."""
    if n % 2 != (g + 1) % 2 or not 0 <= n <= g + 1:
        raise ValueError("part size incompatible with the genus")
    return "even" if (g - n + 1) % 4 == 0 else "odd"


def arf_census(g: int) -> tuple[int, int]:
    """Brute-force count of even and odd quadratic refinements of the
    standard symplectic form on a 2g-dimensional space over the field with
    two elements.  A refinement is even when it has 2^(2g-1) + 2^(g-1)
    zeros; the census comes out (2^(2g-1)+2^(g-1), 2^(2g-1)-2^(g-1))."""
    if not 1 <= g <= 8:
        raise ValueError(f"genus {g} is outside the supported range 1..8")
    dim = 2 * g
    size = 1 << dim
    # bit x of q0 is q0(x) = sum x_{2i} x_{2i+1}; a new pair (x_{2k},
    # x_{2k+1}) = t picks the block t of four, negated when t = 3
    q0 = 0
    for k in range(g):
        s = 1 << (2 * k)
        q0 |= q0 << s | q0 << (2 * s) | (q0 ^ ((1 << s) - 1)) << (3 * s)
    # bit x of lin[i] is x_i: blocks of 2^i zeros and 2^i ones in turn
    ones = (1 << size) - 1
    lin = [ones // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
           for i in range(dim)]
    even_zero_count = (1 << (dim - 1)) + (1 << (g - 1))
    # Gray code: step j flips c_i for i the lowest set bit of j
    qc = q0
    even = int(size - qc.bit_count() == even_zero_count)
    for j in range(1, size):
        qc ^= lin[(j & -j).bit_length() - 1]
        even += size - qc.bit_count() == even_zero_count
    return even, size - even


def torsion_census(g: int) -> dict:
    """Counts on the partition side: square roots of the trivial bundle per
    even part size, and theta characteristics split by parity."""
    prym_sizes = [n for n in range(2, g + 2) if n % 2 == 0]
    spin_sizes = [n for n in range(0, g + 2) if n % 2 == (g + 1) % 2]
    prym = {n: count_partitions(g, n) for n in prym_sizes}
    even = sum(count_partitions(g, n) for n in spin_sizes
               if spin_parity(g, n) == "even")
    odd = sum(count_partitions(g, n) for n in spin_sizes
              if spin_parity(g, n) == "odd")
    return {"prym_by_size": prym, "prym_total": sum(prym.values()),
            "spin_even": even, "spin_odd": odd}


def verify_bijections(g: int) -> dict:
    """The values behind the three counting statements: the count of even
    partitions, whether they biject with the nonzero 2-torsion (injectivity
    checked pointwise), and the partition and brute-force Arf censuses.  The
    Arf census runs first: a genus outside 1..8 is refused before any work."""
    arf_even, arf_odd = arf_census(g)
    census = torsion_census(g)
    prym_expected = (1 << (2 * g)) - 1
    images: set[int] = set()
    injective = True
    for n in census["prym_by_size"]:
        for side in _side_masks(g, n):
            v = _canonical_bits(side, 2 * g + 2)
            if not v or v in images:
                injective = False
            images.add(v)
    surjective = len(images) == prym_expected
    return {
        "prym_total": census["prym_total"],
        "phi_bijective": injective and surjective,
        "spin_census": (census["spin_even"], census["spin_odd"]),
        "arf_census": (arf_even, arf_odd),
    }
