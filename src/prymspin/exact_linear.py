"""Exact linear algebra over Q, with one integer-first elimination engine.

Everything downstream (ring reductions, invariant subspaces, intersection
matrices, Hilbert functions) runs on this module, and all of its elimination
goes through ``SparseEchelon``:

* ``add_row`` multiplies an incoming rational row by the least common
  multiple of its denominators and divides out the gcd of its entries, so
  every stored row is a primitive integer row with a positive leading entry.
* A leading entry b is eliminated against a pivot row with leading entry a
  by replacing the row with (a/g)*row - (b/g)*pivot, g = gcd(a, b).  This is
  a nonzero integer multiple of row - (b/a)*pivot, so the span over Q is the
  same after every step (the fraction-free idea of Bareiss, Math. Comp.
  1968; dividing by the content instead of the previous pivot keeps each
  row the smallest integer multiple of itself).
* ``finish`` back-substitutes the same way, one combined integer step per
  row, and only at the end divides each row by its leading entry, which
  gives the unique reduced row-echelon form with ``Fraction`` entries.

Every step is an exact integer operation: there is no floating point and no
modular or probabilistic arithmetic, so ranks, pivots, kernels and solutions
need no certificate.  ``rref``, ``rank``, ``kernel_basis`` and ``solve`` are
thin adapters that feed the rows of a dense ``QMatrix`` through the engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# Arbitrary-precision rational; lowest terms and positive denominator are
# guaranteed by the constructor.  str() renders "p/q", or "p" when q == 1.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class QMatrix:
    """A dense rectangular matrix over Q.

    Rows are lists of Fractions.  Instances are treated as immutable once
    built; the reduction routines below always return fresh matrices.
    """

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[x if type(x) is Fraction else Fraction(x) for x in row]
                     for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[Fraction(1 if i == j else 0) for j in range(n)]
                    for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"QMatrix({self.nrows}x{self.ncols})"

    def mul_vec(self, v: Sequence) -> list:
        v = [Fraction(x) for x in v]
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum((r[j] * v[j] for j in range(self.ncols)), Fraction(0))
                for r in self.rows]


def rref(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row-echelon form and the list of pivot columns.

    Pivots move strictly rightwards and pivot entries are 1; the zero rows
    are padded at the bottom, so the result has the shape of ``m``.  The row
    space is preserved exactly.
    """
    ech = SparseEchelon()
    for row in m.rows:
        ech.add_row({j: x for j, x in enumerate(row) if x})
    reduced = ech.finish()
    pivots = sorted(reduced)
    rows = []
    for c in pivots:
        dense = [_ZERO] * m.ncols
        for j, x in reduced[c].items():
            dense[j] = x
        rows.append(dense)
    rows.extend([_ZERO] * m.ncols for _ in range(m.nrows - len(pivots)))
    return QMatrix(rows), pivots


def rank(m: QMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: QMatrix) -> list[list[Rational]]:
    """A basis of the right null space {v : m v = 0}.

    The vectors are read off the RREF: one per non-pivot column, with a 1 in
    that column.  They are linearly independent and span the kernel, so
    rank + len(kernel) == ncols.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [_ZERO] * m.ncols
        v[fc] = _ONE
        for r_idx, pc in enumerate(pivots):
            v[pc] = -red.rows[r_idx][fc]
        basis.append(v)
    return basis


def solve(m: QMatrix, b: Sequence) -> list[Rational] | None:
    """One solution of m x = b, or None when the system is inconsistent."""
    aug = QMatrix([row + [b[i]] for i, row in enumerate(m.rows)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [_ZERO] * m.ncols
    for r_idx, pc in enumerate(pivots):
        x[pc] = red.rows[r_idx][m.ncols]
    return x


def _make_primitive(row: dict[int, int]) -> None:
    """Divide a nonzero integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g != 1:
        for c in row:
            row[c] //= g


class SparseEchelon:
    """Incremental integer-first echelon form for sparse rational rows.

    Rows are dicts column -> rational (``Fraction`` or ``int``); the pivot
    of a row is its smallest column.  Feeding rows one at a time keeps
    memory proportional to the rank.  Each stored pivot row is a primitive
    integer row with a positive leading entry, kept as the pair (leading
    entry, other entries).  ``finish`` returns the reduced row-echelon form
    {pivot column: row dict}, with pivot entries 1 and ``Fraction`` values.
    """

    def __init__(self):
        self._pivots: dict[int, tuple[int, list[tuple[int, int]]]] = {}

    def add_row(self, row: dict[int, Rational]) -> bool:
        """Reduce a row against the current pivots; returns True if it added
        a new pivot (i.e. was independent)."""
        den = 1
        for v in row.values():
            if v.denominator != 1:
                den = lcm(den, v.denominator)
        work = {c: v.numerator * (den // v.denominator)
                for c, v in row.items() if v}
        pivots = self._pivots
        while work:
            lead = min(work)
            piv = pivots.get(lead)
            if piv is None:
                _make_primitive(work)
                lead_value = work.pop(lead)
                sign = -1 if lead_value < 0 else 1
                pivots[lead] = (sign * lead_value,
                                [(c, sign * v) for c, v in work.items()])
                return True
            a, tail = piv
            b = work.pop(lead)
            g = gcd(a, b)
            a //= g
            b //= g
            if a != 1:
                for c in work:
                    work[c] *= a
            get = work.get
            for c, v in tail:
                nv = get(c, 0) - b * v
                if nv:
                    work[c] = nv
                else:
                    del work[c]
            if a != 1 and work:
                _make_primitive(work)
        return False

    def finish(self) -> dict[int, dict[int, Fraction]]:
        """Back-substitute to full RREF; returns {pivot_col: row_dict}."""
        pivots = self._pivots
        for lead in sorted(pivots, reverse=True):
            a, tail = pivots[lead]
            hits = [(c, v) for c, v in tail if c in pivots]
            if not hits:
                continue
            # Rows of larger pivots are already reduced: they hold their own
            # pivot and free columns only, so one combined step clears every
            # pivot column of this row.  scale makes each multiplier integral.
            scale = 1
            for c, v in hits:
                p = pivots[c][0]
                scale = lcm(scale, p // gcd(p, v))
            work = {c: scale * v for c, v in tail if c not in pivots}
            get = work.get
            for c, v in hits:
                p, other = pivots[c]
                f = scale * v // p
                for oc, ov in other:
                    nv = get(oc, 0) - f * ov
                    if nv:
                        work[oc] = nv
                    else:
                        del work[oc]
            a *= scale
            g = gcd(a, *work.values())
            pivots[lead] = (a // g, [(c, v // g) for c, v in work.items()])
        out = {}
        for lead in sorted(pivots):
            a, tail = pivots[lead]
            row = {lead: _ONE}
            for c, v in sorted(tail):
                row[c] = Fraction(v, a)
            out[lead] = row
        return out

    @property
    def rank(self) -> int:
        return len(self._pivots)
