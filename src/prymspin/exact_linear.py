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
  row, and returns the reduced rows in integer form.  ``rref`` divides
  each row by its leading entry, which gives the unique reduced
  row-echelon form with ``Fraction`` entries; the Keel build reads the
  integer rows themselves.

Every step is an exact integer operation: there is no floating point and no
modular or probabilistic arithmetic, so ranks, pivots, kernels and solutions
need no certificate.  ``rref``, ``rank``, ``kernel_basis`` and ``solve`` are
thin adapters that feed the sparse rows of a ``QMatrix`` through the engine
and return sparse results.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

# Arbitrary-precision rational; lowest terms and positive denominator are
# guaranteed by the constructor.  str() renders "p/q", or "p" when q == 1.
Rational = Fraction

_ONE = Fraction(1)


class QMatrix:
    """A matrix over Q: sparse rows, each a dict column -> int or
    ``Fraction`` (absent columns are 0), over ``ncols`` columns."""

    def __init__(self, rows: list[dict], ncols: int):
        self.rows = rows
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _check_columns(m: QMatrix) -> None:
    for row in m.rows:
        if row and not 0 <= min(row) <= max(row) < m.ncols:
            raise ValueError(f"column outside 0..{m.ncols - 1}: {sorted(row)}")


def rref(m: QMatrix) -> tuple[list[dict[int, Fraction]], list[int]]:
    """The nonzero rows of the reduced row-echelon form, in pivot order, and
    their pivot columns.

    Pivots move strictly rightwards and pivot entries are 1; the row space
    is preserved exactly.  A column outside 0..ncols-1 raises ValueError.
    """
    _check_columns(m)
    ech = SparseEchelon()
    for row in m.rows:
        ech.add_row(row)
    red, pivots = [], []
    for lead, (a, tail) in sorted(ech.finish().items()):
        row = {lead: _ONE}
        for c, v in sorted(tail):
            row[c] = Fraction(v, a)
        red.append(row)
        pivots.append(lead)
    return red, pivots


def rank(m: QMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: QMatrix) -> list[dict[int, Fraction]]:
    """A basis of the right null space {v : m v = 0}, as sparse vectors of
    their nonzero entries.

    The vectors are read off the RREF: one per non-pivot column, with a 1 in
    that column.  They are linearly independent and span the kernel, so
    rank + len(kernel) == ncols.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for fc in range(m.ncols):
        if fc in pivot_set:
            continue
        v = {fc: _ONE}
        for row, pc in zip(red, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(m: QMatrix, b: dict) -> dict[int, Fraction] | None:
    """One solution x of m x = b, or None when the system is inconsistent;
    b maps rows and x maps columns to their entries, absent entries are 0."""
    _check_columns(m)
    if not b.keys() <= set(range(m.nrows)):
        raise ValueError(f"b has an entry outside rows 0..{m.nrows - 1}")
    w = m.ncols
    red, pivots = rref(QMatrix([{**row, w: b[i]} if i in b else row
                                for i, row in enumerate(m.rows)], w + 1))
    if w in pivots:
        return None
    return {pc: row[w] for row, pc in zip(red, pivots) if w in row}


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
    in that integer form, {pivot column: (leading entry, other entries)}.
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
        # The columns of work in a heap: a column that elimination clears
        # stays behind until it reaches the top, and each column that
        # fill-in creates is pushed, so the top live column is the lead.
        heap = list(work)
        heapify(heap)
        pivots = self._pivots
        while work:
            lead = heappop(heap)
            while lead not in work:
                lead = heappop(heap)
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
                old = get(c)
                if old is None:
                    work[c] = -b * v
                    heappush(heap, c)
                elif old == b * v:
                    del work[c]
                else:
                    work[c] = old - b * v
            if a != 1 and work:
                _make_primitive(work)
        return False

    def finish(self) -> dict[int, tuple[int, list[tuple[int, int]]]]:
        """Back-substitute to full RREF in integer form: {pivot_col: (a,
        [(col, v), ...])}, the row a*x_pivot + sum(v*x_col), primitive with
        a > 0 and with every other column free.  Dividing by a gives the
        rows of ``rref``."""
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
        return dict(pivots)

    @property
    def rank(self) -> int:
        return len(self._pivots)
