"""Exact sparse linear algebra over the rationals, by one integer reduction.

``reduce_columns`` is the persistence column reduction (Bauer, "Ripser",
JACT 2021), made fraction-free: while a column's pivot (its smallest nonzero
row) is the pivot of an earlier column, the earlier column is cancelled out
of it by an integer cross-multiplication, and the result is divided by its
content.  Every exact routine is a reading of that one reduction:

- rank: the number of nonzero reduced columns;
- persistence pairs: each nonzero reduced column with its pivot;
- kernel and linear solve: each column j carries an extra identity row
  ``nrows + j`` (its tag), so a reduced column records which combination of
  the input columns it is.  A reduced column whose pivot lies in the tag rows
  has a zero matrix part, so its tags are a kernel vector.

Columns come in compressed arrays (``Columns``); ``nullspace`` and ``solve``
insert their tag rows into the arrays.  Ranks and filtration pairs reduce in
the cohomology direction, as Ripser does: the columns of a coboundary d^k,
one per k-simplex, in descending order, each column's pivot its first
coface.  A column is apparent when it is the first column, in the
reduction's order, that holds its own pivot row: no earlier reduced column,
a combination of earlier input columns, can hold that row, so the column is
its own reduced form.  One array pass registers every apparent column at its
pivot before the loop runs, and the loop visits only the other columns.  A
visited column whose pivot no earlier column holds when it comes up is its
own reduced form as well and is registered by its index, so a column
becomes a dict only when a later column collides with its pivot or it
collides with an earlier one.  On the gadget complexes about three columns
in four are apparent and two thirds of the rest find their pivot free.

Clearing (Chen-Kerber, "Persistent homology computation with a twist",
EuroCG 2011; as in Ripser's cohomology): callers reduce the degrees
bottom-up and leave out of d^k every column whose k-simplex is a pivot of
d^{k-1}'s reduction.  Such a column would reduce to {}.  A reduced column
of d^{k-1} is d^{k-1} of a chain: c e_s plus k-simplices that come after s
in the pivot order (its pivot s comes first), so d^k d^{k-1} = 0 puts
column s of d^k in the span of the columns of those k-simplices; d^k's
reduction visits them before s.  A column that reduces to {} changes no
other column, so the rank and the pivots come out the same from fewer
columns.  Against the boundary-direction reduction of the same ranks (the
rows of d^k, last first, cleared top-down), column additions drop 4-9x: 391
to 59 for the pages of the glued 2-qubit gadget, 17,408 to 5,690 for the
ranks of the 4-qubit basis state Hclock4.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Optional

import numpy as np

IntVec = dict[int, int]


class Columns:
    """Sparse integer columns in compressed form.

    Column j holds the rows ``rows[indptr[j]:indptr[j + 1]]`` with the
    nonzero values ``vals`` at the same positions; its rows are distinct.
    ``len`` is the number of columns.
    """

    __slots__ = ("indptr", "rows", "vals")

    def __init__(self, indptr: np.ndarray, rows: np.ndarray, vals: np.ndarray):
        self.indptr, self.rows, self.vals = indptr, rows, vals

    @classmethod
    def from_dicts(cls, cols: Iterable[Mapping[int, int]]) -> "Columns":
        """Columns {row: value}, zero values dropped."""
        cols = [{r: v for r, v in col.items() if v} for col in cols]
        indptr = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum([len(col) for col in cols], out=indptr[1:])
        rows = np.fromiter(chain.from_iterable(cols), np.int64, indptr[-1])
        vals = [v for col in cols for v in col.values()]
        try:
            return cls(indptr, rows, np.array(vals, dtype=np.int64))
        except OverflowError:  # a scaled right-hand side may be wide
            return cls(indptr, rows, np.array(vals, dtype=object))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, j: int) -> IntVec:
        s, e = self.indptr[j], self.indptr[j + 1]
        return dict(zip(self.rows[s:e].tolist(), self.vals[s:e].tolist()))


def _content_reduce(col: IntVec) -> IntVec:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        for r in col:
            col[r] //= g
    return col


def _apparent(cols: Columns) -> tuple[np.ndarray, np.ndarray]:
    """Each column's pivot (-1 for an empty one), and whether it is apparent:
    the first column that holds its pivot row."""
    n, indptr, rows = len(cols), cols.indptr, cols.rows
    sizes = indptr[1:] - indptr[:-1]
    nonempty = sizes > 0
    pivot = np.full(n, -1, dtype=np.int64)
    if not rows.size:
        return pivot, nonempty
    # the empty columns between two starts add nothing to a segment's minimum
    pivot[nonempty] = np.minimum.reduceat(rows, indptr[:-1][nonempty])
    first = np.full(int(rows.max()) + 1, n)  # the first column holding each row
    np.minimum.at(first, rows, np.repeat(np.arange(n), sizes))
    return pivot, nonempty & (first[pivot] == np.arange(n))


def reduce_columns(cols: Columns) -> tuple[np.ndarray, dict[int, IntVec]]:
    """Each integer column reduced against the earlier ones, in order.

    Returns each column's pivot (``min`` of its reduced column; -1 when it
    lies in the span of the earlier ones) and the reduced columns the loop
    built as dicts: every column that had an earlier column added to it,
    and every column so added.  Any other reduced column is its input,
    divided by its content.  Pivots differ, reduced columns are primitive
    (their entries have gcd 1), and everything is exact over Q.
    """
    pivot, apparent = _apparent(cols)
    # pivot row -> reduced column, or the index of a column that is its own
    # reduced form and has not been read as a dict yet
    by_pivot: dict[int, IntVec | int] = dict(
        zip(pivot[apparent].tolist(), np.flatnonzero(apparent).tolist())
    )
    built: dict[int, IntVec] = {}
    todo = np.flatnonzero((pivot >= 0) & ~apparent)
    for j, low in zip(todo.tolist(), pivot[todo].tolist()):
        if low not in by_pivot:  # no earlier column holds this pivot: j stays as it is
            by_pivot[low] = j
            continue
        cur = _content_reduce(cols[j])
        while cur:
            low = min(cur)
            other = by_pivot.get(low)
            if other is None:
                by_pivot[low] = cur
                break
            if type(other) is int:
                a, other = other, _content_reduce(cols[other])
                by_pivot[low] = built[a] = other
            g = gcd(other[low], cur[low])
            p, v = other[low] // g, cur[low] // g
            new = {r: p * x for r, x in cur.items()}
            for r, y in other.items():
                w = new.get(r, 0) - v * y
                if w:
                    new[r] = w
                else:
                    del new[r]
            cur = _content_reduce(new)
        built[j] = cur
        pivot[j] = min(cur) if cur else -1
    return pivot, built


def rank_int(cols: Columns) -> tuple[int, np.ndarray]:
    """Rank over Q of an integer matrix given by columns, and each column's
    pivot in its reduction (``reduce_columns``)."""
    pivot, _ = reduce_columns(cols)
    return int(np.count_nonzero(pivot >= 0)), pivot


def rank_fraction(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> int:
    """Rank of rational rows; unused here, kept as bench/tracing.py wraps it."""
    scaled = []
    for row in rows:
        d = lcm(*(Fraction(v).denominator for v in row.values()))
        scaled.append({c: int(Fraction(v) * d) for c, v in row.items()})
    return rank_int(Columns.from_dicts(scaled))[0]


def _reduced_tagged(cols: Columns, nrows: int):
    """The reduction of the columns, each with its tag row ``nrows + j``
    appended, and a reader of the reduced column j."""
    n = len(cols)
    tagged = Columns(
        cols.indptr + np.arange(n + 1),
        np.insert(cols.rows, cols.indptr[1:], nrows + np.arange(n)),
        np.insert(cols.vals, cols.indptr[1:], 1),
    )
    pivot, built = reduce_columns(tagged)
    return pivot, lambda j: built[j] if j in built else _content_reduce(tagged[j])


def nullspace(cols: Columns, nrows: int) -> list[IntVec]:
    """Primitive integer basis of the kernel of A, given A's columns.

    Rows of A are numbered below ``nrows``; each basis vector is
    {column index: coefficient}.
    """
    pivot, reduced = _reduced_tagged(cols, nrows)
    return [
        {r - nrows: v for r, v in reduced(j).items()}
        for j in np.flatnonzero(pivot >= nrows).tolist()
    ]


def solve(cols: Columns, nrows: int, b: Mapping[int, Fraction]) -> Optional[dict[int, Fraction]]:
    """A solution {column index: value} of A x = b, or None if there is none;
    unused here, kept for the tests' boundary witness (``cycle_is_boundary``
    in tests/reference.py) and as bench/tracing.py wraps it.

    A is given by its integer columns, b as {row: rational value}.  b is
    scaled to integers, appended as the last column and reduced with the tag
    ``nrows + len(cols)``; when its matrix part cancels, x_j = -tag_j / tag_b.
    """
    n = len(cols)
    scale = lcm(*(Fraction(v).denominator for v in b.values()))
    rhs = Columns.from_dicts([{r: int(Fraction(v) * scale) for r, v in b.items()}])
    indptr = np.append(cols.indptr, cols.indptr[-1] + rhs.indptr[1:])
    both = Columns(indptr, np.concatenate([cols.rows, rhs.rows]),
                   np.concatenate([cols.vals, rhs.vals]))  # object values when b is wide
    pivot, reduced = _reduced_tagged(both, nrows)
    if pivot[n] < nrows:
        return None
    # the rhs carries the tag nrows + n, as a column of A would
    reduced_b = reduced(n)
    tag_b = reduced_b[nrows + n] * scale
    return {r - nrows: Fraction(-v, tag_b) for r, v in reduced_b.items() if r != nrows + n}
