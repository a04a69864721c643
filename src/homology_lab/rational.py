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

Inputs are sparse integer columns ``{row: value}``; Fractions appear only in
the witnesses ``solve`` returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

IntVec = dict[int, int]


def _content_reduce(col: IntVec) -> None:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for r in col:
            col[r] //= g


def reduce_columns(cols: Iterable[Mapping[int, int]]) -> list[IntVec]:
    """Each integer column reduced against the earlier ones, in order.

    A reduced column is {} when the column lies in the span of the earlier
    ones; otherwise its pivot ``min(col)`` differs from every earlier pivot.
    Reduced columns are primitive (their entries have gcd 1).  Exact over Q.
    """
    by_pivot: dict[int, IntVec] = {}  # pivot row -> reduced column
    out: list[IntVec] = []
    for col in cols:
        cur = {r: int(v) for r, v in col.items() if v}
        _content_reduce(cur)
        while cur:
            low = min(cur)
            other = by_pivot.get(low)
            if other is None:
                by_pivot[low] = cur
                break
            g = gcd(other[low], cur[low])
            p, v = other[low] // g, cur[low] // g
            new = {r: p * x for r, x in cur.items()}
            for r, y in other.items():
                w = new.get(r, 0) - v * y
                if w:
                    new[r] = w
                else:
                    del new[r]
            _content_reduce(new)
            cur = new
        out.append(cur)
    return out


def rank_int(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse rows.

    The rows are transposed and the columns reduced in descending index,
    which on coboundary matrices finds pivots with far less fill than
    ascending order.
    """
    cols: dict[int, IntVec] = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols.setdefault(c, {})[i] = v
    reduced = reduce_columns(cols[c] for c in sorted(cols, reverse=True))
    return sum(1 for col in reduced if col)


def rank_fraction(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> int:
    """Rank of rational rows; unused here, kept as bench/tracing.py wraps it."""
    scaled = []
    for row in rows:
        d = lcm(*(Fraction(v).denominator for v in row.values()))
        scaled.append({c: int(Fraction(v) * d) for c, v in row.items()})
    return rank_int(scaled)


def _tagged(cols: Sequence[Mapping[int, int]], nrows: int) -> list[IntVec]:
    return [{**col, nrows + j: 1} for j, col in enumerate(cols)]


def nullspace(cols: Sequence[Mapping[int, int]], nrows: int) -> list[IntVec]:
    """Primitive integer basis of the kernel of A, given A's columns.

    Rows of A are numbered below ``nrows``; each basis vector is
    {column index: coefficient}.
    """
    return [
        {r - nrows: v for r, v in col.items()}
        for col in reduce_columns(_tagged(cols, nrows))
        if col and min(col) >= nrows
    ]


def solve(
    cols: Sequence[Mapping[int, int]],
    nrows: int,
    b: Mapping[int, Fraction],
) -> Optional[dict[int, Fraction]]:
    """A solution {column index: value} of A x = b, or None if there is none.

    A is given by its integer columns, b as {row: rational value}.  b is
    scaled to integers and reduced last with the tag ``nrows + len(cols)``;
    when its matrix part cancels, x_j = -tag_j / tag_b.
    """
    n = len(cols)
    scale = lcm(*(Fraction(v).denominator for v in b.values()))
    rhs = {r: int(Fraction(v) * scale) for r, v in b.items()}
    rhs[nrows + n] = 1
    reduced = reduce_columns([*_tagged(cols, nrows), rhs])[-1]
    if min(reduced) < nrows:
        return None
    tag_b = reduced[nrows + n] * scale
    return {r - nrows: Fraction(-v, tag_b) for r, v in reduced.items() if r != nrows + n}
