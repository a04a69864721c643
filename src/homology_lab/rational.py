"""Exact sparse linear algebra over the rationals.

Ranks and persistence pivots are computed by fraction-free elimination over
the integers (two-row cross-multiplication updates with per-row content
reduction, a Bareiss-style scheme adapted to sparse rows); solutions and
nullspaces use Fraction arithmetic.  Rank pivots are chosen by a
Markowitz-type fill heuristic: these boundary-style matrices are very sparse
and stay so under good pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional

IntRows = dict[int, dict[int, int]]
FracVec = dict[int, Fraction]


def _content_reduce(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def rank_int(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse rows."""
    live: IntRows = {}
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        nz = {c: int(v) for c, v in r.items() if v}
        if nz:
            _content_reduce(nz)
            live[i] = nz
            for c in nz:
                col_rows.setdefault(c, set()).add(i)
    rank = 0
    while live:
        # pivot column: fewest rows; pivot row within it: fewest entries,
        # then smallest magnitude entry
        c0 = min(col_rows, key=lambda c: (len(col_rows[c]), c))
        r0 = min(
            col_rows[c0],
            key=lambda r: (len(live[r]), abs(live[r][c0]), r),
        )
        p = live[r0][c0]
        pivot_row = live.pop(r0)
        for c in pivot_row:
            col_rows[c].discard(r0)
            if not col_rows[c]:
                del col_rows[c]
        rank += 1
        targets = list(col_rows.get(c0, ()))
        for r in targets:
            row = live[r]
            v = row[c0]
            for c in row:
                s = col_rows.get(c)
                if s is not None:
                    s.discard(r)
                    if not s:
                        del col_rows[c]
            new: dict[int, int] = {}
            for c, pv in row.items():
                new[c] = p * pv
            for c, qv in pivot_row.items():
                w = new.get(c, 0) - v * qv
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            if new:
                _content_reduce(new)
                live[r] = new
                for c in new:
                    col_rows.setdefault(c, set()).add(r)
            else:
                del live[r]
    return rank


def column_pivots(cols: Iterable[Mapping[int, int]]) -> list[int | None]:
    """Pivot row of each integer column after reducing against earlier ones.

    Columns are taken in the given order.  While a column's pivot (its
    smallest nonzero row) is the pivot of an earlier reduced column, that
    column is eliminated from it by a fraction-free integer update.  Zero
    columns get None.  This is the standard persistence reduction, exact
    over Q.
    """
    by_pivot: IntRows = {}  # pivot row -> reduced column
    out: list[int | None] = []
    for col in cols:
        cur = {r: int(v) for r, v in col.items() if v}
        while cur:
            low = min(cur)
            other = by_pivot.get(low)
            if other is None:
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
        if cur:
            low = min(cur)
            by_pivot[low] = cur
            out.append(low)
        else:
            out.append(None)
    return out


class Eliminator:
    """Sparse Gaussian elimination over Fractions with recorded pivots.

    Supports rank, linear solve with witness, and nullspace extraction.
    Rows are eliminated into an echelon list; column order is free (pivots
    chosen for sparsity).
    """

    def __init__(self, rows: Iterable[Mapping[int, Fraction]], ncols: int):
        self.ncols = ncols
        self.echelon: list[tuple[int, FracVec]] = []  # (pivot col, row)
        self.pivot_of_col: dict[int, int] = {}  # col -> echelon position
        for r in rows:
            self.add_row(dict(r))

    def reduce_row(self, row: FracVec) -> FracVec:
        row = {c: Fraction(v) for c, v in row.items() if v != 0}
        for c, pos in sorted(self.pivot_of_col.items(), key=lambda t: t[1]):
            if c in row:
                _, prow = self.echelon[pos]
                f = row[c]
                for cc, vv in prow.items():
                    w = row.get(cc, Fraction(0)) - f * vv
                    if w:
                        row[cc] = w
                    elif cc in row:
                        del row[cc]
        return row

    def add_row(self, row: FracVec) -> bool:
        """Reduce and insert; returns True if the row increased the rank."""
        row = self.reduce_row(row)
        if not row:
            return False
        c0 = min(row)
        p = row[c0]
        normalized = {c: v / p for c, v in row.items()}
        self.pivot_of_col[c0] = len(self.echelon)
        self.echelon.append((c0, normalized))
        return True

    @property
    def rank(self) -> int:
        return len(self.echelon)

    def in_span(self, row: FracVec) -> bool:
        return not self.reduce_row(row)


def rank_fraction(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> int:
    return Eliminator(rows, ncols).rank


def solve(
    rows_by_col: Mapping[int, Mapping[int, Fraction]],
    nrows: int,
    b: Mapping[int, Fraction],
) -> Optional[FracVec]:
    """Solve A x = b where A is given column-wise (col -> {row: value}).

    Returns a sparse solution vector {col: value} or None if inconsistent.
    Free variables are set to zero.
    """
    # eliminate on the transposed system: treat columns as vectors, do
    # forward elimination with an augmented RHS tracked per echelon row.
    elim: list[tuple[int, FracVec, FracVec]] = []  # (pivot row index, column vec, combo)
    pivot_rows: dict[int, int] = {}
    for col, vec in rows_by_col.items():
        v = {r: Fraction(x) for r, x in vec.items() if x != 0}
        combo: FracVec = {col: Fraction(1)}
        for pr, pvec, pcombo in elim:
            if pr in v:
                f = v[pr]
                for rr, vv in pvec.items():
                    w = v.get(rr, Fraction(0)) - f * vv
                    if w:
                        v[rr] = w
                    elif rr in v:
                        del v[rr]
                for cc, vv in pcombo.items():
                    w = combo.get(cc, Fraction(0)) - f * vv
                    if w:
                        combo[cc] = w
                    elif cc in combo:
                        del combo[cc]
        if not v:
            continue
        r0 = min(v)
        p = v[r0]
        v = {r: x / p for r, x in v.items()}
        combo = {c: x / p for c, x in combo.items()}
        pivot_rows[r0] = len(elim)
        elim.append((r0, v, combo))
    # reduce b against the echelon columns
    resid = {r: Fraction(x) for r, x in b.items() if x != 0}
    solution: FracVec = {}
    for pr, pvec, pcombo in elim:
        if pr in resid:
            f = resid[pr]
            for rr, vv in pvec.items():
                w = resid.get(rr, Fraction(0)) - f * vv
                if w:
                    resid[rr] = w
                elif rr in resid:
                    del resid[rr]
            for cc, vv in pcombo.items():
                w = solution.get(cc, Fraction(0)) + f * vv
                if w:
                    solution[cc] = w
                elif cc in solution:
                    del solution[cc]
    if resid:
        return None
    return solution


def nullspace(
    rows: Iterable[Mapping[int, Fraction]],
    ncols: int,
    cols: Iterable[int] | None = None,
) -> list[FracVec]:
    """Basis of the kernel of the matrix (rows over the given column set)."""
    col_list = list(cols) if cols is not None else list(range(ncols))
    col_set = set(col_list)
    elim = Eliminator([], ncols)
    for r in rows:
        elim.add_row({c: v for c, v in r.items() if c in col_set})
    pivot_cols = set(elim.pivot_of_col)
    free_cols = [c for c in col_list if c not in pivot_cols]
    basis: list[FracVec] = []
    # echelon rows sorted by insertion order; back-substitute per free column
    for fc in free_cols:
        vec: FracVec = {fc: Fraction(1)}
        # walk echelon in reverse insertion order
        for c0, row in reversed(elim.echelon):
            s = Fraction(0)
            for c, v in row.items():
                if c != c0 and c in vec:
                    s += v * vec[c]
            if s:
                vec[c0] = -s
        basis.append(vec)
    return basis
