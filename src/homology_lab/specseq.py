"""Spectral sequence of the vertex-weight filtration, over exact rationals.

The filtration U_l^k is the span of the k-simplices at weight level at least
l, a simplex's level being the sum of its vertex exponents, which
``CliqueComplex.levels`` records as the simplices are enumerated.  It is
coordinate-aligned and d-compatible (d^k maps U_l^k into U_l^{k+1}) by
construction, so it is not checked: a coface adds one vertex, whose exponent
``WeightedGraph`` keeps nonnegative, so its level is at least its face's.
Over a field the filtered complex splits into interval pairs (Basu-Parida,
"Spectral sequences, exact couples and persistent homology of filtrations",
Expo. Math. 2017).  The pairs come from one persistence reduction per degree
of the columns of d^k at lam := 1, in the cohomology direction as in
Ripser: k-simplices in descending (level, index), each column's pivot its
coface that comes first in ascending (level, index).  The degrees are
reduced bottom-up, and the columns of d^k at the cofaces of d^{k-1}'s pairs
are cleared (left out; see ``rational``), and apparent columns are
registered without a pass through the reduction loop.  By persistence
duality (de Silva, Morozov, Vejdemo-Johansson, "Dualities in persistent
(co)homology", Inverse Problems 2011) these are the pairs the boundary
reduction finds, with 59 column additions instead of 391 on the glued
2-qubit gadget.  A pair of a k-simplex at level a with a
(k+1)-simplex at level b >= a survives at both ends up to page b - a, and
unpaired simplices survive every page:

    e_{j,l}^k = #{unpaired k-simplices at level l}
              + #{pair ends at (k, l) with gap b - a >= j}

The lambda-grading is carried entirely by the filtration index.  The Forman
comparison checks the page dimensions against numeric eigenvalue-decay
classes from spectra.sweep: a pair of gap r is a branch decaying like
lam^(2r) (Forman, "Witten-Morse theory for cell complexes", Topology 1998).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import inf

import numpy as np

from . import rational
from .complexes import CliqueComplex
from .errors import DimensionError, HomologyLabError
from .homology import betti
from .operators import coboundary, coboundary_columns
from .spectra import DEFAULT_GRID, BranchTable, sweep


class Filtration:
    """Weight filtration of a built clique complex and its persistence pairs."""

    def __init__(self, K: CliqueComplex):
        if not K.complete:
            raise DimensionError("filtration requires the complex built through its top")
        self.K = K
        self.kmax = K.max_dim
        levels = K.levels
        self.lmax = {k: int(ls.max()) if len(ls) else -1 for k, ls in levels.items()}
        top = max(k for k, ls in levels.items() if len(ls))  # no simplex above
        # up[k]: the k-simplices in ascending (level, index), the order in
        # which d^{k-1} numbers its rows and d^k visits its columns backwards
        up = {k: np.argsort(levels[k], kind="stable") for k in range(-1, top + 1)}
        # pairs[k]: (sigma in C^k, tau in C^{k+1}) index pairs, reduced bottom
        # degree first so that each degree's pairs clear the next; gaps[k][i]
        # is the level gap of simplex i's pair, -1 when it is unpaired
        self.pairs: dict[int, list[tuple[int, int]]] = {k: [] for k in range(-1, self.kmax)}
        gaps = {k: np.full(len(levels[k]), -1) for k in range(-1, top + 1)}
        t = np.zeros(0, dtype=np.int64)
        for k in range(-1, top):
            s, t = self._reduce(k, up, t)
            gaps[k][s] = gaps[k + 1][t] = levels[k + 1][t] - levels[k][s]
            self.pairs[k] = list(zip(s.tolist(), t.tolist()))
        # _counts[k, l]: {gap: number of k-simplices at level l with that
        # gap}, the gap inf for the unpaired ones
        self._counts: dict[tuple[int, int], dict[float, int]] = {}
        for k, gap in gaps.items():
            for (l, g), n in Counter(zip(levels[k].tolist(), gap.tolist())).items():
                self._counts.setdefault((k, l), {})[inf if g < 0 else g] = n

    def _reduce(self, k: int, up: dict[int, np.ndarray], cleared: np.ndarray):
        """Pairs of d^k as arrays (k-simplices, cofaces): its columns reduced
        in descending (level, index), cofaces numbered in ascending (level,
        index) so ``min`` is the first.

        The columns at ``cleared``, the cofaces of d^{k-1}'s pairs, are left
        out: each would reduce to zero (``rational``'s clearing), because
        d^{k-1}'s reduction numbers the k-simplices by ascending (level,
        index) too, and pairs each column with its first coface.  The pairs
        come in ascending (level, index) of their coface.
        """
        coface_at = up[k + 1]
        number = np.empty_like(coface_at)
        number[coface_at] = np.arange(len(coface_at))
        kept = np.ones(len(up[k]), dtype=bool)
        kept[cleared] = False
        order = up[k][::-1]  # descending (level, index)
        order = order[kept[order]]
        pivot, _ = rational.reduce_columns(coboundary_columns(coboundary(self.K, k), order, number))
        hit = np.flatnonzero(pivot >= 0)
        hit = hit[np.argsort(pivot[hit])]
        return order[hit], coface_at[pivot[hit]]

    def e_dim(self, k: int, l: int, j: int) -> int:
        """dim e_{j,l}^k: k-simplices at level l unpaired or with gap >= j."""
        return sum(n for g, n in self._counts.get((k, l), {}).items() if g >= j)


def filtration(K: CliqueComplex) -> Filtration:
    return Filtration(K)


@dataclass(frozen=True)
class Page:
    j: int
    dims: dict[tuple[int, int], int]  # (k, l) -> dim e_{j,l}^k

    def table_lines(self) -> list[str]:
        lines = [f"page {self.j}  (rows k, cols l; nonzero dims)"]
        ks = sorted({k for k, _ in self.dims})
        ls = sorted({l for _, l in self.dims})
        header = "k\\l " + " ".join(f"{l:>4}" for l in ls)
        lines.append(header)
        for k in reversed(ks):
            row = [f"{self.dims.get((k, l), 0):>4}" for l in ls]
            lines.append(f"{k:>3} " + " ".join(row))
        return lines


def page_dims(F: Filtration, j: int) -> Page:
    """All e_{j,l}^k dimensions for one page."""
    if j < 0:
        raise DimensionError("page index must be >= 0")
    dims: dict[tuple[int, int], int] = {}
    for k in range(-1, F.kmax + 1):
        if F.K.dim_size(k) == 0:
            continue
        for l in range(0, F.lmax[k] + 1):
            dims[(k, l)] = F.e_dim(k, l, j)
    return Page(j, dims)


@dataclass(frozen=True)
class StabilizationReport:
    k: int
    per_page: dict[int, int]  # j -> dim e_j^k
    stabilization_page: int
    betti: int


def stabilized_dims(F: Filtration, k: int) -> StabilizationReport:
    """Page totals of degree k through one page past its stabilization.

    A pair of gap r survives through page r, so the totals stop changing at
    page 1 + the longest finite gap among k's pairs, or at page 0 when k has
    no pairs; the stable total must be the exact Betti number.
    """
    if k not in F.lmax:
        raise DimensionError(f"dimension {k} is outside the filtration (-1 .. {F.kmax})")
    target = betti(F.K, k)
    gaps = {g for l in range(F.lmax[k] + 1) for g in F._counts.get((k, l), ())}
    stab = 1 + max(gaps - {inf}, default=-1)
    per_page = {j: sum(F.e_dim(k, l, j) for l in range(F.lmax[k] + 1)) for j in range(stab + 2)}
    if per_page[stab] != target:
        total = per_page[stab]
        raise HomologyLabError(f"spectral sequence stabilized to {total}, not betti={target}")
    return StabilizationReport(k, per_page, stab, target)


@dataclass(frozen=True)
class FormanRow:
    j: int
    algebraic_dim: int
    branch_count: int

    @property
    def equal(self) -> bool:
        return self.algebraic_dim == self.branch_count


@dataclass(frozen=True)
class FormanReport:
    k: int
    rows: tuple[FormanRow, ...]
    branch_table: BranchTable

    @property
    def ok(self) -> bool:
        return all(r.equal for r in self.rows)


def forman_compare(
    K: CliqueComplex, k: int, grid: tuple[float, ...] = DEFAULT_GRID
) -> FormanReport:
    """Algebraic page dimensions against numeric decay-exponent counts.

    For each page j >= 1, dim e_j^k must equal the number of eigenvalue
    branches of the weighted Laplacian whose fitted decay exponent is at
    least 2j (exact-kernel branches count as infinitely fast).
    """
    F = filtration(K)
    stab = stabilized_dims(F, k)
    table = sweep(K, k, grid)
    # stabilized_dims has filled per_page through stabilization_page + 1
    rows = [
        FormanRow(j, stab.per_page[j], table.count_exponent_at_least(2 * j))
        for j in range(1, stab.stabilization_page + 2)
    ]
    return FormanReport(k, tuple(rows), table)
