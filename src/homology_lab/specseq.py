"""Spectral sequence of the vertex-weight filtration, over exact rationals.

The filtration U_l^k is the span of the k-simplices at weight level at least
l, a simplex's level being the sum of its vertex exponents, which
``CliqueComplex.levels`` records as the simplices are enumerated.  It is
coordinate-aligned and d-compatible (d^k maps U_l^k into U_l^{k+1}) by
construction, so it is not checked: a coface adds one vertex, whose exponent
``WeightedGraph`` keeps nonnegative, so its level is at least its face's.
Over a field the filtered complex splits into interval pairs (Basu-Parida,
"Spectral sequences, exact couples and persistent homology of filtrations",
Expo. Math. 2017): the persistence pairs of each d^k, which
``homology.coboundary_pairs`` computes once per degree for the Betti numbers
too.  A pair of a k-simplex at level a with a (k+1)-simplex at level b >= a
survives at both ends up to page b - a, and unpaired simplices survive every
page:

    e_{j,l}^k = #{unpaired k-simplices at level l}
              + #{pair ends at (k, l) with gap b - a >= j}

The lambda-grading is carried entirely by the filtration index.  The Forman
comparison checks the page dimensions against numeric eigenvalue-decay
classes from spectra.sweep: a pair of gap r is a branch decaying like
lam^(2r) (Forman, "Witten-Morse theory for cell complexes", Topology 1998).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import CliqueComplex
from .errors import DimensionError, HomologyLabError
from .homology import betti, coboundary_pairs
from .operators import coboundary
from .spectra import DEFAULT_GRID, BranchTable, sweep

# bench/tracing.py wraps coboundary by its name here; the pages never call it
_TRACED = (coboundary,)


class Filtration:
    """Weight filtration of a built clique complex: its page dimensions,
    read from the persistence pairs."""

    def __init__(self, K: CliqueComplex):
        if not K.complete:
            raise DimensionError("filtration requires the complex built through its top")
        self.K = K
        self.kmax = K.max_dim
        levels = K.levels
        self.lmax = {k: int(ls.max()) if len(ls) else -1 for k, ls in levels.items()}
        # gaps[k][i]: the level gap of simplex i's pair (``coboundary_pairs``),
        # -1 when it is unpaired
        top = K.top_dimension()
        gaps = {k: np.full(len(levels[k]), -1) for k in range(-1, top + 1)}
        for k in range(-1, top):
            s, t = coboundary_pairs(K, k)
            gaps[k][s] = gaps[k + 1][t] = levels[k + 1][t] - levels[k][s]
        # _dims[k][l, j]: dim e_{j,l}^k, the k-simplices at level l unpaired or
        # with gap >= j: counts by level and gap class (the gaps, then unpaired
        # last), suffix-summed over the classes.  The last column holds for
        # every later page; a degree above the top has no row.
        self._dims = dict.fromkeys(levels, np.zeros((0, 1), dtype=np.int64))
        for k, gap in gaps.items():
            width = int(gap.max()) + 2  # unpaired, gap -1, is the class width - 1
            cell = levels[k] * width + gap % width
            counts = np.bincount(cell, minlength=(self.lmax[k] + 1) * width).reshape(-1, width)
            self._dims[k] = counts[:, ::-1].cumsum(axis=1)[:, ::-1]

    def _page(self, k: int, j: int) -> np.ndarray:
        """dim e_{j,l}^k at each level l of degree k."""
        dims = self._dims[k]
        return dims[:, min(max(j, 0), dims.shape[1] - 1)]

    def e_dim(self, k: int, l: int, j: int) -> int:
        """dim e_{j,l}^k: k-simplices at level l unpaired or with gap >= j."""
        if k not in self._dims or not 0 <= l <= self.lmax[k]:
            return 0
        return int(self._page(k, j)[l])


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
        for l, d in enumerate(F._page(k, j).tolist()):
            dims[(k, l)] = d
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
    stab = F._dims[k].shape[1] - 1  # one class per gap through the longest, then unpaired
    per_page = {j: int(F._page(k, j).sum()) for j in range(stab + 2)}
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
