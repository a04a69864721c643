"""Spectral sequence of the vertex-weight filtration, over exact rationals.

The filtration U_l^k is the span of the k-simplices carrying at least l
weighted vertices.  It is coordinate-aligned and d-compatible (d^k maps U_l^k
into U_l^{k+1}), so over a field the filtered complex splits into interval
pairs (Basu-Parida, "Spectral sequences, exact couples and persistent
homology of filtrations", Expo. Math. 2017).  The pairs come from one
persistence reduction per degree of the rows of d^k at lam := 1, read as
boundary columns with no transpose: (k+1)-simplices in ascending level, each
column's pivot its face at the highest level.  By persistence duality (de
Silva, Morozov, Vejdemo-Johansson, "Dualities in persistent (co)homology",
Inverse Problems 2011) these are the pairs of the coboundary reduction.  A
pair of a k-simplex at level a with a (k+1)-simplex at level b >= a survives
at both ends up to page b - a, and unpaired simplices survive every page:

    e_{j,l}^k = #{unpaired k-simplices at level l}
              + #{pair ends at (k, l) with gap b - a >= j}

The lambda-grading is carried entirely by the filtration index.  The Forman
comparison checks the page dimensions against numeric eigenvalue-decay
classes from spectra.sweep: a pair of gap r is a branch decaying like
lam^(2r) (Forman, "Witten-Morse theory for cell complexes", Topology 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from . import rational
from .complexes import CliqueComplex
from .errors import DimensionError, HomologyLabError
from .homology import betti
from .operators import coboundary
from .spectra import DEFAULT_GRID, BranchTable, sweep


class Filtration:
    """Weight filtration of a built clique complex and its persistence pairs."""

    def __init__(self, K: CliqueComplex):
        if not K.complete:
            raise DimensionError("filtration requires the complex built through its top")
        self.K = K
        self.kmax = K.max_dim
        self.exponents: dict[int, list[int]] = {}
        self.lmax: dict[int, int] = {}
        for k in range(-1, self.kmax + 1):
            exps = [K.weight_exponent(s) for s in K.simplices(k)]
            self.exponents[k] = exps
            self.lmax[k] = max(exps, default=-1)
        self._check_compatibility()
        # pairs[k]: (sigma in C^k, tau in C^{k+1}) index pairs; _gap[k][i] is
        # the level gap of simplex i's pair, inf when it is unpaired
        self.pairs: dict[int, list[tuple[int, int]]] = {}
        self._gap = {k: [inf] * len(exps) for k, exps in self.exponents.items()}
        for k in range(-1, self.kmax):
            self.pairs[k] = self._reduce(k)
            for s, t in self.pairs[k]:
                gap = self.exponents[k + 1][t] - self.exponents[k][s]
                self._gap[k][s] = self._gap[k + 1][t] = gap

    def _reduce(self, k: int) -> list[tuple[int, int]]:
        """Pairs of d^k: its rows reduced as boundary columns in ascending
        (level, index), faces numbered in reverse so ``min`` is the highest."""
        lo, hi = self.exponents[k], self.exponents[k + 1]
        rows = coboundary(self.K, k).int_rows_at_one()
        face_at = sorted(range(len(lo)), key=lambda c: (lo[c], c), reverse=True)
        number = {c: i for i, c in enumerate(face_at)}
        order = sorted(rows, key=lambda r: (hi[r], r))
        reduced = rational.reduce_columns(
            {number[c]: v for c, v in rows[r].items()} for r in order
        )
        return [(face_at[min(col)], r) for r, col in zip(order, reduced) if col]

    def level(self, k: int, l: int) -> frozenset[int]:
        """Index set of U_l^k; full space for l <= 0, empty above lmax."""
        if k < -1 or k > self.kmax:
            return frozenset()
        exps = self.exponents[k]
        if l <= 0:
            return frozenset(range(len(exps)))
        return frozenset(i for i, e in enumerate(exps) if e >= l)

    def _check_compatibility(self) -> None:
        for k in range(-1, self.kmax):
            exps_hi = self.exponents[k + 1]
            exps_lo = self.exponents[k]
            for r, c, _v, _e in coboundary(self.K, k).terms.tolist():
                if exps_hi[r] < exps_lo[c]:
                    raise HomologyLabError(
                        "filtration is not d-compatible (implementation bug)"
                    )

    def e_dim(self, k: int, l: int, j: int) -> int:
        """dim e_{j,l}^k: k-simplices at level l unpaired or with gap >= j."""
        if k < -1 or k > self.kmax:
            return 0
        return sum(1 for e, g in zip(self.exponents[k], self._gap[k]) if e == l and g >= j)


def filtration(K: CliqueComplex) -> Filtration:
    return Filtration(K)


@dataclass(frozen=True)
class Page:
    j: int
    dims: dict[tuple[int, int], int]  # (k, l) -> dim e_{j,l}^k

    def nonzero(self) -> list[tuple[int, int, int]]:
        return sorted((k, l, d) for (k, l), d in self.dims.items() if d)

    def total(self, k: int) -> int:
        return sum(d for (kk, _l), d in self.dims.items() if kk == k)

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
    """Run pages until two consecutive totals agree with the Betti number."""
    if k not in F.lmax:
        raise DimensionError(f"dimension {k} is outside the filtration (-1 .. {F.kmax})")
    target = betti(F.K, k)
    j_cap = max(F.lmax.values(), default=0) + F.kmax + 3
    per_page: dict[int, int] = {}
    stab = None
    prev = None
    for j in range(0, j_cap + 1):
        total = sum(F.e_dim(k, l, j) for l in range(0, F.lmax[k] + 1))
        per_page[j] = total
        if prev is not None and total == prev == target and stab is None:
            stab = j - 1
            break
        prev = total
    if stab is None:
        raise HomologyLabError(
            f"spectral sequence did not stabilize to betti={target} within {j_cap} pages"
        )
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
