"""Numeric spectra of weighted Laplacians and lambda-sweep branch analysis.

Every eigensolve goes through ``homology.eigensolve``.  ``spectrum`` and
``sweep`` take whole spectra densely, one connected block of the Laplacian
at a time.  They split the graph into its join factors
(``graph.join_factors``) and take the spectrum of the join from the
factors' (``join_spectrum``), so the Laplacians they solve are the
factors'; they refuse a factor Laplacian above DENSE_EIG_CAP, while
``lambda_min`` switches to shift-invert Lanczos (from a fixed start vector)
there.  Only the whole Laplacian is solved here: the up and down halves
and their supersymmetric pairing are read from the coboundaries by the
tests.

A sweep tracks eigenvalue branches across a geometric lambda grid (matched
by sorted index), fits the log-log slopes of all branches in one
least-squares solve with a column per branch, and classifies branches into
even decay-exponent classes; branches that vanish to working precision at
every grid point are classified as exact kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

import numpy as np

from .complexes import CliqueComplex, factor_complexes
from .errors import BranchMatchingError, DimensionError, GraphFormatError
from .graph import join_factors
from .homology import DENSE_EIG_CAP, betti, eigensolve, join_series
from .operators import laplacian

DEFAULT_GRID = (0.3, 0.25, 0.2, 0.15, 0.1)
KERNEL_FLOOR = 1e-13
SLOPE_TOL = 0.5  # how far a fitted slope may sit from its even decay exponent
ZERO_TOL = 1e-10  # the zero threshold of a full spectrum's eigenvalues


@dataclass(frozen=True)
class SpectrumReport:
    k: int
    lam: float
    eigenvalues: np.ndarray
    lambda_min: float
    near_zero_multiplicity: int


def spectrum(K: CliqueComplex, k: int, lam: float) -> SpectrumReport:
    """Full sorted spectrum of the weighted Laplacian at one lambda.

    The spectrum comes from the join factors of K's graph (``join_spectrum``
    on ``_join_complexes``); a graph of one factor solves K's own Laplacian.
    DENSE_EIG_CAP bounds each factor Laplacian solved, not dim C^k, so a
    padded reduction graph far above the cap still answers.

    ``near_zero_multiplicity`` counts the eigenvalues below the absolute
    ZERO_TOL (1e-10).  It is not the Betti number: at small lambda a gapped
    eigenvalue can fall below it, as on the 2q four-projector reduction graph
    (k = 3, betti 0), which reports 4 at lambda = 0.1 for eigenvalues near
    9.8e-11 and 0 at lambda = 0.5.  Use ``betti`` for the kernel dimension.
    """
    if K.dim_size(k) == 0:
        return SpectrumReport(k, lam, np.zeros(0), 0.0, 0)
    vals = join_spectrum(_join_complexes(K, k), k, (lam,))[:, 0]
    mult = int((vals < ZERO_TOL).sum())
    return SpectrumReport(k, lam, vals, float(vals[0]), mult)


def lambda_min(K: CliqueComplex, k: int, lam: float) -> float:
    """Smallest Laplacian eigenvalue; exact 0 when the Betti number is positive."""
    if betti(K, k) >= 1 or K.dim_size(k) == 0:
        return 0.0
    return float(eigensolve(laplacian(K, k).evaluate(lam), 1)[0])


def join_lambda_min(Ks: Sequence[CliqueComplex], k: int, lam: float) -> float:
    """Smallest Laplacian eigenvalue of the join of the factors' complexes.

    The join's Laplacian is the direct sum, over the degree splits, of
    L_{i_1}(K_1) (x) 1 + ... + 1 (x) L_{i_f}(K_f) in the normalized weighted
    basis, so its lambda_min is the (min, +) ``join_series`` coefficient of
    the factors' ``lambda_min``, each (factor, degree) solved once; an empty
    C^k gives 0.0.  Rounding is monotone, fl(min(a, b) + c) = min(fl(a + c),
    fl(b + c)), so these are the bits of the least split sum added in order.
    """
    return join_series(Ks, k, lambda j, i: lambda_min(Ks[j], i, lam), add, min) or 0.0


def join_spectrum(Ks: Sequence[CliqueComplex], k: int, grid: Sequence[float]) -> np.ndarray:
    """Whole sorted Laplacian spectrum of the join of the factors' complexes.

    Returns an array (dim C^k, len(grid)): column g is the ascending
    spectrum at lambda = grid[g].  Over each degree split the join's
    Laplacian is the Kronecker sum of the L_{i_j}(K_j), whose spectrum is
    the outer sum of theirs: the (concatenate, outer sum) ``join_series``
    coefficient.  Each (factor, degree) Laplacian is assembled once and
    solved densely once per lambda; each factor is complete or built to k + 1.
    """
    def solved(j, i):
        L = laplacian(Ks[j], i)
        return np.stack([eigensolve(L.evaluate(lam)) for lam in grid], axis=1)

    def outer(a, b):
        return (a[:, None] + b[None]).reshape(-1, len(grid))

    vals = join_series(Ks, k, solved, outer, lambda a, b: np.concatenate((a, b)))
    return np.zeros((0, len(grid))) if vals is None else np.sort(vals, axis=0)


def _join_complexes(K: CliqueComplex, k: int) -> list[CliqueComplex]:
    """The complexes of the join factors of K's graph (``factor_complexes``);
    ``[K]`` itself when the graph has one factor.  K must be complete or
    built to k + 1 either way.  Refused when a factor Laplacian that
    ``join_spectrum`` would solve densely is above DENSE_EIG_CAP."""
    factors = join_factors(K.graph)
    if len(factors) == 1:
        Ks = [K]
    elif k + 1 > K.max_dim and not K.complete:
        raise DimensionError(f"degree {k} needs the complex built to {k + 1}")
    else:
        Ks = factor_complexes(factors, k)
    block = join_series(Ks, k, lambda j, i: Ks[j].dim_size(i), max, max) or 0
    if block > DENSE_EIG_CAP:
        raise DimensionError(
            f"dim C^{k} = {K.dim_size(k)} needs a dense solve of dimension {block}, "
            "above the dense cap; use lambda_min for extremal values"
        )
    return Ks


@dataclass(frozen=True)
class BranchTable:
    k: int
    grid: tuple[float, ...]
    trajectories: np.ndarray  # (n_branches, n_grid), ascending branch index
    slopes: tuple[float | None, ...]  # None for exact-kernel branches
    classes: tuple[str, ...]  # "kernel" or str(even exponent)

    @property
    def n_branches(self) -> int:
        return self.trajectories.shape[0]

    def count_class(self, cls: str) -> int:
        return sum(1 for c in self.classes if c == cls)

    def count_exponent_at_least(self, exponent: int) -> int:
        """Branches decaying at least this fast; kernel counts as infinite."""
        total = 0
        for c in self.classes:
            if c == "kernel" or int(c) >= exponent:
                total += 1
        return total

    def csv_lines(self) -> list[str]:
        header = "branch," + ",".join(f"lam={x:g}" for x in self.grid) + ",slope,class"
        lines = [header]
        for i in range(self.n_branches):
            vals = ",".join(f"{v:.10g}" for v in self.trajectories[i])
            # + 0.0 turns a slope rounded to -0.0 into 0.0
            s = "" if self.slopes[i] is None else f"{round(self.slopes[i], 4) + 0.0:.4f}"
            lines.append(f"{i},{vals},{s},{self.classes[i]}")
        return lines


def _fit_slopes(lams: np.ndarray, logy: np.ndarray) -> np.ndarray:
    """Least-squares slope against log(lams) of each column of logy, from one
    solve with many right-hand sides."""
    logx = np.log(lams)
    A = np.vstack([logx, np.ones_like(logx)]).T
    return np.linalg.lstsq(A, logy, rcond=None)[0][0]


def sweep(K: CliqueComplex, k: int, grid: tuple[float, ...] = DEFAULT_GRID) -> BranchTable:
    """Eigenvalue branches over a decreasing lambda grid with fitted slopes.

    The trajectories come from the join factors of K's graph, as in
    ``spectrum``: each factor Laplacian is assembled once for the whole grid
    and solved once per lambda (``join_spectrum``), and a graph of one factor
    assembles and solves K's own; a factor Laplacian above DENSE_EIG_CAP is
    refused, as in ``spectrum``.  Branch matching is by sorted index, valid
    in the absence of crossings; a fitted slope that is not within SLOPE_TOL
    of an even integer is reported as a matching ambiguity rather than
    silently classified.
    """
    grid = tuple(grid)
    if len(grid) < 4:
        raise GraphFormatError("sweep needs a grid of at least 4 points")
    if any(not 0 < x <= 0.5 for x in grid):
        raise GraphFormatError("sweep grid must lie in (0, 0.5]")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise GraphFormatError("sweep grid must be strictly decreasing")
    n = K.dim_size(k)
    if n == 0:
        return BranchTable(k, grid, np.zeros((0, len(grid))), (), ())
    traj = join_spectrum(_join_complexes(K, k), k, grid)  # branch x grid
    lams = np.array(grid)
    low = traj < KERNEL_FLOOR
    fitted, kernel = ~low.any(axis=1), low.all(axis=1)
    fit = np.zeros(n)
    fit[fitted] = _fit_slopes(lams, np.log(traj[fitted]).T)  # grid x fitted branch
    even = np.round(fit / 2.0) * 2  # half to even, as Python's round
    near = (np.abs(fit - even) <= SLOPE_TOL) & (even >= 0)
    problems = [
        f"branch {i}: fitted slope {fit[i]:.3f} is not near an even integer" if fitted[i]
        else f"branch {i}: eigenvalue underflows at part of the grid: {traj[i].tolist()}"
        for i in np.flatnonzero(fitted & ~near | ~fitted & ~kernel)
    ]
    if problems:
        raise BranchMatchingError("; ".join(problems))
    slopes = tuple(s if f else None for s, f in zip(fit.tolist(), fitted.tolist()))
    classes = tuple(np.where(kernel, "kernel", even.astype(int).astype(str)).tolist())
    return BranchTable(k, grid, traj, slopes, classes)

