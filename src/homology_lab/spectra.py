"""Numeric spectra of weighted Laplacians and lambda-sweep branch analysis.

Every eigensolve goes through ``homology.eigensolve``.  Full spectra
(``spectrum``, ``sweep``, ``pairing_check``) are dense, solved one connected
block of the Laplacian at a time; ``spectrum`` refuses dimensions above
DENSE_EIG_CAP, while ``lambda_min`` switches to shift-invert Lanczos (from a
fixed start vector) there.

A sweep tracks eigenvalue branches across a geometric lambda grid (matched
by sorted index), fits the log-log slopes of all branches in one
least-squares solve with a column per branch, and classifies branches into
even decay-exponent classes; branches that vanish to working precision at
every grid point are classified as exact kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import CliqueComplex
from .errors import BranchMatchingError, DimensionError, GraphFormatError
from .homology import DENSE_EIG_CAP, betti, eigensolve
from .operators import laplacian, laplacian_down, laplacian_up

DEFAULT_GRID = (0.3, 0.25, 0.2, 0.15, 0.1)
KERNEL_FLOOR = 1e-13
SLOPE_TOL = 0.5  # how far a fitted slope may sit from its even decay exponent
ZERO_TOL = 1e-10  # the zero threshold of a full spectrum's eigenvalues
PAIRING_TOL = 1e-8  # relative mismatch allowed between paired up/down eigenvalues


@dataclass(frozen=True)
class SpectrumReport:
    k: int
    lam: float
    eigenvalues: np.ndarray
    lambda_min: float
    near_zero_multiplicity: int


def spectrum(K: CliqueComplex, k: int, lam: float) -> SpectrumReport:
    """Full sorted spectrum of the weighted Laplacian at one lambda.

    ``near_zero_multiplicity`` counts the eigenvalues below the absolute
    ZERO_TOL (1e-10).  It is not the Betti number: at small lambda a gapped
    eigenvalue can fall below it, as on the 2q four-projector reduction graph
    (k = 3, betti 0), which reports 4 at lambda = 0.1 for eigenvalues near
    9.8e-11 and 0 at lambda = 0.5.  Use ``betti`` for the kernel dimension.
    """
    n = K.dim_size(k)
    if n == 0:
        return SpectrumReport(k, lam, np.zeros(0), 0.0, 0)
    if n > DENSE_EIG_CAP:
        raise DimensionError(
            f"dim C^{k} = {n} exceeds the dense cap; use lambda_min for extremal values"
        )
    vals = eigensolve(laplacian(K, k).evaluate(lam))
    mult = int((vals < ZERO_TOL).sum())
    return SpectrumReport(k, lam, vals, float(vals[0]), mult)


def lambda_min(K: CliqueComplex, k: int, lam: float) -> float:
    """Smallest Laplacian eigenvalue; exact 0 when the Betti number is positive."""
    if betti(K, k) >= 1:
        return 0.0
    if K.dim_size(k) == 0:
        return 0.0
    return float(eigensolve(laplacian(K, k).evaluate(lam), 1)[0])


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
            s = "" if self.slopes[i] is None else f"{self.slopes[i]:.4f}"
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

    Branch matching is by sorted index, valid in the absence of crossings; a
    fitted slope that is not within SLOPE_TOL of an even integer is reported
    as a matching ambiguity rather than silently classified.
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
    L = laplacian(K, k)
    traj = np.stack([eigensolve(L.evaluate(lam)) for lam in grid], axis=1)  # branch x grid
    lams = np.array(grid)
    low = traj < KERNEL_FLOOR
    fitted = ~low.any(axis=1)
    logy = np.log(traj[fitted]).T  # grid x fitted branch
    slope = _fit_slopes(lams, logy)
    fit = np.full(n, np.nan)
    fit[fitted] = slope
    slopes: list[float | None] = []
    classes: list[str] = []
    problems: list[str] = []
    for i in range(n):
        s = None if low[i].any() else float(fit[i])
        slopes.append(s)
        even = 0 if s is None else round(s / 2.0) * 2
        if low[i].all():
            classes.append("kernel")
        elif s is None:
            problems.append(
                f"branch {i}: eigenvalue underflows at part of the grid: {traj[i].tolist()}"
            )
            classes.append("ambiguous")
        elif abs(s - even) <= SLOPE_TOL and even >= 0:
            classes.append(str(int(even)))
        else:
            problems.append(f"branch {i}: fitted slope {s:.3f} is not near an even integer")
            classes.append("ambiguous")
    if problems:
        raise BranchMatchingError("; ".join(problems))
    return BranchTable(k, grid, traj, tuple(slopes), tuple(classes))


@dataclass(frozen=True)
class PairingReport:
    lam: float
    max_mismatch: float
    counts: dict = field(default_factory=dict)

    @property
    def paired(self) -> bool:
        return self.max_mismatch <= PAIRING_TOL


def pairing_check(K: CliqueComplex, lam: float = 1.0) -> PairingReport:
    """Supersymmetric pairing: positive spectra of up/down parts match.

    For each level k, the positive eigenvalues of the up Laplacian at k must
    equal (as multisets, within relative PAIRING_TOL) the positive eigenvalues
    of the down Laplacian at k+1; this exhausts the positive spectrum into
    doublets, with singlets exactly the harmonic states.
    """
    top = K.max_dim  # levels (k, k+1) for k = -1 .. max_dim - 1
    max_mismatch = 0.0
    counts = {}
    for k in range(-1, top):
        up = laplacian_up(K, k)
        down_next = laplacian_down(K, k + 1)
        pos_up = _positive(eigensolve(up.evaluate(lam)))
        pos_down = _positive(eigensolve(down_next.evaluate(lam)))
        if len(pos_up) != len(pos_down):
            return PairingReport(
                lam, float("inf"), {"level": k, "up": len(pos_up), "down": len(pos_down)}
            )
        if len(pos_up):
            denom = np.maximum(np.abs(pos_up), 1e-300)
            mism = float(np.max(np.abs(pos_up - pos_down) / denom))
            max_mismatch = max(max_mismatch, mism)
        counts[k] = len(pos_up)
    return PairingReport(lam, max_mismatch, counts)


def _positive(vals: np.ndarray) -> np.ndarray:
    return np.sort(vals[vals > ZERO_TOL])
