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
SLOPE_TOL = 0.5


@dataclass(frozen=True)
class SpectrumReport:
    k: int
    lam: float
    eigenvalues: np.ndarray
    lambda_min: float
    near_zero_multiplicity: int
    zero_tol: float


def spectrum(K: CliqueComplex, k: int, lam: float, zero_tol: float = 1e-10) -> SpectrumReport:
    """Full sorted spectrum of the weighted Laplacian at one lambda."""
    n = K.dim_size(k)
    if n == 0:
        return SpectrumReport(k, lam, np.zeros(0), 0.0, 0, zero_tol)
    if n > DENSE_EIG_CAP:
        raise DimensionError(
            f"dim C^{k} = {n} exceeds the dense cap; use lambda_min for extremal values"
        )
    vals = eigensolve(laplacian(K, k).evaluate(lam))
    mult = int((vals < zero_tol).sum())
    return SpectrumReport(k, lam, vals, float(vals[0]), mult, zero_tol)


def lambda_min(K: CliqueComplex, k: int, lam: float, exact_zero: bool = True) -> float:
    """Smallest Laplacian eigenvalue; exact 0 when the Betti number is positive."""
    if exact_zero and betti(K, k) >= 1:
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
    slope_tol: float

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


def sweep(
    K: CliqueComplex,
    k: int,
    grid: tuple[float, ...] = DEFAULT_GRID,
    slope_tol: float = SLOPE_TOL,
) -> BranchTable:
    """Eigenvalue branches over a decreasing lambda grid with fitted slopes.

    Branch matching is by sorted index, valid in the absence of crossings; a
    fitted slope that is not within tolerance of an even integer is reported
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
        return BranchTable(k, grid, np.zeros((0, len(grid))), (), (), slope_tol)
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
        elif abs(s - even) <= slope_tol and even >= 0:
            classes.append(str(int(even)))
        else:
            problems.append(f"branch {i}: fitted slope {s:.3f} is not near an even integer")
            classes.append("ambiguous")
    if problems:
        raise BranchMatchingError("; ".join(problems))
    return BranchTable(k, grid, traj, tuple(slopes), tuple(classes), slope_tol)


@dataclass(frozen=True)
class PairingReport:
    lam: float
    levels: tuple[int, ...]
    max_mismatch: float
    counts: dict = field(default_factory=dict)

    @property
    def paired(self) -> bool:
        return self.max_mismatch <= 1e-8


def pairing_check(K: CliqueComplex, lam: float = 1.0, rel_tol: float = 1e-8) -> PairingReport:
    """Supersymmetric pairing: positive spectra of up/down parts match.

    For each level k, the positive eigenvalues of the up Laplacian at k must
    equal (as multisets, within relative tolerance) the positive eigenvalues
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
                lam,
                tuple(range(-1, top)),
                float("inf"),
                {"level": k, "up": len(pos_up), "down": len(pos_down)},
            )
        if len(pos_up):
            denom = np.maximum(np.abs(pos_up), 1e-300)
            mism = float(np.max(np.abs(pos_up - pos_down) / denom))
            max_mismatch = max(max_mismatch, mism)
        counts[k] = len(pos_up)
    return PairingReport(lam, tuple(range(-1, top)), max_mismatch, counts)


def _positive(vals: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    return np.sort(vals[vals > floor])
