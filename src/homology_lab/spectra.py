"""Numeric spectra of weighted Laplacians and lambda-sweep branch analysis.

Every eigensolve goes through ``homology.eigensolve``.  ``spectrum`` and
``sweep`` take whole spectra densely, from the join factors of the graph
(``join_spectrum``), each factor Laplacian split into the blocks of a group
of automorphisms: the qubit loops' reflections, completed and checked
exactly (``_symmetry_blocks``).  They refuse a block above DENSE_EIG_CAP;
``lambda_min`` solves the whole Laplacian, by shift-invert Lanczos (from a
fixed start vector) above the cap.  The up and down halves and their
supersymmetric pairing are read from the coboundaries by the tests.

A sweep tracks eigenvalue branches across a geometric lambda grid (matched
by sorted index), fits the log-log slopes of all branches in one
least-squares solve with a column per branch, and classifies branches into
even decay-exponent classes; branches that vanish to working precision at
every grid point are classified as exact kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import add
from typing import Sequence

import numpy as np

from .complexes import CliqueComplex, factor_complexes
from .errors import BranchMatchingError, DimensionError, GraphFormatError, HomologyLabError
from .graph import BOWTIE_LOOPS, WeightedGraph, join_factors, qubit_of, qubit_vertex
from .homology import DENSE_EIG_CAP, betti, eigensolve, join_series
from .operators import MonomialMatrix, coboundary, laplacian

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
    DENSE_EIG_CAP bounds each symmetry block solved, not dim C^k, so a
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
    coefficient.  Each (factor, degree) is split (``_symmetry_blocks``) and
    solved once per lambda, also if repeated; each is complete or built to k + 1.
    """
    solved = {}

    def solve(j, i):
        if (id(Ks[j]), i) not in solved:
            L, (Bt, B, scale, _) = laplacian(Ks[j], i), _symmetry_blocks(Ks[j], i)
            if Bt is not None:  # the integer block slices B^T M_e B
                L = MonomialMatrix(L.rows, L.rows, [(e, Bt @ M @ B) for e, M in L.slices.items()])
            solved[id(Ks[j]), i] = np.stack(
                [eigensolve(_scaled(L.evaluate(lam), scale)) for lam in grid], axis=1)
        return solved[id(Ks[j]), i]

    def outer(a, b):
        return (a[:, None] + b[None]).reshape(-1, len(grid))

    vals = join_series(Ks, k, solve, outer, lambda a, b: np.concatenate((a, b)))
    return np.zeros((0, len(grid))) if vals is None else np.sort(vals, axis=0)


def _join_complexes(K: CliqueComplex, k: int) -> list[CliqueComplex]:
    """The complexes of the join factors of K's graph (``factor_complexes``),
    one for equal factors (same exponents and adjacency: idle qubit copies),
    or ``[K]`` for one factor; K is complete or built to k + 1 either way.
    Refused when a block that ``join_spectrum`` solves is above DENSE_EIG_CAP."""
    factors = join_factors(K.graph)
    if len(factors) == 1:
        Ks = [K]
    elif k + 1 > K.max_dim and not K.complete:
        raise DimensionError(f"degree {k} needs the complex built to {k + 1}")
    else:
        same = {}
        Ks = [same.setdefault((F.graph.exponents, F.graph.adjacency.tobytes()), F)
              for F in factor_complexes(factors, k)]
    block = join_series(Ks, k, lambda j, i: _symmetry_blocks(Ks[j], i)[3].max(), max, max)
    if (block or 0) > DENSE_EIG_CAP:
        raise DimensionError(
            f"dim C^{k} = {K.dim_size(k)} needs a dense solve of dimension at least {block}, "
            "above the dense cap; use lambda_min for extremal values"
        )
    return Ks


# -- symmetry blocks -------------------------------------------------------------


def _complete(g: WeightedGraph, swap: np.ndarray) -> np.ndarray | None:
    """The automorphism of g that agrees with the involution ``swap`` on the
    qubit copies, or None: refines two copies of g, coloured by exponent and
    qubit copy (through ``swap`` in the second), jointly to one bijection."""
    def classes(rows):  # each row's rank among the distinct rows, in lexicographic order
        order = np.lexsort(rows.T[::-1])
        return np.cumsum(np.r_[0, (np.diff(rows[order], axis=0) != 0).any(axis=1)])[np.argsort(order)]

    n, A = g.n_vertices, g.adjacency.astype(float)  # neighbour counts are exact
    qubit = np.array([qubit_of(v) is not None for v in g.vertices])
    start = [np.column_stack((np.where(qubit, p, -1), g.exponents)) for p in (np.arange(n), swap)]
    colour, count = classes(np.vstack(start)), 0
    while count <= colour.max():
        count = colour.max() + 1
        a, b = colour.reshape(2, n)
        if (np.bincount(a, minlength=count) != np.bincount(b, minlength=count)).any():
            return None
        hits = A @ (colour.reshape(2, n, 1) == np.arange(count))
        colour = classes(np.column_stack((colour, hits.reshape(2 * n, -1))))
    return np.argsort(b)[a] if count == n else None  # both are permutations of range(n)


def _loop_group(g: WeightedGraph) -> np.ndarray:
    """An elementary abelian 2-group of g's automorphisms, row t the product of
    the generators at t's bits: swaps of qubit_vertex(q, L3) with (q, L4), one
    loop or two, completed by ``_complete`` unless an element matches them on
    the qubit copies; an involution that commutes with the group and is not
    in it is kept, and raises if it is no automorphism."""
    n, qubit = g.n_vertices, np.flatnonzero([qubit_of(v) is not None for v in g.vertices])
    ends = [e for q in sorted({qubit_of(g.vertices[i])[0] for i in qubit}) for loop in BOWTIE_LOOPS
            if ((e := g.ids([qubit_vertex(q, loop[1]), qubit_vertex(q, loop[3])])) >= 0).all()]
    group, exps = np.arange(n)[None], np.array(g.exponents)
    for pairs in [*([e] for e in ends), *combinations(ends, 2)]:
        swap = np.arange(n)
        swap[np.ravel(pairs)] = np.fliplr(pairs).ravel()
        if ((group[:, qubit] == swap[qubit]).all(axis=1).any() or (p := _complete(g, swap)) is None
                or (p[p] != np.arange(n)).any() or (p[group] != group[:, p]).any()
                or (group == p).all(axis=1).any()):
            continue
        if (g.adjacency[np.ix_(p, p)] != g.adjacency).any() or (exps[p] != exps).any():
            raise HomologyLabError(f"loop reflection {pairs} completes to a non-automorphism")
        group = np.vstack((group, p[group]))
    return group


def _signed_images(K: CliqueComplex, k: int, perms: np.ndarray):
    """(index, sign of the sort) of each k-simplex's image under each row."""
    img = perms[:, K.ids[k]]
    flips = sum((img[..., i] > img[..., j] for i, j in combinations(range(k + 1), 2)),
                np.zeros(img.shape[:2], dtype=np.int64))
    idx = K.find(np.sort(img, axis=2).reshape(flips.size, k + 1)).reshape(flips.shape)
    if (idx < 0).any():
        raise HomologyLabError(f"a graph automorphism sends a {k}-simplex off the complex")
    return idx, 1 - 2 * (flips % 2)


def _commutes(d: MonomialMatrix, below, above) -> bool:
    """Whether P_above M_e P_below^T = M_e exactly, all slices and generators, on
    the entries: SciPy products per slice and generator cost more on small factors."""
    S = list(d.slices.values())
    e = np.repeat(np.arange(len(S)), [M.nnz for M in S])  # each entry's slice, row, column, value
    r = np.concatenate([np.repeat(np.arange(d.rows), np.diff(M.indptr)) for M in S])
    c, v = (np.concatenate([getattr(M, a) for M in S]) for a in ("indices", "data"))
    key = (e * d.rows + r) * d.cols + c  # one integer per (slice, row, column)
    moved = (e * d.rows + above[0][:, r]) * d.cols + below[0][:, c]  # a row per generator
    to, order = np.argsort(moved, axis=1), np.argsort(key)
    value = np.take_along_axis(above[1][:, r] * below[1][:, c] * v, to, axis=1)
    return (np.take_along_axis(moved, to, axis=1) == key[order]).all() and (value == v[order]).all()


def _symmetry_blocks(K: CliqueComplex, k: int):
    """C^k split by the characters of K's ``_loop_group``, memoized per
    complex and degree: (B^T, B, scale, block sizes).  A character's signed
    orbit sum sum_h chi(h) P_h e_tau vanishes or is |stabilizer| times a +-1
    column on tau's orbit; B's columns are these, by character and orbit, and
    B^T B = diag(scale)^-2.  Before B is built, each generator's signed
    simplex permutation must commute exactly with every slice of d^{k-1} and
    d^k, or this raises.  B is None, for the whole Laplacian, when the group
    fixes C^k (sizes [dim C^k]) or a block is above DENSE_EIG_CAP (refused;
    sizes [ceil(dim C^k / |G|)], the least largest block, if that is above)."""
    if k in K._blocks:
        return K._blocks[k]
    group = K._group = _loop_group(K.graph) if K._group is None else K._group
    n, gens = K.dim_size(k), group[1 << np.arange(len(group).bit_length() - 1)]
    if (least := -(-n // len(group))) > DENSE_EIG_CAP:  # refused before any image is taken
        return K._blocks.setdefault(k, (None, None, None, np.array([least])))
    idx, sign = _signed_images(K, k, gens)
    if (idx == np.arange(n)).all() and (sign == 1).all():
        return K._blocks.setdefault(k, (None, None, None, np.array([n])))
    # each orbit's least simplex, in one pass: an element is a product of distinct generators
    reps, orbit = np.unique(reduce(lambda r, g: np.minimum(r, r[g]), idx, np.arange(n)),
                            return_inverse=True)
    at, sg = reps[None], np.ones((1, len(reps)), dtype=np.int64)  # each element's image of reps
    for g, s in zip(idx, sign):
        at, sg = np.vstack((at, g[at])), np.vstack((sg, sg * s[at]))
    bits = np.arange(len(group))[:, None] >> np.arange(len(gens)) & 1
    chi = 1 - 2 * (bits @ bits.T % 2)  # chi[c, t]: character c at element t
    # chi has a column on an orbit when it agrees with the signs on the stabilizer
    stab = at.T == reps[:, None]
    cs, js = np.nonzero(((stab * sg.T) @ chi == stab.sum(axis=1)[:, None]).T)
    if len(js) != n:
        raise HomologyLabError(f"the blocks of C^{k} add up to {len(js)}, not {n}")
    if (sizes := np.bincount(cs)).max() > DENSE_EIG_CAP:
        return K._blocks.setdefault(k, (None, None, None, sizes))
    for lo in (k - 1, k):  # degree k - 1 checked d^{k-1} if it built its B
        d = coboundary(K, lo)
        if d.slices and (lo == k or K._blocks.get(lo, (None,))[0] is None) and not _commutes(
                d, *((idx, sign) if j == k else _signed_images(K, j, gens) for j in (lo, lo + 1))):
            raise HomologyLabError(f"a loop reflection does not commute with d^{lo}")
    h = (at[:, orbit] == np.arange(n)).argmax(axis=0)  # takes tau's orbit's first to tau
    size = np.bincount(orbit)
    ptr = np.concatenate(([0], np.cumsum(size[js])))
    tau = np.argsort(orbit, kind="stable")[np.repeat(np.cumsum(size)[js] - ptr[1:], size[js])
                                            + np.arange(ptr[-1])]
    data = chi[np.repeat(cs, size[js]), h[tau]] * sg[h[tau], orbit[tau]]
    import scipy.sparse

    Bt = scipy.sparse.csr_matrix((data, tau, ptr), shape=(n, n))
    return K._blocks.setdefault(k, (Bt, Bt.T.tocsr(), 1 / np.sqrt(size[js]), sizes))


def _scaled(A, scale: np.ndarray | None):
    """A, exactly symmetric, with entry (i, j) times (scale_i scale_j) in place."""
    if scale is not None:
        A.data *= scale[np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))] * scale[A.indices]
    return A


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
    assembles and solves K's own; a block above DENSE_EIG_CAP is refused,
    as in ``spectrum``.  Branch matching is by sorted index, valid
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

