"""Exact Betti numbers, Euler characteristic, and numeric harmonic bases.

Betti numbers are computed from exact coboundary ranks over the rationals at
lam := 1 (weights never change the homology).  Cohomology and homology Betti
numbers agree since coefficients form a field; torsion is out of scope.

``eigensolve`` is the package's one eigensolver dispatch: every numeric
spectrum, here and in ``spectra``, comes from it.  SciPy is imported inside
it and ``_dense_by_block``, where a float solve runs, so the exact side never
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

import numpy as np

from . import rational
from .complexes import Chain, CliqueComplex, chain_dimension
from .errors import (
    DimensionError,
    GapAmbiguityError,
    GraphFormatError,
    HomologyLabError,
    NotACycleError,
)
from .operators import boundary_columns, coboundary, coboundary_columns, laplacian

DENSE_EIG_CAP = 4000
# harmonic_basis's kernel tolerance, relative to the Laplacian's max row sum
HARMONIC_TOL = 1e-8


def eigensolve(L, count: int | None = None, vectors: bool = False, sigma: float = 0.0):
    """Ascending eigenvalues, clipped at 0, of an evaluated sparse Laplacian.

    L must be exactly symmetric; it is solved as given.  Every Laplacian the
    package assembles is: each exponent slice of d^T d or d d^T is an integer
    sum of D_a^T D_b with its transpose D_b^T D_a (or of D_a D_b^T with
    D_b D_a^T), so entries (i, j) and (j, i) add the same floats in the same
    order.  ``count=None`` asks for the whole spectrum and always solves
    densely; a count of smallest eigenpairs switches to shift-invert Lanczos
    about ``sigma`` (from a fixed start vector) above DENSE_EIG_CAP, and below
    it the dense solve still returns the whole spectrum.  A dense solve runs
    once per connected block of the matrix (``_dense_by_block``), in place
    in the block's one n x n buffer.  With
    ``vectors`` the result is ``(values, vectors)`` with eigenvectors as
    columns.  An eigenvalue below -1e-9 means the matrix is not positive
    semidefinite and raises.
    """
    import scipy.linalg
    import scipy.sparse.linalg

    n = L.shape[0]
    if count is None or n <= DENSE_EIG_CAP:

        def solve(A):
            # A is exactly symmetric, so A.T is A in Fortran order: LAPACK
            # solves it in place instead of in a second n x n copy
            if vectors:
                return scipy.linalg.eigh(A.T, overwrite_a=True)
            return scipy.linalg.eigvalsh(A.T, overwrite_a=True), None

        vals, vecs = _dense_by_block(L, solve, vectors)
    else:
        # a fixed start vector: ARPACK would otherwise seed from OS entropy
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            out = scipy.sparse.linalg.eigsh(
                L, k=count, sigma=sigma, which="LM", v0=v0, return_eigenvectors=vectors
            )
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            raise HomologyLabError(
                f"shift-invert at sigma={sigma:g} cannot factor the {n}x{n} Laplacian, "
                f"which has a kernel ({exc})"
            ) from exc
        vals, vecs = out if vectors else (out, None)
        order = np.argsort(vals)  # Lanczos leaves its eigenpairs unordered
        vals = vals[order]
        if vectors:
            vecs = vecs[:, order]
    if vals.size and vals.min() < -1e-9:
        raise GraphFormatError(f"Laplacian numerically indefinite: {vals.min()}")
    vals = np.clip(vals, 0.0, None)
    return (vals, vecs) if vectors else vals


def _dense_by_block(S, solve, vectors: bool):
    """Whole ascending spectrum of symmetric sparse S, solved block by block.

    Up to a permutation, S is the direct sum of the blocks that the connected
    components of its sparsity pattern span: the union of the block spectra
    is its spectrum, and a block eigenvector padded with zeros is one of its
    eigenvectors.  ``solve`` maps a dense block to (values, vectors or
    None).  A matrix of one block is solved whole and unpermuted.  Rows
    with no off-diagonal entry are 1x1 blocks; they are solved together as
    one diagonal block, whose spectrum is the same.
    """
    import scipy.sparse.csgraph

    # S's pattern is symmetric, so its strong components are its connected
    # components; the strong search skips the transpose the weak one builds
    n_blocks, labels = scipy.sparse.csgraph.connected_components(S, connection="strong")
    if n_blocks <= 1:
        return solve(S.toarray())
    n = S.shape[0]
    # isolated rows form one diagonal block: one solve for all, not one each
    labels[np.bincount(labels)[labels] == 1] = n_blocks
    rows = np.argsort(labels, kind="stable")  # grouped by block, ascending in each
    P = S[rows][:, rows]  # block diagonal: each block a square P[s:e, s:e]
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    ends = np.cumsum(sizes)
    spans = list(zip(ends - sizes, ends))
    solved = [solve(P[s:e, s:e].toarray()) for s, e in spans]
    merged = np.concatenate([w for w, _ in solved])
    order = np.argsort(merged, kind="stable")
    if not vectors:
        return merged[order], None
    col = np.empty(n, dtype=np.intp)  # sorted position of each merged eigenpair
    col[order] = np.arange(n)
    X = np.zeros((n, n))
    for (s, e), (_, V) in zip(spans, solved):
        X[np.ix_(rows[s:e], col[s:e])] = V
    return merged[order], X


def coboundary_rank(K: CliqueComplex, k: int) -> int:
    """Exact rank of d^k over Q (at lam := 1).

    The columns of d^k, one per k-simplex, are reduced in descending index
    with pivot ``min`` (``rational``: the cohomology direction).  The
    complex memoizes the pivots of each degree's reduction; the rank is
    their count.  The degrees below k are ranked first, bottom-up, and the
    columns of d^k at the k-simplices that d^{k-1} took as pivots are
    cleared, as both reductions order the k-simplices by descending index.
    So each degree is reduced once per complex, whatever order callers ask
    in; the low degrees are small, and without clearing the first degree
    asked for would be reduced whole.
    """
    if k not in K._pivots:
        if K.dim_size(k) == 0:
            K._pivots[k] = set()
        else:
            coboundary_rank(K, k - 1)
            kept = np.ones(K.dim_size(k), dtype=bool)
            kept[list(K._pivots.get(k - 1, ()))] = False
            cols = coboundary_columns(coboundary(K, k), np.flatnonzero(kept)[::-1])
            _, K._pivots[k] = rational.rank_int(cols)
    return len(K._pivots[k])


def betti(K: CliqueComplex, k: int, reduced: bool = True) -> int:
    """dim H^k as dim C^k - rank d^k - rank d^{k-1}, exact over Q."""
    c_k = K.dim_size(k)
    if c_k == 0:
        return 0
    r_k = coboundary_rank(K, k)
    r_low = coboundary_rank(K, k - 1) if k >= 0 else 0
    if not reduced and k == 0:
        r_low = 0
    if not reduced and k == -1:
        return 0
    b = c_k - r_k - r_low
    if b < 0:
        raise HomologyLabError(f"negative betti number {b} in dimension {k}")
    return b


def join_splits(Ks: Sequence[CliqueComplex], k: int) -> list[tuple[int, ...]]:
    """Degree splits of C^k of the join of the factors' clique complexes.

    The clique complex of a join is the join of the clique complexes, and
    its augmented cochain complex is the tensor product of the factors',
    shifted by one degree per join: C^k(K_1 * ... * K_f) is the direct sum of
    C^{i_1}(K_1) (x) ... (x) C^{i_f}(K_f) over i_1 + ... + i_f = k - (f - 1),
    each i_j >= -1.  Returns the splits (i_1, ..., i_f) whose chain groups
    are all nonempty, in lexicographic order.  Each factor is complete or
    built to k.  A clique complex has simplices in every degree from -1 to
    its top, so the factors after j add any degree sum from -(number left)
    to the sum of their tops: a prefix is kept only if that range can
    complete it.
    """
    degrees = [[i for i in range(-1, k + 1) if K.dim_size(i)] for K in Ks]
    target, splits = k - len(Ks) + 1, [()]
    for j, ds in enumerate(degrees):
        rest = degrees[j + 1 :]
        lo, hi = -len(rest), sum(max(d, default=-1) for d in rest)
        splits = [s + (i,) for s in splits for i in ds if lo <= target - sum(s) - i <= hi]
    return splits


def join_betti(Ks: Sequence[CliqueComplex], k: int) -> int:
    """Reduced Betti number of the join of the factors' complexes, exact.

    Kunneth: beta_k is the sum over ``join_splits`` of the products of the
    factors' reduced Betti numbers, integer arithmetic on exact ranks.  Each
    (factor, degree) is asked once, a factor's degrees bottom-up, as
    ``coboundary_rank`` reduces them with clearing; each factor is complete
    or built to k + 1.  One factor asks ``betti`` once.
    """
    splits = join_splits(Ks, k)
    asked = sorted({(j, i) for s in splits for j, i in enumerate(s)})
    factor_betti = {(j, i): betti(Ks[j], i) for j, i in asked}
    return sum(prod(factor_betti[j, i] for j, i in enumerate(s)) for s in splits)


@dataclass(frozen=True)
class BettiTable:
    ks: tuple[int, ...]
    chain_dims: tuple[int, ...]
    coboundary_ranks: tuple[int, ...]
    betti: tuple[int, ...]
    reduced: bool

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.ks, self.betti))


def betti_table(K: CliqueComplex, reduced: bool = True) -> BettiTable:
    """Betti numbers in every dimension the complex is built to support.

    The ranks are taken bottom-up, in the cohomology direction, so each
    degree's pivots clear the next (``coboundary_rank``).
    """
    ks = tuple(range(-1 if reduced else 0, K.max_dim))
    ranks = {k: coboundary_rank(K, k) for k in ks}
    return BettiTable(
        ks,
        tuple(K.dim_size(k) for k in ks),
        tuple(ranks[k] for k in ks),
        tuple(betti(K, k, reduced=reduced) for k in ks),
        reduced,
    )


@dataclass(frozen=True)
class EulerCharacteristic:
    unreduced: int
    reduced: int


def euler_characteristic(K: CliqueComplex) -> EulerCharacteristic:
    """Alternating simplex-count sum; refuses truncated complexes."""
    if not K.complete:
        raise DimensionError(
            "complex may have simplices above max_dim; chi would be wrong"
        )
    chi = sum((-1) ** k * K.dim_size(k) for k in range(0, K.max_dim + 1))
    return EulerCharacteristic(unreduced=chi, reduced=chi - 1)


# -- numeric harmonic subspace -------------------------------------------------


@dataclass(frozen=True)
class HarmonicBasis:
    basis: np.ndarray  # shape (dim C^k, betti)
    tol: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def harmonic_basis(K: CliqueComplex, k: int, lam: float = 1.0) -> HarmonicBasis:
    """Orthonormal numeric basis of the near-kernel of the weighted Laplacian.

    The tolerance is HARMONIC_TOL times the Laplacian's largest absolute row
    sum (at least 1).  The count is cross-checked against the exact Betti
    number; eigenvalues within a factor of 10 of the tolerance on both sides
    raise a gap-ambiguity error instead of guessing.
    """
    n = K.dim_size(k)
    b = betti(K, k)
    if n == 0:
        return HarmonicBasis(np.zeros((0, 0)), 0.0)
    L = laplacian(K, k).evaluate(lam)
    norm = abs(L).sum(axis=1).max() if L.nnz else 1.0
    tol = HARMONIC_TOL * max(float(norm), 1.0)
    # L has a kernel here, singular at sigma = 0: L + tol I is positive definite
    vals, vecs = eigensolve(L, min(b + 8, n - 1), vectors=True, sigma=-tol)
    low = (vals > tol / 10) & (vals < tol)
    high = (vals >= tol) & (vals < tol * 10)
    if low.any() and high.any():
        raise GapAmbiguityError(
            f"eigenvalues straddle tol={tol:g}: "
            f"{vals[low | high][:6].tolist()}"
        )
    keep = vals < tol
    count = int(keep.sum())
    if count != b:
        raise GapAmbiguityError(
            f"near-kernel count {count} != exact betti {b} at lam={lam}, tol={tol:g}"
        )
    return HarmonicBasis(vecs[:, keep], float(tol))


# -- exact cycle membership ----------------------------------------------------


def is_cycle(K: CliqueComplex, chain: Chain, k: int | None = None) -> bool:
    if k is None:
        k = chain_dimension(chain)
    if k <= -1:
        return True
    at = K.locate(list(chain))
    foreign = [s for s, i in zip(chain, at) if i < 0 or len(s) != k + 1]
    if foreign:
        raise DimensionError(f"{foreign[0]!r} is not a {k}-simplex of the complex")
    # the rows of d^{k-1} at lam := 1 are the columns of boundary_k
    cols = boundary_columns(coboundary(K, k - 1), k - 1, at)
    acc: dict[int, int | Fraction] = {}
    for coef, col in zip(chain.values(), cols):
        for r, v in col.items():
            acc[r] = acc.get(r, 0) + coef * v
    return not any(acc.values())


def cycle_is_boundary(
    K: CliqueComplex, chain: Chain, k: int | None = None
) -> tuple[bool, Chain | None]:
    """Exact test c in im(boundary_{k+1}) over Q, with a preimage witness.

    Raises NotACycleError unless boundary_k(c) = 0.  The columns of
    boundary_{k+1} are the rows of d^k.
    """
    if k is None:
        k = chain_dimension(chain)
    if not is_cycle(K, chain, k):
        raise NotACycleError("chain has nonzero boundary")
    if k + 1 > K.max_dim:
        raise DimensionError("complex not built to k+1")
    b = {i: c for i, c in zip(K.locate(list(chain)).tolist(), chain.values()) if c}
    x = rational.solve(boundary_columns(coboundary(K, k), k), K.dim_size(k), b)
    if x is None:
        return False, None
    return True, dict(zip(K._labels(k + 1, list(x)), x.values()))
