"""Exact Betti numbers, Euler characteristic, and numeric harmonic bases.

Betti numbers are computed from exact coboundary ranks over the rationals at
lam := 1 (weights never change the homology).  Cohomology and homology Betti
numbers agree since coefficients form a field; torsion is out of scope.
``exact_columns`` gives d^k's integer columns straight from the facet
arrays, for the persistence pairs here, the spectral-sequence pages and the
gadgets' fundamental cycles; chains inside the library are integer vectors,
and the cycle and boundary witnesses on label chains are test oracles.

``eigensolve`` is the package's one eigensolver dispatch: every numeric
spectrum comes from it, ``spectra``'s (``spectrum``, ``sweep`` and
``lambda_min``) from a Laplacian's symmetry blocks, which
``_dense_by_block`` solves apart below DENSE_EIG_CAP.  SciPy is imported in these two,
where a float solve runs, so the exact side never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Sequence

import numpy as np

from . import rational
from .complexes import CliqueComplex
from .errors import DimensionError, GapAmbiguityError, GraphFormatError, HomologyLabError
from .operators import coboundary, laplacian

DENSE_EIG_CAP = 4000
# harmonic_basis's kernel tolerance, relative to the Laplacian's max row sum
HARMONIC_TOL = 1e-8

# bench/tracing.py wraps coboundary by its name here; no exact reader calls it
_TRACED = (coboundary,)


def eigensolve(L, count: int | None = None, vectors: bool = False, sigma: float = 0.0):
    """Ascending eigenvalues, clipped at 0, of an evaluated sparse Laplacian.

    L must be exactly symmetric; it is solved as given.  Every Laplacian the
    package assembles is: each exponent slice of d^T d or d d^T is an integer
    sum of D_a^T D_b with its transpose D_b^T D_a (or of D_a D_b^T with
    D_b D_a^T), so entries (i, j) and (j, i) add the same floats in the same
    order; ``spectra`` hands over a factor Laplacian's symmetry blocks
    instead where it has them, integer slices B^T M_e B scaled by s_i s_j.
    ``count=None`` asks for the whole spectrum and always solves
    densely; a count of smallest eigenpairs switches to shift-invert Lanczos
    about ``sigma`` (from a fixed start vector) above DENSE_EIG_CAP, which
    bounds the matrix given, block-diagonal or not, and below
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
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    ends = np.cumsum(sizes)
    spans = list(zip(ends - sizes, ends))
    place = np.argsort(rows)  # the sorted place of each row and column
    S = S.tocsr()
    S.sum_duplicates()
    i, j = place[np.repeat(np.arange(n), np.diff(S.indptr))], place[S.indices]
    by = np.argsort(i, kind="stable")  # S's entries, grouped by block
    solved = []
    for (s, e), at in zip(spans, np.split(by, np.searchsorted(i[by], ends[:-1]))):
        A = np.zeros((e - s, e - s))
        A[i[at] - s, j[at] - s] = S.data[at]
        solved.append(solve(A))
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


def _ascending(K: CliqueComplex, k: int) -> np.ndarray:
    """Degree k in ascending (level, index), memoized; empty above the top."""
    order = K._ascending.get(k)
    if order is None:
        order = K._ascending[k] = np.argsort(K.levels.get(k, ()), kind="stable")
    return order


def exact_columns(K: CliqueComplex, k: int, faces: np.ndarray | None = None) -> rational.Columns:
    """d^k at lam := 1 as integer columns, from the facet array F of degree
    k + 1: the entry at (coface i, facet ``F[i, p]``) is (-1)^p.

    Without ``faces``: the rows of d^k, each with its facets ascending, the
    columns of the boundary map that the witnesses reduce.  With ``faces``:
    the columns of d^k at those k-simplices in that order, each coface
    numbered by its place in ascending (level, index) and each column's
    rows ascending, as ``coboundary_pairs`` reduces them.
    """
    if k + 1 > K.max_dim and not K.complete:
        raise DimensionError(f"coboundary {k} needs the complex built to {k + 1}")
    m = K.dim_size(k + 1) if k >= -1 else 0  # d^{-2} has no entries
    F = K.facets(k + 1) if m else np.zeros((0, k + 2), dtype=np.int64)
    sign = (-1) ** np.arange(k + 2)
    if faces is None:
        indptr = np.arange(m + 1) * (k + 2)
        return rational.Columns(indptr, F[:, ::-1].ravel(), np.tile(sign[::-1], m))
    # the cofaces' entries row-major in (level, index) order, stably sorted by column
    place = np.full(K.dim_size(k), len(faces))
    place[faces] = np.arange(len(faces))
    key = place[F[_ascending(K, k + 1)]].ravel()
    at = np.flatnonzero(key < len(faces))
    at = at[np.argsort(key[at], kind="stable")]
    indptr = np.zeros(len(faces) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key[at], minlength=len(faces)), out=indptr[1:])
    return rational.Columns(indptr, at // (k + 2), sign[at % (k + 2)])


def coboundary_pairs(K: CliqueComplex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Persistence pairs of d^k at lam := 1, memoized on the complex: index
    arrays (k-simplices, their cofaces), in ascending (level, index) of the
    coface.  Ranks, Betti numbers and spectral-sequence pages all read them.

    The columns of d^k (``exact_columns``) are reduced in the cohomology
    direction, as in Ripser: k-simplices in descending (level, index), each
    column's pivot its first coface in ascending (level, index); each
    degree's order is sorted once per complex.  The degrees are reduced
    bottom-up, once per complex whatever order callers ask in, and the
    columns at the cofaces of d^{k-1}'s pairs are cleared (see
    ``rational``).  By persistence duality (de Silva, Morozov,
    Vejdemo-Johansson, "Dualities in persistent (co)homology", Inverse
    Problems 2011) these are the pairs the boundary reduction finds.
    """
    pairs = K._pairs.get(k)
    if pairs is None:
        if K.dim_size(k) == 0:
            pairs = (np.zeros(0, dtype=np.int64),) * 2
        else:
            _, cleared = coboundary_pairs(K, k - 1)
            kept = np.ones(K.dim_size(k), dtype=bool)
            kept[cleared] = False
            order = _ascending(K, k)[::-1]
            order = order[kept[order]]
            _, pivot = rational.rank_int(exact_columns(K, k, order))  # k < max_dim if truncated
            hit = np.flatnonzero(pivot >= 0)
            hit = hit[np.argsort(pivot[hit])]
            pairs = order[hit], _ascending(K, k + 1)[pivot[hit]]
        K._pairs[k] = pairs
    return pairs


def coboundary_rank(K: CliqueComplex, k: int) -> int:
    """Exact rank of d^k over Q (at lam := 1): its number of persistence
    pairs (``coboundary_pairs``)."""
    return len(coboundary_pairs(K, k)[0])


def betti(K: CliqueComplex, k: int) -> int:
    """Reduced dim H^k as dim C^k - rank d^k - rank d^{k-1}, exact over Q."""
    if K.dim_size(k) == 0:
        return 0
    b = K.dim_size(k) - coboundary_rank(K, k) - coboundary_rank(K, k - 1)
    if b < 0:
        raise HomologyLabError(f"negative betti number {b} in dimension {k}")
    return b


def join_series(Ks: Sequence[CliqueComplex], k: int, value, times, plus):
    """The coefficient of x^{k+1} in the product over the factors j of
    sum_i value(j, i) x^{i+1}, under the given (plus, times); None if none.

    The join's augmented cochains are the tensor product of the factors':
    C^k(K_1 * ... * K_f) is the sum of C^{i_1}(K_1) (x) ... (x) C^{i_f}(K_f)
    over (i_1 + 1) + ... + (i_f + 1) = k + 1.  Each factor is complete or
    built to k.  A clique complex has simplices in every degree from -1 to
    its top, so factor j is asked once for each degree some split uses: from
    k less what the others can add, at least -1, to its top, at most k.  The
    fold runs left to right and keeps a partial coefficient only while the
    factors after it can still reach k + 1.
    """
    # each factor's top degree, at most k; a truncated one refuses max_dim + 1
    tops = [next((i - 1 for i in range(k + 1) if not K.dim_size(i)), k) for K in Ks]
    total = rest = sum(t + 1 for t in tops)
    acc = {0: None}  # partial degree sum -> coefficient; None is the unit
    for j, top in enumerate(tops):
        rest -= top + 1
        terms = [(i + 1, value(j, i)) for i in range(max(-1, k - total + top + 1), top + 1)]
        grown = {}
        for e, a in acc.items():
            for d, v in terms:
                if k + 1 - rest <= e + d <= k + 1:
                    t = v if a is None else times(a, v)
                    grown[e + d] = plus(grown[e + d], t) if e + d in grown else t
        acc = grown
    return acc.get(k + 1)


def join_betti(Ks: Sequence[CliqueComplex], k: int, reduced: bool = True) -> int:
    """Betti number of the join of the factors' complexes, exact.

    Kunneth: the reduced beta_k is a ``join_series`` coefficient of the
    factors' reduced Betti numbers, integer arithmetic on exact ranks.  Each
    (factor, degree) is asked once, a factor's degrees bottom-up, as
    ``coboundary_pairs`` reduces them with clearing; each factor is complete
    or built to k + 1.  One factor asks ``betti`` once.  Unreduced, degree
    -1 has none and degree 0 one more if there is a vertex.
    """
    if not reduced and k <= 0:
        return 0 if k < 0 else join_betti(Ks, 0) + any(K.dim_size(0) for K in Ks)
    # betti is looked up on the module, where bench/tracing.py wraps it
    return join_series(Ks, k, lambda j, i: betti(Ks[j], i), mul, add) or 0


@dataclass(frozen=True)
class BettiTable:
    ks: tuple[int, ...]
    chain_dims: tuple[int, ...]
    coboundary_ranks: tuple[int, ...]
    betti: tuple[int, ...]
    reduced: bool

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.ks, self.betti))


def betti_table(Ks: Sequence[CliqueComplex], reduced: bool = True) -> BettiTable:
    """Betti table of the join of the factors' complexes (one complex is
    ``[K]``), in each degree below the sum of the factors' max_dim + 1, less
    1; when every factor is complete, also through the join's top degree,
    the sum of the factors' top degrees + 1, less 1.

    Each row is Kunneth: dim C^k (an exact int) and beta_k (``join_betti``)
    are ``join_series`` coefficients of the factors' dims and Betti numbers,
    and rank d^k is dim C^k - reduced beta_k - rank d^{k-1}, from
    rank d^{-2} = 0.
    """
    depth = sum(K.max_dim + 1 for K in Ks) - 1
    if all(K.complete for K in Ks):  # the rows stop below max_dim, where a complete graph ends
        depth = max(depth, sum(K.top_dimension() + 1 for K in Ks))
    dims, bettis, ranks, rank = {}, {}, {}, 0
    for k in range(-1, depth):
        dims[k] = join_series(Ks, k, lambda j, i: Ks[j].dim_size(i), mul, add) or 0
        bettis[k] = join_betti(Ks, k)
        rank = ranks[k] = dims[k] - bettis[k] - rank
    ks = tuple(range(-1 if reduced else 0, depth))
    # the unreduced value differs only below degree 1
    bettis = tuple(join_betti(Ks, k, reduced) if k <= 0 else bettis[k] for k in ks)
    return BettiTable(ks, tuple(dims[k] for k in ks), tuple(ranks[k] for k in ks), bettis, reduced)


@dataclass(frozen=True)
class EulerCharacteristic:
    unreduced: int
    reduced: int


def euler_characteristic(Ks: Sequence[CliqueComplex]) -> EulerCharacteristic:
    """Of the join of the factors' complexes (one complex is ``[K]``), from
    simplex counts, not ranks: reduced, chi(K) = sum of (-1)^k dim C^k over
    k >= -1 and chi(A * B) = -chi(A) chi(B).  Refuses truncated factors."""
    reduced = -1
    for K in Ks:
        if not K.complete:
            raise DimensionError("complex may have simplices above max_dim; chi would be wrong")
        reduced *= sum((-1) ** (k + 1) * c for k, c in K.counts().items())  # -chi(K)
    return EulerCharacteristic(unreduced=reduced + 1, reduced=reduced)


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

