"""Exact Betti numbers, Euler characteristic, and numeric harmonic bases.

Betti numbers are computed from exact coboundary ranks over the rationals at
lam := 1 (weights never change the homology).  Cohomology and homology Betti
numbers agree since coefficients form a field; torsion is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import rational
from .complexes import Chain, CliqueComplex, chain_dimension, vector_to_chain
from .errors import DimensionError, GapAmbiguityError, HomologyLabError, NotACycleError
from .operators import boundary, coboundary, laplacian

DENSE_EIG_CAP = 4000


def coboundary_rank(K: CliqueComplex, k: int) -> int:
    """Exact rank of d^k over Q (at lam := 1), memoized on the complex."""
    if k < -1:
        return 0
    if k in K._rank_cache:
        return K._rank_cache[k]
    if K.dim_size(k) == 0:
        K._rank_cache[k] = 0
        return 0
    mat = coboundary(K, k)
    rank = rational.rank_int(mat.int_rows_at_one().values())
    K._rank_cache[k] = rank
    return rank


def betti(K: CliqueComplex, k: int, reduced: bool = True) -> int:
    """dim H^k as dim C^k - rank d^k - rank d^{k-1}, exact over Q."""
    if k < -1:
        return 0
    if k + 1 > K.max_dim:
        raise DimensionError(f"betti({k}) needs the complex built to {k + 1}")
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


@dataclass(frozen=True)
class BettiTable:
    ks: tuple[int, ...]
    chain_dims: tuple[int, ...]
    coboundary_ranks: tuple[int, ...]
    betti: tuple[int, ...]
    reduced: bool

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.ks, self.betti))


def betti_table(K: CliqueComplex, up_to: int | None = None, reduced: bool = True) -> BettiTable:
    top = K.max_dim - 1 if up_to is None else up_to
    ks = tuple(range(-1 if reduced else 0, top + 1))
    return BettiTable(
        ks,
        tuple(K.dim_size(k) for k in ks),
        tuple(coboundary_rank(K, k) for k in ks),
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


def witten_index(K: CliqueComplex) -> int:
    """Absolute reduced Euler characteristic (signed homology count)."""
    return abs(euler_characteristic(K).reduced)


# -- numeric harmonic subspace -------------------------------------------------


@dataclass(frozen=True)
class HarmonicBasis:
    k: int
    lam: float
    basis: np.ndarray  # shape (dim C^k, betti)
    tol: float
    eigenvalues: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def harmonic_basis(
    K: CliqueComplex, k: int, lam: float = 1.0, tol: float | None = None
) -> HarmonicBasis:
    """Orthonormal numeric basis of the near-kernel of the weighted Laplacian.

    The count is cross-checked against the exact Betti number; eigenvalues
    within a factor of 10 of the tolerance on both sides raise a
    gap-ambiguity error instead of guessing.
    """
    n = K.dim_size(k)
    b = betti(K, k)
    if n == 0:
        return HarmonicBasis(k, lam, np.zeros((0, 0)), 0.0, np.zeros(0))
    L = laplacian(K, k).evaluate(lam)
    if n <= DENSE_EIG_CAP:
        dense = L.toarray()
        dense = (dense + dense.T) / 2.0
        vals, vecs = scipy.linalg.eigh(dense)
    else:
        want = min(b + 8, n - 1)
        vals, vecs = scipy.sparse.linalg.eigsh(
            (L + L.T) * 0.5, k=want, sigma=0.0, which="LM"
        )
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    if tol is None:
        norm = abs(L).sum(axis=1).max() if L.nnz else 1.0
        tol = 1e-8 * max(float(norm), 1.0)
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
    return HarmonicBasis(k, float(lam), vecs[:, keep], float(tol), vals[keep])


# -- exact cycle membership ----------------------------------------------------


def is_cycle(K: CliqueComplex, chain: Chain, k: int | None = None) -> bool:
    if k is None:
        k = chain_dimension(chain)
    if k <= -1:
        return True
    bnd = boundary(K, k).evaluate_exact(Fraction(1))
    cols: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), v in bnd.items():
        cols.setdefault(c, []).append((r, v))
    idx = K.index[k]
    acc: dict[int, Fraction] = {}
    for s, coef in chain.items():
        j = idx[s]
        for r, v in cols.get(j, ()):
            w = acc.get(r, Fraction(0)) + Fraction(coef) * v
            if w:
                acc[r] = w
            elif r in acc:
                del acc[r]
    return not acc


def cycle_is_boundary(
    K: CliqueComplex, chain: Chain, k: int | None = None
) -> tuple[bool, Chain | None]:
    """Exact test c in im(boundary_{k+1}) over Q, with a preimage witness.

    Raises NotACycleError unless boundary(c) = 0.
    """
    if k is None:
        k = chain_dimension(chain)
    if not is_cycle(K, chain, k):
        raise NotACycleError("chain has nonzero boundary")
    if k + 1 > K.max_dim:
        raise DimensionError("complex not built to k+1")
    bnd = boundary(K, k + 1).evaluate_exact(Fraction(1))
    by_col: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in bnd.items():
        by_col.setdefault(c, {})[r] = v
    idx = K.index[k]
    b = {idx[s]: Fraction(c) for s, c in chain.items() if c}
    x = rational.solve(by_col, K.dim_size(k), b)
    if x is None:
        return False, None
    witness = vector_to_chain(K, k + 1, _dense(x, K.dim_size(k + 1)))
    return True, witness


def _dense(sparse_vec: dict[int, Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i, v in sparse_vec.items():
        out[i] = v
    return out
