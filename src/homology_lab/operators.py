"""Weighted (co)boundary and Laplacian operators as sparse lambda-matrices.

Entries are polynomials in the weight parameter with integer coefficients.
An operator is its exponent slices: integer sparse matrices M_e with the
operator equal to sum_e lam**e M_e.  Boundary and coboundary entries are
single monomials ``+-lam**e_v``, so ``coboundary`` writes one slice per
exponent straight from the facet arrays; a Laplacian is a sum of sparse
integer products of slices, never a symbolic product of entries.  All
operators act in the normalized orthonormal simplex basis, so the boundary
is the transpose of the coboundary.  SciPy is imported where a sparse or
float matrix is built (``coboundary``, ``evaluate``).  Only the float side
builds these operators: the exact readers take d^k's integer columns
straight from the facet arrays (``homology.exact_columns``).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # annotations only: SciPy is imported where a sparse matrix is built
    import scipy.sparse

from .complexes import CliqueComplex
from .errors import DimensionError, GraphFormatError, HomologyLabError

Poly = dict[int, int]


class MonomialMatrix:
    """Sparse matrix of lambda-polynomials with integer coefficients.

    ``slices`` is a read-only map from each exponent e, ascending, to the
    integer CSR matrix M_e, the operator being sum_e lam**e M_e.  The
    constructor sums (e, M) pairs per exponent and raises HomologyLabError
    on a slice that is not an integer CSR matrix of the operator's shape.
    Its builders hand over slices with no stored zero (SciPy's sums and
    products store none).  The ``entries`` view is derived on first read.
    """

    __slots__ = ("rows", "cols", "slices", "_entries")

    def __init__(self, rows: int, cols: int, pairs=()):
        self.rows = rows
        self.cols = cols
        summed: dict[int, scipy.sparse.csr_matrix] = {}
        for e, M in pairs:
            if (getattr(M, "format", None) != "csr" or M.shape != (rows, cols)
                    or not np.issubdtype(M.dtype, np.integer)):
                raise HomologyLabError(f"slice {e} is not an integer {rows}x{cols} CSR matrix")
            summed[e] = summed[e] + M if e in summed else M
        self.slices = MappingProxyType(dict(sorted(summed.items())))
        self._entries: dict[tuple[int, int], Poly] | None = None

    @property
    def entries(self) -> Mapping[tuple[int, int], Poly]:
        """Read-only view (row, col) -> {exponent: coeff}, derived from the slices."""
        if self._entries is None:
            self._entries = {}
            for e, M in self.slices.items():
                C = M.tocoo()
                for r, c, v in zip(C.row.tolist(), C.col.tolist(), C.data.tolist()):
                    self._entries.setdefault((r, c), {})[e] = v
        return MappingProxyType(self._entries)

    def evaluate(self, lam: float) -> scipy.sparse.csr_matrix:
        """Numeric substitution sum_e lam**e M_e, ascending in e; lam in (0, 1].

        Each entry has at most two monomials when graph exponents lie in
        {0, 1}, so its value is the same float however the sum is ordered.
        """
        import scipy.sparse

        if not 0 < lam <= 1:
            raise GraphFormatError(f"lambda must be in (0, 1], got {lam}")
        parts = [M * lam**e for e, M in self.slices.items()]
        m = sum(parts[1:], parts[0]) if parts else scipy.sparse.csr_matrix((self.rows, self.cols))
        m.eliminate_zeros()
        if not np.all(np.isfinite(m.data)):
            raise GraphFormatError("non-finite entry after evaluation")
        return m

    def evaluate_dense(self, lam: float) -> np.ndarray:
        return self.evaluate(lam).toarray()

    def int_rows_at_one(self) -> dict[int, dict[int, int]]:
        """Rows of the lam := 1 specialization, the sum of the slices, with
        the entries whose monomials cancel dropped."""
        parts = list(self.slices.values())
        if not parts:
            return {}
        S = sum(parts[1:], parts[0]).sorted_indices()  # SciPy's sum drops cancelled entries
        ptr, cols, vals = S.indptr.tolist(), S.indices.tolist(), S.data.tolist()
        spans = enumerate(zip(ptr, ptr[1:]))
        return {i: dict(zip(cols[a:b], vals[a:b])) for i, (a, b) in spans if a < b}


# -- chain-complex operators -------------------------------------------------


def coboundary(K: CliqueComplex, k: int) -> MonomialMatrix:
    """Weighted coboundary d^k : C^k -> C^{k+1} in the normalized basis.

    Entry (sigma u {v}, sigma) is (-1)^p lam^{e_v} with p the ascending
    insertion position of v; d^{-1} sends the empty simplex to the weighted
    sum of the vertices.  Assembled in one array pass per exponent from the
    facet indices of the (k+1)-simplices (``CliqueComplex.facets``): row i
    holds its k + 2 facets in ascending index, which is descending p, so
    each slice comes out in CSR order.  e_v is the coface's level less the
    facet's, as ``K.levels`` records them.  On a complete complex C^{k+1}
    is empty above max_dim - 1, so d^k there is the zero map into it.
    """
    if k < -1:
        return MonomialMatrix(K.dim_size(k + 1), 0)
    if k + 1 > K.max_dim and not K.complete:
        raise DimensionError(f"coboundary {k} needs the complex built to {k + 1}")
    cached = K._coboundaries.get(k)
    if cached is not None:
        return cached
    rows, cols = K.dim_size(k + 1), K.dim_size(k)
    pairs = []
    if rows:
        import scipy.sparse

        facet = K.facets(k + 1)[:, ::-1]
        exps = K.levels[k + 1][:, None] - K.levels[k][facet]
        signs = np.broadcast_to((-1) ** np.arange(k + 1, -1, -1), facet.shape)
        for e in np.unique(exps).tolist():
            pick = exps == e  # row-major, so each row keeps its facets ascending
            indptr = np.zeros(rows + 1, dtype=np.int64)
            np.cumsum(pick.sum(axis=1), out=indptr[1:])
            M = scipy.sparse.csr_matrix((signs[pick], facet[pick], indptr), shape=(rows, cols))
            pairs.append((e, M))
    out = K._coboundaries[k] = MonomialMatrix(rows, cols, pairs)
    return out


def _gram_slices(d: MonomialMatrix, up: bool):
    """(a + b, D_a^T D_b) over pairs of d's exponent slices when ``up``, else
    (a + b, D_a D_b^T).  The (b, a) product, the transpose of the (a, b) one,
    comes right after it, so every slice sum is exactly symmetric."""
    S = list(d.slices.items())
    T = {a: A.T.tocsr() for a, A in S}
    for i, (a, A) in enumerate(S):
        for b, B in S[i:]:
            P = T[a] @ B if up else A @ T[b]
            yield a + b, P
            if b != a:
                yield a + b, P.T.tocsr()


def laplacian(K: CliqueComplex, k: int) -> MonomialMatrix:
    below, above = coboundary(K, k - 1), coboundary(K, k)
    pairs = [*_gram_slices(below, up=False), *_gram_slices(above, up=True)]
    return MonomialMatrix(below.rows, below.rows, pairs)

