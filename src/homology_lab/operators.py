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

from .complexes import CliqueComplex, Simplex
from .errors import DimensionError, GraphFormatError, HomologyLabError

Poly = dict[int, int]


def poly_eval_float(a: Poly, lam: float) -> float:
    return float(sum(float(c) * lam**e for e, c in a.items()))


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


def laplacian_down(K: CliqueComplex, k: int) -> MonomialMatrix:
    """d^{k-1} followed by its adjoint; needs the complex built to k only."""
    d = coboundary(K, k - 1)
    return MonomialMatrix(d.rows, d.rows, _gram_slices(d, up=False))


def laplacian_up(K: CliqueComplex, k: int) -> MonomialMatrix:
    """Adjoint of d^k followed by d^k; needs the complex built to k+1."""
    d = coboundary(K, k)
    return MonomialMatrix(d.cols, d.cols, _gram_slices(d, up=True))


def laplacian(K: CliqueComplex, k: int) -> MonomialMatrix:
    below, above = coboundary(K, k - 1), coboundary(K, k)
    pairs = [*_gram_slices(below, up=False), *_gram_slices(above, up=True)]
    return MonomialMatrix(below.rows, below.rows, pairs)


# -- entrywise formula and sparse access --------------------------------------


def laplacian_entry(K: CliqueComplex, k: int, sigma: Simplex, tau: Simplex) -> Poly:
    """Laplacian entry from the local four-way rule, without assembly.

    Off-diagonal: lower-adjacent non-upper-adjacent pairs contribute
    ``+- w(v_sigma) w(v_tau)`` with the sign given by orientation similarity
    of the common lower simplex; upper-adjacent and non-adjacent pairs give
    zero.  The diagonal is the direct-assembly value
    ``sum_up w(u)^2 + sum_members w(v)^2`` (the published rule's trailing
    "+1" only reproduces assembly at k = 0, where it is the augmentation
    term for an unweighted vertex; see README).
    """
    if not K.has(sigma) or not K.has(tau):
        raise DimensionError("simplex not present in the complex")
    if len(sigma) != k + 1 or len(tau) != k + 1:
        raise DimensionError("dimension mismatch")
    g = K.graph
    if sigma == tau:
        out: Poly = {}
        for u in K.up_vertices(sigma):
            e = 2 * g.exponent(u)
            out[e] = out.get(e, 0) + 1
        for v in sigma:
            e = 2 * g.exponent(v)
            out[e] = out.get(e, 0) + 1
        return {e: c for e, c in out.items() if c}
    shared = set(sigma) & set(tau)
    if len(shared) != k:
        return {}
    v_sigma = next(v for v in sigma if v not in shared)
    v_tau = next(v for v in tau if v not in shared)
    union = tuple(sorted(set(sigma) | set(tau)))
    if K.has(union):
        return {}
    s = (-1) ** (sigma.index(v_sigma) + tau.index(v_tau))
    return {g.exponent(v_sigma) + g.exponent(v_tau): s}


def _bits_to_simplex(K: CliqueComplex, bits: str) -> tuple[Simplex, bool]:
    vs = K.graph.vertices
    if len(bits) != len(vs):
        raise DimensionError(
            f"bitstring length {len(bits)} != vertex count {len(vs)}"
        )
    sel = tuple(v for v, b in zip(vs, bits) if b == "1")
    is_clique = all(
        K.graph.has_edge(u, v) for i, u in enumerate(sel) for v in sel[i + 1 :]
    )
    return sel, is_clique


def embedded_entry(
    K: CliqueComplex,
    k: int,
    x: str,
    y: str,
    penalty: float,
    lam: float = 1.0,
) -> float:
    """Entry <x| of the embedded operator acting on all vertex subsets.

    Returns the Laplacian entry when both indicator bitstrings are
    (k+1)-cliques, the penalty on non-clique diagonal entries, and zero
    otherwise.  Computed from the entrywise rule; the full matrix is never
    materialized.
    """
    sx, cx = _bits_to_simplex(K, x)
    sy, cy = _bits_to_simplex(K, y)
    x_ok = cx and len(sx) == k + 1
    y_ok = cy and len(sy) == k + 1
    if x_ok and y_ok:
        return poly_eval_float(laplacian_entry(K, k, sx, sy), lam)
    if x == y:
        return float(penalty)
    return 0.0
