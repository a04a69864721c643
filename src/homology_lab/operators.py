"""Weighted (co)boundary and Laplacian operators as sparse lambda-matrices.

Entries are polynomials in the weight parameter with integer coefficients,
stored as integer terms ``coeff * lam**exponent``.  From its terms an
operator derives its exponent slices, integer sparse matrices M_e with the
operator equal to sum_e lam**e M_e.  Boundary and coboundary entries are
single monomials ``+-lam**e_v``; a Laplacian is a sum of sparse integer
products of slices, never a symbolic product of entries.  All operators act
in the normalized orthonormal simplex basis, so the boundary is the
transpose of the coboundary.  SciPy is imported where a float or sparse
matrix is built (``_exponent_slices``, ``evaluate``); the exact readers use
the integer terms alone and never load it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:  # annotations only: SciPy is imported where a float matrix is built
    import scipy.sparse

from .complexes import CliqueComplex, Simplex
from .errors import DimensionError, GraphFormatError, HomologyLabError
from .rational import Columns

Poly = dict[int, int]


def poly_eval_float(a: Poly, lam: float) -> float:
    return float(sum(float(c) * lam**e for e, c in a.items()))


class MonomialMatrix:
    """Sparse matrix of lambda-polynomials with integer coefficients.

    ``terms`` is a read-only int64 array of rows (row, col, coeff, exponent),
    strictly increasing in (row, col, exponent), one row per monomial and no
    zero coefficient.  The constructor takes terms already in that form and
    raises HomologyLabError on terms that are not, or that lie outside the
    shape; ``_from_slices`` puts a sum of integer slices into it.  The
    exponent slices, derived on first use, and the ``entries`` view are
    kept alongside.
    """

    __slots__ = ("rows", "cols", "terms", "_slices", "_entries")

    def __init__(self, rows: int, cols: int, terms=()):
        self.rows = rows
        self.cols = cols
        self.terms = np.asarray(terms, dtype=np.int64).reshape(-1, 4)
        self.terms.flags.writeable = False
        if len(self.terms):
            self._check_form()
        self._slices: dict[int, scipy.sparse.csr_matrix] | None = None
        self._entries: dict[tuple[int, int], Poly] | None = None

    def _check_form(self) -> None:
        r, c, v, e = self.terms.T
        # (row, col) as one cell number, which the shape keeps well inside int64
        cell = r * self.cols + c
        step = cell[1:] - cell[:-1]
        if not ((step > 0) | ((step == 0) & (e[1:] > e[:-1]))).all():
            raise HomologyLabError("terms are not strictly increasing in (row, col, exponent)")
        if r[0] < 0 or r[-1] >= self.rows or c.min() < 0 or c.max() >= self.cols:
            raise HomologyLabError(f"a term lies outside the {self.rows}x{self.cols} shape")
        if not v.all():
            raise HomologyLabError("a term has a zero coefficient")

    @classmethod
    def _from_slices(cls, rows: int, cols: int, pairs) -> "MonomialMatrix":
        """The sum of lam**e M over (e, M) pairs of integer CSR matrices, sorted
        once into the stored form (SciPy's sums and products store no zero)."""
        summed: dict[int, scipy.sparse.csr_matrix] = {}
        for e, M in pairs:
            summed[e] = summed[e] + M if e in summed else M
        terms = [np.zeros((0, 4), dtype=np.int64)]
        for e, M in summed.items():
            r = np.repeat(np.arange(rows), np.diff(M.indptr))
            terms.append(np.column_stack([r, M.indices, M.data, np.full(M.nnz, e)]))
        t = np.concatenate(terms)
        out = cls(rows, cols, t[np.lexsort((t[:, 3], t[:, 1], t[:, 0]))])
        out._slices = dict(sorted(summed.items()))
        return out

    def _exponent_slices(self) -> dict[int, scipy.sparse.csr_matrix]:
        """exponent e -> integer CSR M_e, ascending in e."""
        if self._slices is None:
            import scipy.sparse

            r, c, v, e = self.terms.T
            self._slices = {}
            for x in sorted(set(e.tolist())):
                pick = e == x  # still sorted by (row, col): the CSR layout
                indptr = np.zeros(self.rows + 1, dtype=np.int64)
                np.cumsum(np.bincount(r[pick], minlength=self.rows), out=indptr[1:])
                self._slices[x] = scipy.sparse.csr_matrix(
                    (v[pick], c[pick], indptr), shape=(self.rows, self.cols)
                )
        return self._slices

    @property
    def entries(self) -> Mapping[tuple[int, int], Poly]:
        """Read-only view (row, col) -> {exponent: coeff}, derived from the terms."""
        if self._entries is None:
            self._entries = {}
            for r, c, v, e in self.terms.tolist():
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
        parts = [M * lam**e for e, M in sorted(self._exponent_slices().items())]
        m = sum(parts[1:], parts[0]) if parts else scipy.sparse.csr_matrix((self.rows, self.cols))
        m.eliminate_zeros()
        if not np.all(np.isfinite(m.data)):
            raise GraphFormatError("non-finite entry after evaluation")
        return m

    def evaluate_dense(self, lam: float) -> np.ndarray:
        return self.evaluate(lam).toarray()

    def int_rows_at_one(self) -> dict[int, dict[int, int]]:
        """Rows of the lam := 1 specialization: each entry's coefficient sum."""
        r, c, v, _e = self.terms.T
        rows: dict[int, dict[int, int]] = {}
        for i, j, x in zip(r.tolist(), c.tolist(), v.tolist()):
            row = rows.setdefault(i, {})
            row[j] = row.get(j, 0) + x
        if sum(map(len, rows.values())) < len(v):  # the monomials of an entry may cancel
            rows = {i: {j: x for j, x in row.items() if x} for i, row in rows.items()}
            return {i: row for i, row in rows.items() if row}
        return rows


# -- chain-complex operators -------------------------------------------------


def coboundary(K: CliqueComplex, k: int) -> MonomialMatrix:
    """Weighted coboundary d^k : C^k -> C^{k+1} in the normalized basis.

    Entry (sigma u {v}, sigma) is (-1)^p lam^{e_v} with p the ascending
    insertion position of v; d^{-1} sends the empty simplex to the weighted
    sum of the vertices.  Assembled in one array pass from the facet
    indices of the (k+1)-simplices (``CliqueComplex.facets``): row i holds
    k + 2 terms, its facets in ascending index, which is descending p, so
    the terms come out sorted.  e_v is the coface's level less the facet's,
    as ``K.levels`` records them.  On a complete complex C^{k+1} is empty
    above max_dim - 1, so d^k there is the zero map into it.
    """
    if k < -1:
        return MonomialMatrix(K.dim_size(k + 1), 0)
    if k + 1 > K.max_dim and not K.complete:
        raise DimensionError(f"coboundary {k} needs the complex built to {k + 1}")
    cached = K._coboundaries.get(k)
    if cached is not None:
        return cached
    rows = K.dim_size(k + 1)
    cols = K.dim_size(k)
    terms = np.empty((rows, k + 2, 4), dtype=np.int64)
    if rows:
        facet = K.facets(k + 1)[:, ::-1]
        terms[:, :, 0] = np.arange(rows)[:, None]
        terms[:, :, 1] = facet
        terms[:, :, 2] = (-1) ** np.arange(k + 1, -1, -1)
        terms[:, :, 3] = K.levels[k + 1][:, None] - K.levels[k][facet]
    out = MonomialMatrix(rows, cols, terms.reshape(-1, 4))
    K._coboundaries[k] = out
    return out


def boundary_columns(d: MonomialMatrix, k: int, rows=None) -> list[dict[int, int]]:
    """The rows of d = d^k at lam := 1 as sparse integer columns {col: sign}.

    They are the columns of the boundary map, which the exact witnesses
    (``rational.nullspace``, ``rational.solve``) reduce.  Every row of d^k
    holds k + 2 single monomials, so its sorted terms reshape to
    (dim C^{k+1}, k + 2) arrays of columns and signs.  ``rows`` (an index
    array or a boolean mask) picks and orders the rows.
    """
    cols, signs = d.terms[:, 1].reshape(-1, k + 2), d.terms[:, 2].reshape(-1, k + 2)
    if rows is not None:
        cols, signs = cols[rows], signs[rows]
    return [dict(zip(c, s)) for c, s in zip(cols.tolist(), signs.tolist())]


def coboundary_columns(d: MonomialMatrix, cols: np.ndarray, renumber=None) -> Columns:
    """The columns of d = d^k at lam := 1 at the indices ``cols``, in that
    order, as ``rational`` reduces them.

    One stable sort of the picked terms by their column's place in ``cols``
    lays the columns out one after another, each with its rows ascending;
    every entry is a single monomial, so its coefficient is its value.
    ``renumber`` (an array indexed by row) maps the row numbers.
    """
    place = np.full(d.cols, len(cols))
    place[cols] = np.arange(len(cols))
    key = place[d.terms[:, 1]]
    at = np.flatnonzero(key < len(cols))
    at = at[np.argsort(key[at], kind="stable")]
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key[at], minlength=len(cols)), out=indptr[1:])
    rows = d.terms[at, 0]
    return Columns(indptr, rows if renumber is None else renumber[rows], d.terms[at, 2])


def _gram_slices(d: MonomialMatrix, up: bool):
    """(a + b, D_a^T D_b) over pairs of d's exponent slices when ``up``, else
    (a + b, D_a D_b^T).  The (b, a) product, the transpose of the (a, b) one,
    comes right after it, so every slice sum is exactly symmetric."""
    S = list(d._exponent_slices().items())
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
    return MonomialMatrix._from_slices(d.rows, d.rows, _gram_slices(d, up=False))


def laplacian_up(K: CliqueComplex, k: int) -> MonomialMatrix:
    """Adjoint of d^k followed by d^k; needs the complex built to k+1."""
    d = coboundary(K, k)
    return MonomialMatrix._from_slices(d.cols, d.cols, _gram_slices(d, up=True))


def laplacian(K: CliqueComplex, k: int) -> MonomialMatrix:
    below, above = coboundary(K, k - 1), coboundary(K, k)
    pairs = [*_gram_slices(below, up=False), *_gram_slices(above, up=True)]
    return MonomialMatrix._from_slices(below.rows, below.rows, pairs)


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
