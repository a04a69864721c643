"""Weighted (co)boundary and Laplacian operators as sparse lambda-matrices.

Entries are polynomials in the weight parameter with integer coefficients,
stored as integer terms ``coeff * lam**exponent``.  From its terms an
operator derives its exponent slices, integer sparse matrices M_e with the
operator equal to sum_e lam**e M_e.  Boundary and coboundary entries are
single monomials ``+-lam**e_v``; a Laplacian is a sum of sparse integer
products of slices, never a symbolic product of entries.  All operators act
in the normalized orthonormal simplex basis, so the boundary is the
transpose of the coboundary.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .complexes import CliqueComplex, Simplex
from .errors import DimensionError, GraphFormatError

Poly = dict[int, int]


def poly_eval_float(a: Poly, lam: float) -> float:
    return float(sum(float(c) * lam**e for e, c in a.items()))


class MonomialMatrix:
    """Sparse matrix of lambda-polynomials with integer coefficients.

    ``terms`` is a read-only int64 array of rows (row, col, coeff, exponent),
    sorted by (row, col, exponent), one row per monomial and no zero
    coefficient.  The constructor takes such quadruples in any order, as
    rows or flat, sums repeated monomials and drops the ones that cancel.
    The exponent slices, derived on the first product or evaluation, and the
    ``entries`` view are kept alongside.
    """

    __slots__ = ("rows", "cols", "terms", "_slices", "_entries")

    def __init__(self, rows: int, cols: int, terms=()):
        self.rows = rows
        self.cols = cols
        t = np.array(terms, dtype=np.int64).reshape(-1, 4)
        if len(t) > 1:
            t = t[np.lexsort((t[:, 3], t[:, 1], t[:, 0]))]
            first = np.ones(len(t), dtype=bool)
            first[1:] = (t[1:, [0, 1, 3]] != t[:-1, [0, 1, 3]]).any(axis=1)
            if not first.all():  # sum the repeats of a monomial into its first row
                starts = np.flatnonzero(first)
                sums = np.add.reduceat(t[:, 2], starts)
                t = t[starts]
                t[:, 2] = sums
        t = t[t[:, 2] != 0]
        t.flags.writeable = False
        self.terms = t
        self._slices: dict[int, sp.csr_matrix] | None = None
        self._entries: dict[tuple[int, int], Poly] | None = None

    @classmethod
    def _from_slices(cls, rows: int, cols: int, pairs) -> "MonomialMatrix":
        """The sum of lam**e M over (e, M) pairs of integer sparse matrices."""
        summed: dict[int, sp.csr_matrix] = {}
        for e, M in pairs:
            summed[e] = summed[e] + M if e in summed else M
        terms = [np.zeros((0, 4), dtype=np.int64)]
        for e, M in summed.items():
            r = np.repeat(np.arange(rows), np.diff(M.indptr))
            terms.append(np.column_stack([r, M.indices, M.data, np.full(M.nnz, e)]))
        out = cls(rows, cols, np.concatenate(terms))
        out._slices = dict(sorted(summed.items()))
        return out

    def _exponent_slices(self) -> dict[int, sp.csr_matrix]:
        """exponent e -> integer CSR M_e, ascending in e."""
        if self._slices is None:
            r, c, v, e = self.terms.T
            self._slices = {}
            for x in sorted(set(e.tolist())):
                pick = e == x  # still sorted by (row, col): the CSR layout
                indptr = np.zeros(self.rows + 1, dtype=np.int64)
                np.cumsum(np.bincount(r[pick], minlength=self.rows), out=indptr[1:])
                self._slices[x] = sp.csr_matrix(
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

    def transpose(self) -> "MonomialMatrix":
        return MonomialMatrix(self.cols, self.rows, self.terms[:, [1, 0, 2, 3]])

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Product as sparse integer products of slices, lam^a M_a lam^b N_b."""
        if self.cols != other.rows:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        return MonomialMatrix._from_slices(self.rows, other.cols, (
            (a + b, A @ B)
            for a, A in self._exponent_slices().items()
            for b, B in other._exponent_slices().items()
        ))

    def __add__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return MonomialMatrix._from_slices(self.rows, self.cols, [
            *self._exponent_slices().items(), *other._exponent_slices().items()
        ])

    def evaluate(self, lam: float) -> sp.csr_matrix:
        """Numeric substitution sum_e lam**e M_e, ascending in e; lam in (0, 1].

        Each entry has at most two monomials when graph exponents lie in
        {0, 1}, so its value is the same float however the sum is ordered.
        """
        if not 0 < lam <= 1:
            raise GraphFormatError(f"lambda must be in (0, 1], got {lam}")
        parts = [M * lam**e for e, M in sorted(self._exponent_slices().items())]
        m = sum(parts[1:], parts[0]) if parts else sp.csr_matrix((self.rows, self.cols))
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
    sum of the vertices.  Assembled row by row, from each (k+1)-simplex's
    facets.  On a complete complex C^{k+1} is empty above max_dim - 1, so
    d^k there is the zero map into it.
    """
    if k < -1:
        return MonomialMatrix(K.dim_size(k + 1), 0)
    if k + 1 > K.max_dim and not K.complete:
        raise DimensionError(f"coboundary {k} needs the complex built to {k + 1}")
    key = ("d", k)
    cached = K._matrix_cache.get(key)
    if cached is not None:
        return cached
    rows = K.dim_size(k + 1)
    cols = K.dim_size(k)
    terms: list[int] = []  # flat (row, col, coeff, exponent) quadruples
    index_low = K.index.get(k)  # None only above max_dim, where no (k+1)-simplex reads it
    exponent = K.graph.exponent
    for i, tau in enumerate(K.simplices(k + 1)):
        for p, v in enumerate(tau):  # the facet of tau without v
            terms += (i, index_low[tau[:p] + tau[p + 1:]], (-1) ** p, exponent(v))
    out = MonomialMatrix(rows, cols, terms)
    K._matrix_cache[key] = out
    return out


def laplacian_down(K: CliqueComplex, k: int) -> MonomialMatrix:
    """d^{k-1} followed by its adjoint; needs the complex built to k only."""
    key = ("lap_down", k)
    cached = K._matrix_cache.get(key)
    if cached is None:
        if k >= 0:
            d_low = coboundary(K, k - 1)
            cached = d_low @ d_low.transpose()
        else:
            n = K.dim_size(k)
            cached = MonomialMatrix(n, n)
        K._matrix_cache[key] = cached
    return cached


def laplacian_up(K: CliqueComplex, k: int) -> MonomialMatrix:
    """Adjoint of d^k followed by d^k; needs the complex built to k+1."""
    key = ("lap_up", k)
    cached = K._matrix_cache.get(key)
    if cached is None:
        d_here = coboundary(K, k)
        cached = d_here.transpose() @ d_here
        K._matrix_cache[key] = cached
    return cached


def laplacian(K: CliqueComplex, k: int) -> MonomialMatrix:
    return laplacian_down(K, k) + laplacian_up(K, k)


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
