"""Weighted (co)boundary and Laplacian operators as sparse lambda-matrices.

Entries are polynomials in the weight parameter with rational coefficients,
stored as {exponent: Fraction}.  Boundary and coboundary entries are single
monomials ``+-lam**e_v``; Laplacian entries are sums of such products.  All
operators act in the normalized orthonormal simplex basis, so the boundary
is the transpose of the coboundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np
import scipy.sparse as sp

from .complexes import CliqueComplex, Simplex
from .errors import DimensionError, GraphFormatError

Poly = dict[int, Fraction]


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        w = out.get(e, Fraction(0)) + c
        if w:
            out[e] = w
        elif e in out:
            del out[e]
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            w = out.get(e, Fraction(0)) + c1 * c2
            if w:
                out[e] = w
            elif e in out:
                del out[e]
    return out


def poly_eval_float(a: Poly, lam: float) -> float:
    return float(sum(float(c) * lam**e for e, c in a.items()))


def poly_eval_exact(a: Poly, lam: Fraction) -> Fraction:
    return sum((c * lam**e for e, c in a.items()), Fraction(0))


class MonomialMatrix:
    """Sparse matrix of lambda-polynomials with exact rational coefficients."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Poly] | None = None):
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Poly] = entries or {}

    def add_monomial(self, r: int, c: int, coeff: Fraction, exponent: int) -> None:
        if coeff == 0:
            return
        key = (r, c)
        cur = self.entries.get(key)
        if cur is None:
            self.entries[key] = {exponent: coeff}
        else:
            w = cur.get(exponent, Fraction(0)) + coeff
            if w:
                cur[exponent] = w
            else:
                del cur[exponent]
                if not cur:
                    del self.entries[key]

    def transpose(self) -> "MonomialMatrix":
        return MonomialMatrix(
            self.cols, self.rows, {(c, r): dict(p) for (r, c), p in self.entries.items()}
        )

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        by_row: dict[int, list[tuple[int, Poly]]] = {}
        for (r, c), p in self.entries.items():
            by_row.setdefault(c, []).append((r, p))
        out: dict[tuple[int, int], Poly] = {}
        for (i, j), q in other.entries.items():
            for r, p in by_row.get(i, ()):
                key = (r, j)
                prod = poly_mul(p, q)
                if key in out:
                    out[key] = poly_add(out[key], prod)
                    if not out[key]:
                        del out[key]
                else:
                    out[key] = prod
        return MonomialMatrix(self.rows, other.cols, {k: v for k, v in out.items() if v})

    def __add__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        out = {k: dict(v) for k, v in self.entries.items()}
        for k, p in other.entries.items():
            if k in out:
                s = poly_add(out[k], p)
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = dict(p)
        return MonomialMatrix(self.rows, self.cols, out)

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, r: int, c: int) -> Poly:
        return dict(self.entries.get((r, c), {}))

    def evaluate(self, lam: float) -> sp.csr_matrix:
        """Numeric substitution; lam must lie in (0, 1]."""
        if not 0 < lam <= 1:
            raise GraphFormatError(f"lambda must be in (0, 1], got {lam}")
        data, ri, ci = [], [], []
        for (r, c), p in self.entries.items():
            v = poly_eval_float(p, lam)
            if v != 0.0:
                data.append(v)
                ri.append(r)
                ci.append(c)
        m = sp.csr_matrix((data, (ri, ci)), shape=(self.rows, self.cols))
        if not np.all(np.isfinite(m.data)):
            raise GraphFormatError("non-finite entry after evaluation")
        return m

    def evaluate_dense(self, lam: float) -> np.ndarray:
        return self.evaluate(lam).toarray()

    def evaluate_exact(self, lam: Fraction) -> dict[tuple[int, int], Fraction]:
        if not 0 < lam <= 1:
            raise GraphFormatError(f"lambda must be in (0, 1], got {lam}")
        out = {}
        for k, p in self.entries.items():
            v = poly_eval_exact(p, lam)
            if v:
                out[k] = v
        return out

    def int_rows_at_one(self) -> dict[int, dict[int, int]]:
        """Rows of the lam := 1 specialization scaled to integers."""
        rows: dict[int, dict[int, int]] = {}
        scale: dict[int, int] = {}
        for (r, c), p in self.entries.items():
            v = poly_eval_exact(p, Fraction(1))
            if v:
                rows.setdefault(r, {})[c] = v
        out: dict[int, dict[int, int]] = {}
        for r, row in rows.items():
            denom = 1
            for v in row.values():
                denom = denom * v.denominator // gcd(denom, v.denominator)
            out[r] = {c: int(v * denom) for c, v in row.items()}
        return out

    def row_nnz_max(self) -> int:
        counts: dict[int, int] = {}
        for (r, _c) in self.entries:
            counts[r] = counts.get(r, 0) + 1
        return max(counts.values(), default=0)


# -- chain-complex operators -------------------------------------------------


def coboundary(K: CliqueComplex, k: int) -> MonomialMatrix:
    """Weighted coboundary d^k : C^k -> C^{k+1} in the normalized basis.

    Entry (sigma u {v}, sigma) is (-1)^p lam^{e_v} with p the ascending
    insertion position of v; d^{-1} sends the empty simplex to the weighted
    sum of the vertices.
    """
    if k < -1:
        return MonomialMatrix(K.dim_size(k + 1), 0)
    if k + 1 > K.max_dim:
        raise DimensionError(f"coboundary {k} needs the complex built to {k + 1}")
    key = ("d", k)
    cached = K._matrix_cache.get(key)
    if cached is not None:
        return cached
    rows = K.dim_size(k + 1)
    cols = K.dim_size(k)
    out = MonomialMatrix(rows, cols)
    index_up = K.index[k + 1]
    pos = K.vertex_pos
    for j, sigma in enumerate(K.simplices(k)):
        for v in K.up_vertices(sigma):
            pv = pos[v]
            p = 0
            while p < len(sigma) and pos[sigma[p]] < pv:
                p += 1
            tau = sigma[:p] + (v,) + sigma[p:]
            out.add_monomial(
                index_up[tau], j, Fraction((-1) ** p), K.graph.exponent(v)
            )
    K._matrix_cache[key] = out
    return out


def boundary(K: CliqueComplex, k: int) -> MonomialMatrix:
    """Weighted boundary: the transpose of coboundary(K, k-1)."""
    if k < 0:
        return MonomialMatrix(0, K.dim_size(k))
    return coboundary(K, k - 1).transpose()


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


def laplacian_parts(K: CliqueComplex, k: int) -> tuple[MonomialMatrix, MonomialMatrix]:
    """(down, up) parts whose sum is the Laplacian."""
    return laplacian_down(K, k), laplacian_up(K, k)


def laplacian(K: CliqueComplex, k: int) -> MonomialMatrix:
    down, up = laplacian_parts(K, k)
    return down + up


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
            out[e] = out.get(e, Fraction(0)) + 1
        for v in sigma:
            e = 2 * g.exponent(v)
            out[e] = out.get(e, Fraction(0)) + 1
        return {e: c for e, c in out.items() if c}
    shared = set(sigma) & set(tau)
    if len(shared) != k:
        return {}
    v_sigma = next(v for v in sigma if v not in shared)
    v_tau = next(v for v in tau if v not in shared)
    union = tuple(sorted(set(sigma) | set(tau), key=K.vertex_pos.get))
    if K.has(union):
        return {}
    s = (-1) ** (sigma.index(v_sigma) + tau.index(v_tau))
    return {g.exponent(v_sigma) + g.exponent(v_tau): Fraction(s)}


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


def write_coordinate_text(M: MonomialMatrix, fh) -> None:
    """Coordinate dump: one line per monomial term.

    Format: ``row col coeff_num coeff_den exponent`` (0-based indices),
    preceded by a header line ``rows cols nnz``.
    """
    terms = []
    for (r, c), p in sorted(M.entries.items()):
        for e, q in sorted(p.items()):
            terms.append((r, c, q.numerator, q.denominator, e))
    fh.write(f"{M.rows} {M.cols} {len(terms)}\n")
    for r, c, n, d, e in terms:
        fh.write(f"{r} {c} {n} {d} {e}\n")
