"""Reference oracles that the tests check the library against, built on
its public id API.

- The label view of a complex: ``simplices`` lists a degree's simplices as
  label tuples, and ``locate`` finds label tuples among them, through the
  graph's ``ids`` and the complex's ``find``.  The library itself holds
  vertex ids only.
- The label-chain algebra, an independent Künneth oracle for the library's
  integer chains.  A chain here is a dict from label simplices (tuples of
  vertex labels in canonical order) to int or Fraction coefficients.
  Orientation signs compare labels, and the join of two chains is the
  Künneth embedding with shuffle-parity signs.  The library builds basis
  cycles and pushes fundamental cycles on vertex ids (``gadgets``); the
  tests compare those vectors with what this module builds from labels.
- The exact witnesses on label chains: ``is_cycle`` and
  ``cycle_is_boundary`` apply the rows of d^k at lam := 1
  (``homology.exact_columns``) to a chain's exact vector.
- The Laplacian's up and down halves, each the sum over all pairs of
  coboundary slices, their supersymmetric pairing, and the entrywise
  four-way rule with its embedding on all vertex subsets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from homology_lab import rational
from homology_lab.complexes import CliqueComplex
from homology_lab.errors import DimensionError, GraphFormatError, HomologyLabError
from homology_lab.gadgets import IntegerState, basis_state_matrix
from homology_lab.graph import BOWTIE_LOOPS, WeightedGraph, make_graph, qubit_vertex
from homology_lab.homology import exact_columns
from homology_lab.operators import MonomialMatrix, Poly, coboundary
from homology_lab.spectra import ZERO_TOL

Simplex = tuple[str, ...]
Chain = dict[Simplex, int | Fraction]
PAIRING_TOL = 1e-8  # relative mismatch allowed between paired up/down eigenvalues


class NotACycleError(HomologyLabError):
    """A chain expected to be a cycle has nonzero boundary."""


def join(g: WeightedGraph, h: WeightedGraph) -> WeightedGraph:
    """Disjoint union plus all cross edges; labels must not collide.  The
    join of two graphs at a time: ``graph.join_all`` builds an n-fold join
    in one pass."""
    overlap = set(g.vertices) & set(h.vertices)
    if overlap:
        raise GraphFormatError(f"label collision on join: {sorted(overlap)}")
    edges = [*g.edges, *h.edges, *product(g.vertices, h.vertices)]
    return make_graph(g.weight_map() | h.weight_map(), edges)


def simplices(K: CliqueComplex, k: int, rows=slice(None)) -> tuple[Simplex, ...]:
    """The k-simplices of K at ``rows`` (an index list; all by default) as
    label tuples, in index order; none below -1, nor above max_dim when
    complete."""
    if K.dim_size(k) == 0:
        return ()
    vs = K.graph.vertices
    return tuple(tuple(vs[i] for i in row) for row in K.ids[k][rows].tolist())


def locate(K: CliqueComplex, sims: Sequence[Simplex]) -> np.ndarray:
    """Each label simplex's index in its degree of K, -1 where it is not one;
    the simplices may have any sizes."""
    found = np.full(len(sims), -1)
    by_size: dict[int, list[int]] = {}
    for i, s in enumerate(sims):
        by_size.setdefault(len(s), []).append(i)
    for size, pick in by_size.items():
        ids = K.graph.ids(v for i in pick for v in sims[i])
        found[pick] = K.find(ids.reshape(len(pick), size))
    return found


def sort_with_sign(vertices: Iterable[str]) -> tuple[Simplex, int]:
    """Sort into canonical (label) order; returns (tuple, permutation sign).

    Sign is 0 when a vertex repeats (the simplex collapses).
    """
    vs = list(vertices)
    sign = 1
    # insertion sort, counting swaps; simplices are tiny
    for i in range(1, len(vs)):
        j = i
        while j > 0 and vs[j] < vs[j - 1]:
            vs[j], vs[j - 1] = vs[j - 1], vs[j]
            sign = -sign
            j -= 1
    for a, b in zip(vs, vs[1:]):
        if a == b:
            return tuple(vs), 0
    return tuple(vs), sign


def kunneth_embed(psi: Chain, phi: Chain, *, into: CliqueComplex) -> Chain:
    """Bilinear embedding C^i(K) x C^j(L) -> C^{i+j+1}(K * L).

    ``psi`` and ``phi`` are chains on the two factors (simplices keyed by
    their own labels, which must be disjoint and present in the join).  The
    image of a basis pair |sigma> (x) |tau> is the merged simplex with the
    shuffle-parity sign.  The empty simplex acts as the unit.  Coefficients
    multiply as given, so integer chains give an integer chain.
    """
    out: Chain = {}
    for sigma, c in psi.items():
        if c == 0:
            continue
        for tau, d in phi.items():
            if d == 0:
                continue
            merged, sign = sort_with_sign(sigma + tau)
            if sign == 0:
                raise DimensionError(f"factors share vertices: {sigma!r} and {tau!r}")
            out[merged] = out.get(merged, 0) + sign * c * d
    for merged, at in zip(out, locate(into, list(out))):
        if at < 0:
            raise DimensionError(f"{merged!r} is not a simplex of the join")
    return {s: v for s, v in out.items() if v != 0}


def loop_chain(q: int, bit: str) -> Chain:
    """Copy q's bowtie loop for one bit, traversed in order, each edge signed
    by its direction."""
    loop = [qubit_vertex(q, v) for v in BOWTIE_LOOPS[int(bit)]]
    return dict(sort_with_sign((loop[i], loop[(i + 1) % 4])) for i in range(4))


def joined_loops(K: CliqueComplex, qubits: Sequence[int], z: str) -> Chain:
    """The join of the loops of copies ``q{qubits[i]}.`` for the bits z[i]."""
    chain: Chain = {(): 1}
    for q, bit in zip(qubits, z):
        chain = kunneth_embed(chain, loop_chain(q, bit), into=K)
    return chain


def basis_chain(K: CliqueComplex, z: str) -> Chain:
    """Canonical (2m-1)-cycle chain for |z> on copies 1..m inside K; its
    coefficients are +-1 and its squared norm is 4^m."""
    return joined_loops(K, range(1, len(z) + 1), z)


def target_chain(state: IntegerState, K: CliqueComplex) -> Chain:
    """The sum of the state's amplitudes times their basis chains."""
    out: Chain = {}
    for z, a in state.amps:
        for s, c in basis_chain(K, z).items():
            out[s] = out.get(s, 0) + a * c
    return {s: c for s, c in out.items() if c}


def push_chain(chain: Chain, relation: dict[str, str]) -> Chain:
    """Image of a chain under the vertex identification map (signed)."""
    out: Chain = {}
    for sigma, cof in chain.items():
        srt, sign = sort_with_sign(relation[v] for v in sigma)
        if sign:
            out[srt] = out.get(srt, 0) + cof * sign
    return {s: v for s, v in out.items() if v}


def chain_vector(K: CliqueComplex, k: int, chain: Chain, dtype=float) -> np.ndarray:
    """A chain of k-simplices of K as a dense vector over degree k: float, or
    the exact coefficients with ``dtype=object``."""
    at = locate(K, list(chain))
    for s, i in zip(chain, at):
        if i < 0 or len(s) != k + 1:
            raise DimensionError(f"{s!r} is not a {k}-simplex of the complex")
    v = np.zeros(K.dim_size(k), dtype=dtype)
    v[at] = np.array(list(chain.values()), dtype=dtype)
    return v


def chain_dimension(chain: Chain) -> int:
    ks = {len(s) - 1 for s in chain}
    if len(ks) > 1:
        raise DimensionError(f"mixed-dimension chain: {sorted(ks)}")
    return ks.pop() if ks else -2


# -- exact witnesses -------------------------------------------------------------


def is_cycle(K: CliqueComplex, chain: Chain, k: int | None = None) -> bool:
    """boundary_k(c) = 0 exactly: the columns of boundary_k are the rows of
    d^{k-1} at lam := 1."""
    k = chain_dimension(chain) if k is None else k
    x = chain_vector(K, k, chain, object)
    if k <= -1:
        return True
    cols = exact_columns(K, k - 1)
    out = np.zeros(K.dim_size(k - 1), dtype=object)
    np.add.at(out, cols.rows, np.repeat(x, np.diff(cols.indptr)) * cols.vals)
    return not any(out)


def cycle_is_boundary(
    K: CliqueComplex, chain: Chain, k: int | None = None
) -> tuple[bool, Chain | None]:
    """Exact test c in im(boundary_{k+1}) over Q, with a preimage witness
    from ``rational.solve`` on the rows of d^k, the columns of
    boundary_{k+1}.  Raises NotACycleError unless boundary_k(c) = 0."""
    k = chain_dimension(chain) if k is None else k
    if not is_cycle(K, chain, k):
        raise NotACycleError("chain has nonzero boundary")
    b = {i: c for i, c in enumerate(chain_vector(K, k, chain, object)) if c}
    x = rational.solve(exact_columns(K, k), K.dim_size(k), b)
    if x is None:
        return False, None
    # a zero cycle bounds the empty chain, also above a complete complex's top
    return True, dict(zip(simplices(K, k + 1, list(x)), x.values())) if x else {}


def orthogonal_cycle_span(K: CliqueComplex, state: IntegerState) -> np.ndarray:
    """Orthonormal basis of span{basis cycles} orthogonal to the state."""
    amp = np.zeros(2 ** state.m)
    for z, a in state.amps:
        amp[int(z, 2)] = a
    # complete amp to an orthonormal basis; drop the amp direction
    q, _ = np.linalg.qr(np.column_stack([amp / np.linalg.norm(amp), np.eye(len(amp))]))
    return basis_state_matrix(K, range(1, state.m + 1)) @ q[:, 1 : len(amp)]


# -- the Laplacian's halves and entrywise rule -----------------------------------


def _gram(d: MonomialMatrix, up: bool) -> MonomialMatrix:
    """The sum over all pairs (a, b) of d's exponent slices of
    lam**(a + b) D_a^T D_b when ``up``, else lam**(a + b) D_a D_b^T."""
    n, S = (d.cols if up else d.rows), d.slices.items()
    return MonomialMatrix(n, n, [(a + b, (A.T @ B if up else A @ B.T).tocsr())
                                 for a, A in S for b, B in S])


def laplacian_up(K: CliqueComplex, k: int) -> MonomialMatrix:
    """Adjoint of d^k after d^k; needs the complex built to k + 1."""
    return _gram(coboundary(K, k), up=True)


def laplacian_down(K: CliqueComplex, k: int) -> MonomialMatrix:
    """d^{k-1} after its adjoint; needs the complex built to k only."""
    return _gram(coboundary(K, k - 1), up=False)


@dataclass(frozen=True)
class PairingReport:
    lam: float
    max_mismatch: float
    counts: dict

    @property
    def paired(self) -> bool:
        return self.max_mismatch <= PAIRING_TOL


def pairing_check(K: CliqueComplex, lam: float = 1.0) -> PairingReport:
    """Supersymmetric pairing: for each k from -1 to max_dim - 1, with D the
    evaluated d^k, the positive eigenvalues of D^T D (up at k) and of D D^T
    (down at k + 1) agree as multisets, within relative PAIRING_TOL.  This
    exhausts the positive spectrum into doublets, with singlets exactly the
    harmonic states; ``counts[k]`` is the number of doublets."""
    max_mismatch, counts = 0.0, {}
    for k in range(-1, K.max_dim):
        D = coboundary(K, k).evaluate(lam).toarray()
        up, down = (v[v > ZERO_TOL] for v in map(np.linalg.eigvalsh, (D.T @ D, D @ D.T)))
        if len(up) != len(down):
            return PairingReport(lam, float("inf"), {"level": k, "up": len(up), "down": len(down)})
        if len(up):
            max_mismatch = max(max_mismatch, float(np.max(np.abs(up - down) / up)))
        counts[k] = len(up)
    return PairingReport(lam, max_mismatch, counts)


def poly_eval_float(a: Poly, lam: float) -> float:
    return float(sum(float(c) * lam**e for e, c in a.items()))


def laplacian_entry(K: CliqueComplex, k: int, sigma: Simplex, tau: Simplex) -> Poly:
    """Laplacian entry from the local four-way rule, without assembly.

    Off-diagonal: lower-adjacent non-upper-adjacent pairs contribute
    ``+- w(v_sigma) w(v_tau)`` with the sign given by orientation similarity
    of the common lower simplex; upper-adjacent and non-adjacent pairs give
    zero.  The diagonal is the direct-assembly value
    ``sum_up w(u)^2 + sum_members w(v)^2``, u over the vertices adjacent to
    all of sigma.  Published entrywise formulas sometimes carry an extra
    ``+1`` on the diagonal; direct assembly shows that term is the
    augmentation contribution and arises only at k = 0 for an unweighted
    vertex, so the assembled matrix is taken as ground truth here.
    """
    if min(locate(K, [sigma, tau]).tolist()) < 0:
        raise DimensionError("simplex not present in the complex")
    if len(sigma) != k + 1 or len(tau) != k + 1:
        raise DimensionError("dimension mismatch")
    g = K.graph
    if sigma == tau:
        up = [g.vertices[i] for i in np.flatnonzero(g.adjacency[g.ids(sigma)].all(axis=0))]
        return dict(Counter(2 * g.exponent(v) for v in [*up, *sigma]))
    shared = set(sigma) & set(tau)
    if len(shared) != k:
        return {}
    (v_sigma,), (v_tau,) = set(sigma) - shared, set(tau) - shared
    if g.adjacency[tuple(g.ids([v_sigma, v_tau]))]:  # upper adjacent
        return {}
    s = (-1) ** (sigma.index(v_sigma) + tau.index(v_tau))
    return {g.exponent(v_sigma) + g.exponent(v_tau): s}


def embedded_entry(
    K: CliqueComplex, k: int, x: str, y: str, penalty: float, lam: float = 1.0
) -> float:
    """Entry <x|...|y> of the embedded operator acting on all vertex subsets:
    the Laplacian entry when both indicator bitstrings are (k+1)-cliques,
    the penalty on non-clique diagonal entries, and zero otherwise.
    Computed from the entrywise rule; the full matrix is never built."""
    vs = K.graph.vertices
    if len(x) != len(vs) or len(y) != len(vs):
        raise DimensionError(f"bitstring lengths {len(x)}, {len(y)} != vertex count {len(vs)}")
    sx, sy = (tuple(v for v, bit in zip(vs, bits) if bit == "1") for bits in (x, y))
    if len(sx) == len(sy) == k + 1 and min(locate(K, [sx, sy]).tolist()) >= 0:
        return poly_eval_float(laplacian_entry(K, k, sx, sy), lam)
    return float(penalty) if x == y else 0.0
