"""Hamiltonian data model and the full graph reduction with its schedule.

A Hamiltonian is a sum of rank-1 projectors onto integer states with stated
qubit supports.  The reduction builds the n-qubit graph, places each term's
gadget by one relabeling (qubit copies onto the support, filling under a
per-term prefix), pads and glues it on with no cross-gadget edges, and
decides satisfiability at desk scale: the YES branch is exact homology, the
NO branch a numeric smallest-eigenvalue certificate against the scheduled
threshold.  SciPy is imported where a float solve runs (``_factor_gram``'s
least squares and the NO branch's eigensolves), so ``reduce`` never loads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexes import CliqueComplex, clique_complex, factor_complexes
from .errors import GraphFormatError, ScheduleError
from .gadgets import IntegerState, basis_state_matrix, gadget, glue
from .graph import (
    BOWTIE_LOOPS,
    WeightedGraph,
    graph_to_json,
    load_json,
    make_graph,
    qubit_graph,
    qubit_of,
    qubit_vertex,
    relabel,
)
from .homology import HARMONIC_TOL, betti, harmonic_basis, join_betti
from .operators import coboundary
from .spectra import join_lambda_min, lambda_min

# bench/tracing.py wraps these by their names in this module; decide calls
# none of them here: betti and lambda_min are reached per factor through
# join_betti and join_lambda_min, and the factors built by factor_complexes
_TRACED = (betti, lambda_min, clique_complex, harmonic_basis)


@dataclass(frozen=True)
class Hamiltonian:
    n: int
    terms: tuple[tuple[tuple[int, ...], IntegerState], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphFormatError("need n >= 1 qubits")
        for support, state in self.terms:
            if len(support) != state.m:
                raise GraphFormatError(
                    f"support {support} does not match state on {state.m} qubits"
                )
            if len(set(support)) != len(support):
                raise GraphFormatError(f"support {support} repeats a qubit")
            if any(not 0 <= q < self.n for q in support):
                raise GraphFormatError(f"support {support} outside [0, {self.n})")
            if list(support) != sorted(support):
                raise GraphFormatError(f"support {support} must be ordered")

    @property
    def t(self) -> int:
        return len(self.terms)

    @property
    def max_locality(self) -> int:
        return max((s.m for _sup, s in self.terms), default=1)


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Schema: {"n":int,"terms":[{"support":[int...],"amps":{bits:int}}...]}."""
    doc = load_json(text)
    if not isinstance(doc, dict) or "n" not in doc or "terms" not in doc:
        raise GraphFormatError("expected an object with 'n' and 'terms'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphFormatError(f"bad qubit count {n!r}")
    if not isinstance(doc["terms"], list):
        raise GraphFormatError("'terms' must be a list")
    terms = []
    for entry in doc["terms"]:
        if not isinstance(entry, dict):
            raise GraphFormatError(f"bad term entry {entry!r}")
        support = entry.get("support")
        amps = entry.get("amps")
        if not isinstance(support, list) or not isinstance(amps, dict):
            raise GraphFormatError(f"bad term entry {entry!r}")
        if any(not isinstance(q, int) or isinstance(q, bool) for q in support):
            raise GraphFormatError(f"support {support!r} must list qubit indices")
        state = IntegerState.from_dict(len(support), dict(amps))
        terms.append((tuple(support), state))
    return Hamiltonian(n, tuple(terms))


# -- padding -------------------------------------------------------------------


def pad(g: WeightedGraph, n: int) -> WeightedGraph:
    """Join a gadget's filling onto the qubit copies outside its support.

    The support is the m qubit copies among the exponent-0 vertices.  Every
    added vertex gains an edge to every vertex of the other n - m copies,
    named as ``qubit_graph(n)`` names them; the cycle is unchanged.
    """
    boundary = (v for v, e in zip(g.vertices, g.exponents) if not e)
    support = {q for q, _v in filter(None, map(qubit_of, boundary))}
    if n < len(support):
        raise GraphFormatError(f"cannot pad an m={len(support)} gadget down to n={n}")
    labels = dict.fromkeys(v for loop in BOWTIE_LOOPS for v in loop)
    outside = [qubit_vertex(j, v) for j in range(1, n + 1) if j not in support for v in labels]
    added = [v for v, e in zip(g.vertices, g.exponents) if e]
    edges = g.edges | {(a, v) for a in added for v in outside}
    return make_graph(g.weight_map() | dict.fromkeys(outside, 0), edges)


@dataclass(frozen=True)
class ReductionResult:
    graph: WeightedGraph
    k: int
    term_prefixes: tuple[str, ...]
    gadgets: tuple[WeightedGraph, ...]

    def to_json(self, lam: float | None = None, threshold: float | None = None) -> str:
        meta = {
            "reduction": {
                "k": self.k,
                "lambda": lam,
                "E": threshold,
                "terms": list(self.term_prefixes),
            }
        }
        return graph_to_json(self.graph, metadata=meta)


def reduce_hamiltonian(H: Hamiltonian) -> ReductionResult:
    """Qubit graph plus one padded gadget per term.

    Term i's gadget is placed by one relabeling: its local qubit copy j
    goes to the j-th support qubit and its added vertices take the prefix
    ``t{i}.``, so gadgets share only qubit-graph vertices and no edge joins
    two of them.  The result keeps each placed gadget before padding, so a
    term's cycle is its exponent-0 vertices.
    """
    out = qubit_graph(H.n)
    prefixes, placed = [], []
    for i, (support, state) in enumerate(H.terms, start=1):
        g = gadget(state)
        prefix = f"t{i}."
        names = {}
        for v, e in zip(g.vertices, g.exponents):
            if e:
                names[v] = prefix + v
            else:
                q, local = qubit_of(v)
                names[v] = qubit_vertex(support[q - 1] + 1, local)
        g = relabel(g, names)
        out = glue(out, pad(g, H.n))
        prefixes.append(prefix)
        placed.append(g)
    return ReductionResult(out, 2 * H.n - 1, tuple(prefixes), tuple(placed))


# -- schedule and decision -------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    g: float
    t: int
    m: int
    c: float
    lam: float
    threshold: float


def schedule(g: float, t: int, m: int, c: float = 0.1) -> Schedule:
    """Theorem-style parameter choice lam = c g / t, E = c lam^{4m+2} g / t."""
    if g <= 0:
        raise ScheduleError("promise gap g must be positive")
    if t < 1:
        raise ScheduleError("need at least one term")
    if not 0 < c <= 1:
        raise ScheduleError("constant c must lie in (0, 1]")
    lam = c * g / t
    if not 0 < lam < 1:
        raise ScheduleError(f"schedule gives lambda = {lam}, not in (0, 1)")
    threshold = c * lam ** (4 * m + 2) * g / t
    if not threshold > 0:  # an underflowed E would certify any lambda_min
        raise ScheduleError(f"schedule gives threshold E = {threshold}, not positive")
    return Schedule(g, t, m, c, lam, threshold)


@dataclass(frozen=True, eq=False)
class Overlaps(Mapping):
    """Read-only Gram rows <z|P|w>, keyed by the n-bit strings z in ascending
    order.  ``factors`` holds each join factor's qubits Q_j and Gram matrix
    G_j; row z is formed when it is read, as prod_j G_j[z|Q_j, w|Q_j] over
    the factors in order: the Kronecker product of their rows z|Q_j, read
    through one column map built on the first read, each distinct product
    rounded once to 10 digits.  The memory held is O(sum_j 4^|Q_j|) and the
    map, and a read adds one row."""

    n: int
    factors: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    def __len__(self) -> int:
        return 2 ** self.n

    def __iter__(self):
        return (format(i, f"0{self.n}b") for i in range(2 ** self.n))

    @cached_property
    def _columns(self) -> np.ndarray:
        """w's position in the Kronecker product: the bits w|Q_1 w|Q_2 ..."""
        w = np.arange(2 ** self.n)
        order = [q for qubits, _gram in self.factors for q in qubits]
        return sum(((w >> (self.n - q)) & 1) << (self.n - 1 - t) for t, q in enumerate(order))

    def __getitem__(self, z: str) -> list[float]:
        if not isinstance(z, str) or len(z) != self.n or z.strip("01"):
            raise KeyError(z)
        row = np.ones(1)
        for qubits, gram in self.factors:
            row = np.multiply.outer(row, gram[int("".join(z[q - 1] for q in qubits), 2)]).ravel()
        values, inverse = np.unique(row, return_inverse=True)
        rounded = np.array([round(x, 10) + 0.0 for x in values.tolist()])  # + 0.0: -0.0 to 0.0
        return rounded[inverse][self._columns].tolist()


@dataclass(frozen=True)
class Decision:
    """One answer of ``decide`` with its evidence.

    ``lam_min`` is the smallest eigenvalue behind a NO or INCONCLUSIVE; on a
    YES from a reduction, ``harmonic_overlaps`` maps each basis bitstring z
    to its Gram row <z|P|w> under the harmonic projector P, formed when read
    from the join factors' Gram matrices (``Overlaps``), or is None.
    """

    answer: str  # YES / NO / INCONCLUSIVE
    k: int
    betti: int
    schedule: Schedule
    lam_min: float | None
    harmonic_overlaps: Overlaps | None


def decide(H: Hamiltonian, g: float = 1.0, c: float = 0.1) -> Decision:
    """YES on exact homology; NO with a numeric certificate lam_min >= E.

    The reduction graph's join factors are built as far as degree k needs
    (``factor_complexes``), and the answer comes from the factors:
    ``join_betti`` (Kunneth) and ``join_lambda_min``.  A graph of one factor
    is its own complex; no complex of the whole graph is built.  The YES
    branch is purely topological (no tolerance); its overlap rows stay
    products of the factors' Gram rows.  The NO branch evaluates the
    weighted Laplacians at the scheduled lambda and compares the smallest
    eigenvalue against the scheduled threshold.  Thresholds scale like
    lam**(4m+2): once they sink below what double-precision eigensolves
    resolve (about 1e-13 relative to the operator norm), the answer degrades
    honestly to INCONCLUSIVE; a larger c brings the certificate back into
    numeric range.
    """
    if not H.terms:
        sched = schedule(g, 1, 1, c)
        return Decision("YES", 2 * H.n - 1, 2 ** H.n, sched, None, None)
    sched = schedule(g, H.t, H.max_locality, c)
    res = reduce_hamiltonian(H)
    Ks = factor_complexes(res.graph, res.k)
    b = join_betti(Ks, res.k)
    if b >= 1:
        return Decision("YES", res.k, b, sched, None, _kernel_overlaps(Ks, H.n))
    lm = join_lambda_min(Ks, res.k, sched.lam)
    if lm >= sched.threshold:
        return Decision("NO", res.k, 0, sched, lm, None)
    return Decision("INCONCLUSIVE", res.k, 0, sched, lm, None)


def _kernel_overlaps(Ks: list[CliqueComplex], n: int) -> Overlaps | None:
    """Gram rows <z|P|w> = (PB)^T (PB) of the basis-state cycles B under the
    orthogonal projector P onto the harmonic space at lambda = 0.5, from the
    join factors ``Ks`` of the reduction graph.

    Each bowtie copy ``q{i}.`` lies in one factor.  A basis cycle is the
    join of its restrictions to the factors, with no sign since every loop
    chain has two vertices per simplex; the factors' harmonic spaces and
    inner products multiply across the join (Kunneth), so
    G[z, w] = prod_j G_j[z|Q_j, w|Q_j] with Q_j the qubits of factor j and
    G_j its Gram matrix in degree 2|Q_j| - 1 (``_factor_gram``), kept in
    that factored form (``Overlaps``).  Purely informational evidence;
    None when a factor's projection fails its check.
    """
    Qs = [tuple(sorted({q for q, _v in filter(None, map(qubit_of, K.graph.vertices))}))
          for K in Ks]
    grams = [_factor_gram(K, qubits) for K, qubits in zip(Ks, Qs)]
    return None if any(G is None for G in grams) else Overlaps(n, tuple(zip(Qs, grams)))


def _factor_gram(K: CliqueComplex, qubits: tuple[int, ...]) -> np.ndarray | None:
    """Gram matrix (PB)^T (PB) of the basis cycles on ``qubits`` in degree
    k = 2|qubits| - 1 of the factor complex K, P the orthogonal projector
    onto ker d^k ∩ ker ∂_k.

    B lies on the qubit graph, whose vertices all have exponent 0, so B is a
    cycle at every lambda; by Hodge, ker ∂_k = ker L_k ⊕ im d^{k*}, so
    P B = B - d^{k*} Y with Y the least-squares solution of d^{k*} Y = B.
    The projection is checked: lsqr must stop on a solution, and d^k (P B)
    must vanish to HARMONIC_TOL times d^k's largest absolute row sum; the
    result is None when it does not.
    """
    import scipy.sparse.linalg

    k = 2 * len(qubits) - 1
    B = basis_state_matrix(K, qubits)
    D = coboundary(K, k).evaluate(0.5)
    solves = [scipy.sparse.linalg.lsqr(D.T, b, atol=1e-15, btol=1e-15) for b in B.T]
    # istop 0: d^k b = 0 already, so y = 0 solves; 1 and 2: lsqr converged
    converged = all(out[1] in (0, 1, 2) for out in solves)
    R = B - D.T @ np.stack([out[0] for out in solves], axis=1)
    # a factor at its top degree has no (k+1)-simplex: d^k has no rows
    bound = HARMONIC_TOL * abs(D).sum(axis=1).max() if D.nnz else 0.0
    return R.T @ R if converged and abs(D @ R).max(initial=0.0) <= bound else None
