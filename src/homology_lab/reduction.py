"""Hamiltonian data model and the full graph reduction with its schedule.

A Hamiltonian is a sum of rank-1 projectors onto integer states with stated
qubit supports.  The reduction builds the n-qubit graph, glues one padded
gadget per term under a per-term namespace with no cross-gadget edges, and
decides satisfiability at desk scale: the YES branch is exact homology, the
NO branch a numeric smallest-eigenvalue certificate against the scheduled
threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .complexes import CliqueComplex, clique_complex
from .errors import GapAmbiguityError, GraphFormatError, ScheduleError, UnsupportedStateError
from .gadgets import GadgetBlueprint, IntegerState, basis_state_matrix, gadget, glue
from .graph import WeightedGraph, graph_to_json, qubit_graph
from .homology import betti, harmonic_basis
from .spectra import lambda_min

OVERLAP_CAP = 2000  # largest dim C^k for which decide reports harmonic overlaps


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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphFormatError("malformed JSON: nested too deeply") from exc
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


# -- padding and namespacing ----------------------------------------------------


def _relabel_support(bp: GadgetBlueprint, support: tuple[int, ...]) -> GadgetBlueprint:
    """Rewrite local qubit references q{j}. onto the actual support qubits."""
    mapping = {j + 1: q + 1 for j, q in enumerate(support)}

    def rename(v: str) -> str:
        if v.startswith("q"):
            head, _, rest = v.partition(".")
            local = int(head[1:])
            return f"q{mapping[local]}.{rest}"
        return v

    return replace(
        bp,
        support=tuple(q + 1 for q in support),
        boundary_vertices=tuple(sorted(rename(v) for v in bp.boundary_vertices)),
        added_edges=frozenset(
            tuple(sorted((rename(u), rename(v)))) for u, v in bp.added_edges
        ),
        boundary_edges=frozenset(
            tuple(sorted((rename(u), rename(v)))) for u, v in bp.boundary_edges
        ),
    )


def _namespace(bp: GadgetBlueprint, prefix: str) -> GadgetBlueprint:
    """Prefix the added gadget vertices (boundary references unchanged)."""
    added = {v for v, _ in bp.added_weights}

    def rename(v: str) -> str:
        return f"{prefix}{v}" if v in added else v

    return replace(
        bp,
        added_weights=tuple(sorted((rename(v), e) for v, e in bp.added_weights)),
        added_edges=frozenset(
            tuple(sorted((rename(u), rename(v)))) for u, v in bp.added_edges
        ),
        center=rename(bp.center),
    )


def pad(bp: GadgetBlueprint, n: int, base: WeightedGraph | None = None) -> GadgetBlueprint:
    """Join the gadget onto the qubit copies outside its support.

    Every gadget vertex gains an edge to every vertex of the n - m
    non-support qubit copies; the boundary cycle is unchanged.
    """
    if n < bp.m:
        raise GraphFormatError(f"cannot pad an m={bp.m} gadget down to n={n}")
    if base is None:
        base = qubit_graph(n)
    support = set(bp.support)
    outside = [
        v
        for v in base.vertices
        if int(v.split(".", 1)[0][1:]) not in support
    ]
    new_edges = set(bp.added_edges)
    for g in bp.added_vertex_names:
        for v in outside:
            new_edges.add((g, v) if g < v else (v, g))
    return replace(bp, added_edges=frozenset(new_edges))


@dataclass(frozen=True)
class ReductionResult:
    graph: WeightedGraph
    k: int
    term_prefixes: tuple[str, ...]
    blueprints: tuple[GadgetBlueprint, ...]

    def to_json(self, lam: float | None = None, threshold: float | None = None) -> str:
        meta = {
            "reduction": {
                "k": self.k,
                "lambda": lam,
                "E": threshold,
                "terms": list(self.term_prefixes),
            }
        }
        return graph_to_json(self.graph, metadata=meta, indent=2)


def reduce_hamiltonian(H: Hamiltonian) -> ReductionResult:
    """Qubit graph plus one padded, namespaced gadget per term."""
    base = qubit_graph(H.n)
    out = base
    prefixes = []
    blueprints = []
    for i, (support, state) in enumerate(H.terms, start=1):
        if state.m > 2:
            raise UnsupportedStateError(
                f"term {i} acts on {state.m} qubits; native gadgets cover m <= 2 "
                "(extension point: supply (K, R) via gadgets.fill_cycle)"
            )
        bp = gadget(state)
        bp = _relabel_support(bp, support)
        prefix = f"t{i}."
        bp = _namespace(bp, prefix)
        bp = pad(bp, H.n, base)
        out = glue(out, bp)
        prefixes.append(prefix)
        blueprints.append(bp)
    return ReductionResult(out, 2 * H.n - 1, tuple(prefixes), tuple(blueprints))


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
    return Schedule(g, t, m, c, lam, threshold)


@dataclass(frozen=True)
class Decision:
    answer: str  # YES / NO / INCONCLUSIVE
    k: int
    betti: int
    schedule: Schedule
    lam_min: float | None
    harmonic_overlaps: dict | None


def decide(H: Hamiltonian, g: float = 1.0, c: float = 0.1) -> Decision:
    """YES on exact homology; NO with a numeric certificate lam_min >= E.

    The YES branch is purely topological (no tolerance); the NO branch
    evaluates the weighted Laplacian at the scheduled lambda and compares
    its smallest eigenvalue against the scheduled threshold.  Thresholds
    scale like lam**(4m+2): once they sink below what double-precision
    eigensolves resolve (about 1e-13 relative to the operator norm), the
    answer degrades honestly to INCONCLUSIVE; a larger c brings the
    certificate back into numeric range.
    """
    if not H.terms:
        sched = schedule(g, 1, 1, c)
        return Decision("YES", 2 * H.n - 1, 2 ** H.n, sched, None, None)
    sched = schedule(g, H.t, H.max_locality, c)
    res = reduce_hamiltonian(H)
    K = clique_complex(res.graph, max_dim=res.k + 1)
    b = betti(K, res.k)
    if b >= 1:
        overlaps = _kernel_overlaps(K, res.k, H)
        return Decision("YES", res.k, b, sched, None, overlaps)
    lm = lambda_min(K, res.k, sched.lam, exact_zero=False)
    if lm >= sched.threshold:
        return Decision("NO", res.k, 0, sched, lm, None)
    return Decision("INCONCLUSIVE", res.k, 0, sched, lm, None)


def _kernel_overlaps(K: CliqueComplex, k: int, H: Hamiltonian):
    """Gram rows <z|P|w> = (B^T H)(B^T H)^T of the basis-state cycles B under
    the projector P onto the numeric harmonic space, whatever orthonormal
    basis H of it the eigensolver returns.

    Purely informational evidence; returns None when dim C^k exceeds
    OVERLAP_CAP or the numeric kernel is not cleanly separated.
    """
    if K.dim_size(k) > OVERLAP_CAP:
        return None
    try:
        hb = harmonic_basis(K, k, lam=0.5)
    except GapAmbiguityError:
        return None
    overlap = basis_state_matrix(K, H.n).T @ hb.basis
    gram = overlap @ overlap.T
    return {  # + 0.0 turns a rounded -0.0 into 0.0
        format(i, f"0{H.n}b"): [round(float(x), 10) + 0.0 for x in gram[i]]
        for i in range(gram.shape[0])
    }
