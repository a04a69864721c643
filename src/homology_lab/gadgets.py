"""Graph gadgets that fill in the cycle of an integer state.

The pipeline is generic: build a sphere triangulation K with a vertex
relation R onto the target cycle, thicken K into a two-layer shell, cone the
inner layer off with a central vertex, quotient the outer layer through R,
and glue the result onto the qubit graph.  Native constructions cover every
basis state (K is the cycle itself) and the superpositions on 1 and 2
qubits (rings of cut-open basis cycles glued on shared dummy vertices);
superpositions on more qubits pass through the same pipeline once a (K, R)
pair is supplied externally.

Every construction is verified on the spot: the quotient must be
2-determined, the quotient image of Cl(K) must equal the target cycle's
simplex set, and the pushed fundamental cycle of K must reproduce the
amplitude sign pattern exactly (up to one global sign).  A failure raises
instead of silently flipping orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Sequence

import numpy as np

from .complexes import (
    Chain,
    CliqueComplex,
    clique_complex,
    kunneth_embed,
    sort_with_sign,
)
from .errors import (
    GraphFormatError,
    HomologyLabError,
    OrientationAlignmentError,
    UnsupportedStateError,
)
from .graph import BOWTIE_LOOPS, WeightedGraph, layer_vertex, make_graph, thicken
from .homology import exact_columns
from . import rational

CENTER = "g.center"
# Largest sum of |amplitude| of a gcd-reduced state.  A gadget holds one copy
# of a basis cycle per unit of |amplitude|, so its build grows with the sum
# ({"0": 512, "1": 1} already takes about 1 s and 200 MB to verify).
MAX_AMPLITUDE_SUM = 512


@dataclass(frozen=True)
class IntegerState:
    """Qubit state with integer amplitudes, stored gcd-reduced."""

    m: int
    amps: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.m < 1:
            raise GraphFormatError("integer state needs m >= 1")
        seen = set()
        g = 0
        for z, a in self.amps:
            if len(z) != self.m or any(c not in "01" for c in z):
                raise GraphFormatError(f"bad bitstring {z!r} for m={self.m}")
            if z in seen:
                raise GraphFormatError(f"duplicate bitstring {z!r}")
            if not isinstance(a, int) or isinstance(a, bool) or a == 0:
                raise GraphFormatError(f"amplitude {a!r} for {z!r} must be a nonzero integer")
            seen.add(z)
            g = gcd(g, abs(a))
        if not self.amps:
            raise GraphFormatError("integer state needs at least one amplitude")
        if g > 1:
            object.__setattr__(
                self, "amps", tuple((z, a // g) for z, a in self.amps)
            )
        total = sum(abs(a) for _z, a in self.amps)
        if total > MAX_AMPLITUDE_SUM:
            raise GraphFormatError(
                f"amplitude sum {total} (gcd-reduced) is above {MAX_AMPLITUDE_SUM}"
            )

    @staticmethod
    def from_dict(m: int, amps: dict[str, int]) -> "IntegerState":
        return IntegerState(m, tuple(sorted(amps.items())))

    def label(self) -> str:
        parts = []
        for z, a in self.amps:
            sign = "-" if a < 0 else "+"
            mag = "" if abs(a) == 1 else str(abs(a))
            parts.append(f"{sign}{mag}|{z}>")
        return "".join(parts).lstrip("+")


# -- basis cycles --------------------------------------------------------------


def _loop_labels(q: int, bit: str) -> tuple[str, ...]:
    """Qubit q's bowtie loop for one bit, in traversal order."""
    return tuple(f"q{q}.{v}" for v in BOWTIE_LOOPS[int(bit)])


def basis_cycle(m: int, z: str) -> WeightedGraph:
    """The sub-octahedron of qubit_graph(m) carrying basis state |z>.

    It is the join of the per-qubit loops: each loop's four edges plus every
    pair of vertices from two different loops.
    """
    if len(z) != m or any(c not in "01" for c in z):
        raise GraphFormatError(f"bad bitstring {z!r}")
    loops = [_loop_labels(q, bit) for q, bit in enumerate(z, start=1)]
    edges = {(loop[i], loop[(i + 1) % 4]) for loop in loops for i in range(4)}
    edges |= {(u, v) for a, b in combinations(loops, 2) for u in a for v in b}
    return make_graph({v: 0 for loop in loops for v in loop}, edges)


def _loop_edge_chain(loop: tuple[str, ...]) -> Chain:
    """The loop traversed in order, each edge signed by its direction."""
    return dict(sort_with_sign((loop[i], loop[(i + 1) % 4])) for i in range(4))


def basis_chain(K: CliqueComplex, z: str) -> Chain:
    """Canonical (2m-1)-cycle chain for |z> inside a complex containing it.

    The chain is the join (``kunneth_embed``) of the per-qubit oriented loop
    chains, with shuffle-parity signs; coefficients are +-1 and the squared
    norm is 4^m in the orthonormal simplex basis.
    """
    return _joined_loops(K, range(1, len(z) + 1), z)


def _joined_loops(K: CliqueComplex, qubits: Sequence[int], z: str) -> Chain:
    """The join of the loops of copies ``q{qubits[i]}.`` for the bits z[i]."""
    chain: Chain = {(): 1}
    for q, bit in zip(qubits, z):
        chain = kunneth_embed(chain, _loop_edge_chain(_loop_labels(q, bit)), into=K)
    return chain


# -- relation / quotient -------------------------------------------------------

Relation = dict[str, str]


def apply_f(K: CliqueComplex, relation: Relation) -> CliqueComplex:
    """Quotient a clique complex through a functional vertex relation.

    Returns the clique complex of the quotient graph; raises unless the image
    simplex set is 2-determined, i.e. equals that complex.
    """
    missing = [v for v in K.graph.vertices if v not in relation]
    if missing:
        raise GraphFormatError(f"relation must be total; missing {missing[:4]}")
    weights = {}
    for v in K.graph.vertices:
        t = relation[v]
        weights.setdefault(t, K.graph.exponent(v))
    edges = set()
    for u, v in K.graph.edges:
        fu, fv = relation[u], relation[v]
        if fu != fv:
            edges.add((fu, fv) if fu < fv else (fv, fu))
    q_complex = clique_complex(make_graph(weights, edges), max_dim=max(K.max_dim, 1))
    # each simplex's image: its vertex ids mapped into the quotient, sorted,
    # repeats collapsed, found among the quotient's simplices of its size;
    # rows are padded with the quotient's vertex count, above every id
    qpos = {v: i for i, v in enumerate(q_complex.graph.vertices)}
    to_q = np.array([qpos[relation[v]] for v in K.graph.vertices], dtype=np.int64)
    levels = [ids for ids in K.ids.values() if ids.size]
    mapped = np.full((sum(map(len, levels)), len(levels)), len(qpos))
    row = 0
    for ids in levels:
        mapped[row : row + len(ids), : ids.shape[1]] = to_q[ids]
        row += len(ids)
    mapped.sort(axis=1)
    new = mapped < len(qpos)
    new[:, 1:] &= mapped[:, 1:] != mapped[:, :-1]
    sizes = new.sum(axis=1)
    hit = {k: np.zeros(len(a), bool) for k, a in q_complex.ids.items() if k >= 0 and len(a)}
    unfound: list[list[int]] = []
    for size in set(sizes.tolist()):
        pick = sizes == size
        image = mapped[pick][new[pick]].reshape(-1, size)
        at = q_complex.find(image)
        hit[size - 1][at[at >= 0]] = True
        unfound += image[at < 0].tolist()
    if unfound or not all(h.all() for h in hit.values()):
        vs = q_complex.graph.vertices
        unhit = [row for k, h in hit.items() for row in q_complex.ids[k][~h].tolist()]
        extra = sorted(tuple(vs[i] for i in row) for row in unhit)[:4]
        miss = sorted({tuple(vs[i] for i in row) for row in unfound})[:4]
        raise HomologyLabError(
            f"quotient is not 2-determined: extra={extra} missing={miss}"
        )
    return q_complex


def fundamental_cycle(K: CliqueComplex) -> Chain:
    """Generator of the top-dimensional cycle space of a sphere triangulation.

    Computed as the kernel of the boundary map restricted to top simplices;
    must be one-dimensional.  The kernel vector has coprime integer
    coefficients.
    """
    top = K.top_dimension()
    kernel = rational.nullspace(exact_columns(K, top - 1), K.dim_size(top - 1))
    if len(kernel) != 1:
        raise HomologyLabError(
            f"expected a 1-dimensional top cycle space, got {len(kernel)}"
        )
    return dict(zip(K._labels(top, list(kernel[0])), kernel[0].values()))


def push_chain(chain: Chain, relation: Relation) -> Chain:
    """Image of a chain under the vertex identification map (signed)."""
    out: Chain = {}
    for sigma, cof in chain.items():
        mapped = tuple(relation[v] for v in sigma)
        if len(set(mapped)) != len(mapped):
            continue
        srt, sign = sort_with_sign(mapped)
        out[srt] = out.get(srt, 0) + cof * sign
    return {s: v for s, v in out.items() if v}


# -- native K constructions ----------------------------------------------------


def _copy_list(state: IntegerState) -> list[tuple[str, int, int]]:
    """(bitstring, sign, copy index) per unit of amplitude, lexicographic."""
    out = []
    for z, a in sorted(state.amps):
        for c in range(abs(a)):
            out.append((z, 1 if a > 0 else -1, c))
    return out


def _mid(q: int, letter: str, num: int, copy_idx: int) -> str:
    base = f"q{q}.{letter}{num}"
    return base if copy_idx == 0 else f"{base}_{copy_idx}"


def _dummy_key(name: str) -> int:
    return int(name[1:])


def build_K(state: IntegerState) -> tuple[WeightedGraph, Relation, list[str] | None]:
    """Sphere triangulation, identification relation, and thickening order.

    Single basis states, on any number of qubits, take K equal to the cycle
    itself with the identity relation.  Superpositions on one qubit are
    rings of cut-open loops glued at shared endpoint vertices; on two
    qubits, rings of cut-open basis 3-cycles glued along shared dummy
    squares, with two extra closure vertices once four or more copies meet.
    Superpositions on three or more qubits are an extension point.
    """
    m = state.m
    copies = _copy_list(state)
    if len(copies) == 1:
        cyc = basis_cycle(m, copies[0][0])
        return cyc, {v: v for v in cyc.vertices}, None
    if m == 1:
        return _build_ring_1q(state, copies)
    if m == 2:
        return _build_ring_2q(state, copies)
    raise UnsupportedStateError(
        f"native gadget constructions cover basis states and superpositions on "
        f"m in {{1, 2}} qubits; got a superposition on m={m} (extension point: "
        f"supply an external (K, R) pair through fill_cycle)"
    )


def _build_ring_1q(state: IntegerState, copies):
    n = len(copies)
    x = "q1.x"
    endpoints = [x] + [f"x{i}" for i in range(1, n)]
    weights: dict[str, int] = {v: 0 for v in endpoints}
    edges: list[tuple[str, str]] = []
    relation: Relation = {e: x for e in endpoints}
    seen: dict[str, int] = {}
    for j, (z, sign, _cidx) in enumerate(copies):
        letter = "a" if z == "0" else "b"
        occ = seen.get(letter, 0)
        seen[letter] = occ + 1
        c3, c2, c4 = (_mid(1, letter, i, occ) for i in (3, 2, 4))
        for v, base_num in ((c3, 3), (c2, 2), (c4, 4)):
            weights[v] = 0
            relation[v] = f"q1.{letter}{base_num}"
        lo, hi = endpoints[j], endpoints[(j + 1) % n]
        first, last = (c3, c4) if sign > 0 else (c4, c3)
        edges += [(lo, first), (first, c2), (c2, last), (last, hi)]
    graph = make_graph(weights, edges)
    order = ring_thickening_order(graph, sorted(endpoints[1:], key=_dummy_key), [x])
    return graph, relation, order


def _build_ring_2q(state: IntegerState, copies):
    n = len(copies)
    x1, x2 = "q1.x", "q2.x"
    pairs = [(f"x{2 * j + 1}", f"x{2 * j + 2}") for j in range(n)]
    weights: dict[str, int] = {x1: 0, x2: 0}
    relation: Relation = {x1: x1, x2: x2}
    for p in pairs:
        for d in p:
            weights[d] = 0
            relation[d] = x1
    edges: set[tuple[str, str]] = set()

    def add_edge(u: str, v: str) -> None:
        if u != v:
            edges.add((u, v) if u < v else (v, u))

    seen: dict[tuple[int, str], int] = {}
    for j, (z, sign, _cidx) in enumerate(copies):
        letters = ("a" if z[0] == "0" else "b", "a" if z[1] == "0" else "b")
        mids: dict[int, dict[int, str]] = {}
        for q in (1, 2):
            occ = seen.get((q, letters[q - 1]), 0)
            seen[(q, letters[q - 1])] = occ + 1
            mids[q] = {}
            for i in (2, 3, 4):
                v = _mid(q, letters[q - 1], i, occ)
                mids[q][i] = v
                weights[v] = 0
                relation[v] = f"q{q}.{letters[q - 1]}{i}"
        # basis-cycle edges minus the removed [x1 x2] edge
        for q, xq in ((1, x1), (2, x2)):
            add_edge(xq, mids[q][3])
            add_edge(xq, mids[q][4])
            add_edge(mids[q][2], mids[q][3])
            add_edge(mids[q][2], mids[q][4])
        for i in (2, 3, 4):
            for i2 in (2, 3, 4):
                add_edge(mids[1][i], mids[2][i2])
            add_edge(mids[1][i], x2)
            add_edge(mids[2][i], x1)
        # dummy square: this copy's pair and the next copy's pair sit on
        # opposite edges; slot i attaches to a mid-square edge, mirrored
        # for a negative amplitude, which reverses the copy's orientation
        # relative to the ring
        pj, pn = pairs[j], pairs[(j + 1) % n]
        slots = [pj[0], pn[0], pn[1], pj[1]]
        square = (mids[1][3], mids[2][3], mids[1][4], mids[2][4])
        for i in range(4):
            d = slots[i]
            add_edge(d, slots[(i + 1) % 4])
            add_edge(d, x1)
            add_edge(d, x2)
            e = i if sign > 0 else -i % 4
            add_edge(d, square[e])
            add_edge(d, square[(e + 1) % 4])
    dummies = [d for p in pairs for d in p]
    if n >= 4:
        # closure vertices: the roof and floor of the viewing platform are
        # n-gons for n >= 4 and need coning; they also see both peaks
        roof, floor = f"x{2 * n + 1}", f"x{2 * n + 2}"
        for v, side in ((roof, 0), (floor, 1)):
            weights[v] = 0
            relation[v] = x1
            dummies.append(v)
            for p in pairs:
                add_edge(v, p[side])
            add_edge(v, x1)
            add_edge(v, x2)
    graph = make_graph(weights, edges)
    order = ring_thickening_order(graph, sorted(dummies, key=_dummy_key), [x1, x2])
    return graph, relation, order


# -- the fill pipeline ---------------------------------------------------------


@dataclass(frozen=True)
class GadgetBlueprint:
    """One filled cycle as a graph: the cycle plus the vertices filling it.

    Base vertices of ``graph`` keep weight exponent 0 and must already exist
    in the graph the blueprint is glued onto: the ``boundary_vertices`` of
    the cycle and, once padded, the qubit copies outside the support.  Every
    added vertex carries exponent 1, so the exponents tell the parts apart.
    """

    m: int
    graph: WeightedGraph
    boundary_vertices: tuple[str, ...]

    @property
    def added_vertex_names(self) -> tuple[str, ...]:
        g = self.graph
        return tuple(v for v, e in zip(g.vertices, g.exponents) if e)

    @property
    def added_edges(self) -> frozenset[tuple[str, str]]:
        added = set(self.added_vertex_names)
        return frozenset(e for e in self.graph.edges if e[0] in added or e[1] in added)


def ring_thickening_order(
    k_graph: WeightedGraph, dummies: list[str], reals: list[str]
) -> list[str]:
    """Vertex order used to thicken ring-glued spheres.

    Dummy vertices come first, then the shared real vertices, then the
    per-copy mid vertices (duplicated copies before the originals).  This
    steers the diagonal edges of the thickening so that the quotient stays
    2-determined when copies of the same basis cycle meet in the ring.
    """
    head = list(dummies) + list(reals)
    seen = set(head)
    tail = sorted(
        (v for v in k_graph.vertices if v not in seen),
        key=lambda v: (0 if "_" in v else 1, v),
    )
    return head + tail


def fill_cycle(
    j_graph: WeightedGraph,
    k_graph: WeightedGraph,
    relation: Relation,
    state: IntegerState | None = None,
    order: list[str] | None = None,
) -> GadgetBlueprint:
    """Thicken K, cone it off, quotient the outer layer onto the cycle.

    ``relation`` must be functional on K's vertices and surjective onto the
    cycle's vertex set.  When ``state`` is given, the cycle is its target
    cycle and the pushed fundamental cycle of K must equal its
    ``target_chain`` exactly up to one global sign; the blueprint keeps
    only the state's qubit count.  ``order`` steers the thickening's
    diagonals (``thicken``'s default is label order).
    """
    j0 = set(j_graph.vertices)
    if {relation.get(v) for v in k_graph.vertices} != j0:
        raise GraphFormatError(
            "relation must map K's vertices onto the cycle's vertices"
        )
    K = clique_complex(k_graph, max_dim=k_graph.n_vertices - 1)
    top = K.top_dimension()
    # apply_f checks that f(Cl(K)) is the clique complex J of its image
    # graph, so equal edges make J exactly the cycle's simplex set
    J = apply_f(K, relation)
    if J.graph.edges != j_graph.edges:
        raise HomologyLabError("f(K) does not reproduce the target cycle's edges")
    if state is not None:
        expected = target_chain(state, J)
        pushed = push_chain(fundamental_cycle(K), relation)
        if pushed != expected and pushed != {s: -c for s, c in expected.items()}:
            raise OrientationAlignmentError(
                "pushed fundamental cycle does not match the amplitude pattern"
            )
    if "center" in k_graph.vertices:
        raise GraphFormatError("K may not use the reserved vertex name 'center'")
    # thicken and cone; the inner layer and the center are the added
    # vertices, and their exponent 1 survives the quotient
    added = {layer_vertex(v, 1): f"g.{v}" for v in k_graph.vertices} | {CENTER: CENTER}
    weights = {layer_vertex(v, 0): 0 for v in k_graph.vertices} | dict.fromkeys(added, 1)
    edges = set(thicken(k_graph, order).edges)
    edges |= {(CENTER, layer_vertex(v, 1)) for v in k_graph.vertices}
    coned = clique_complex(make_graph(weights, edges), max_dim=top + 2)
    if coned.dim_size(top + 2):
        raise HomologyLabError("coned shell has unexpected high-dimensional cliques")
    mu = {layer_vertex(v, 0): relation[v] for v in k_graph.vertices} | added
    m = state.m if state else (top + 1) // 2
    return GadgetBlueprint(m, apply_f(coned, mu).graph, tuple(sorted(j0)))


def target_cycle_graph(state: IntegerState) -> WeightedGraph:
    """Union of the basis cycles carrying nonzero amplitude."""
    weights: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    for z, _a in state.amps:
        cyc = basis_cycle(state.m, z)
        weights |= dict.fromkeys(cyc.vertices, 0)
        edges |= cyc.edges
    return make_graph(weights, edges)


def target_chain(state: IntegerState, complex_: CliqueComplex) -> Chain:
    out: Chain = {}
    for z, a in state.amps:
        for s, c in basis_chain(complex_, z).items():
            w = out.get(s, 0) + a * c
            if w:
                out[s] = w
            elif s in out:
                del out[s]
    return out


def gadget(state: IntegerState) -> GadgetBlueprint:
    """Blueprint implementing the rank-1 projector onto an integer state."""
    k_graph, relation, order = build_K(state)
    return fill_cycle(target_cycle_graph(state), k_graph, relation, state, order)


def glue(base: WeightedGraph, bp: GadgetBlueprint) -> WeightedGraph:
    """Union of the base graph and the blueprint's graph.

    The blueprint's exponent-0 vertices must exist in the base with weight
    exponent 0, the cycle's edges must already be present and the added
    vertices must be new; no edges are induced between base vertices.
    """
    base_vs = set(base.vertices)
    for v, e in zip(bp.graph.vertices, bp.graph.exponents):
        if e:
            if v in base_vs:
                raise GraphFormatError(f"gadget vertex {v!r} collides with base graph")
        elif v not in base_vs:
            raise GraphFormatError(f"base vertex {v!r} missing from base graph")
        elif base.exponent(v) != 0:
            raise GraphFormatError(f"base vertex {v!r} must have weight exponent 0")
    missing = bp.graph.edges - bp.added_edges - base.edges
    if missing:
        raise GraphFormatError(f"base graph is missing cycle edges {sorted(missing)[:4]}")
    return make_graph(base.weight_map() | bp.graph.weight_map(), base.edges | bp.graph.edges)


# -- projector catalog ---------------------------------------------------------


def catalog() -> dict[str, IntegerState]:
    """Named rank-1 projector states used by the quantum 4-SAT reduction."""
    entries: dict[str, dict[str, int]] = {
        "HpropT": {"1011": 1, "1000": -1},
        "HpropCNOT1": {"0110": 1, "0101": -1},
        "HpropCNOT2": {"0010": 1, "0001": -1},
        "Pyth1": {"011": -5, "100": 4, "101": 3},
        "Pyth2": {"010": -5, "100": 3, "101": -4},
        "HpropCNOT3": {"1101": 1, "1010": -1},
        "HpropCNOT4": {"1011": 1, "1100": -1},
        "Hclock1": {"00": 1},
        "Hclock2": {"11": 1},
        "HinHout": {"011": 1},
        "Hclock3456": {"1100": 1},
        "Hclock4": {"0111": 1},
        "Hclock5": {"0001": 1},
    }
    return {
        name: IntegerState.from_dict(len(next(iter(amps))), amps)
        for name, amps in entries.items()
    }


# -- harmonic comparison helpers -----------------------------------------------


def basis_state_matrix(K: CliqueComplex, qubits: Sequence[int]) -> np.ndarray:
    """Columns: normalized basis-cycle chains over C^{2m-1} on the m qubit
    copies ``q{i}.`` for i in ``qubits``, one per bitstring over them in
    that order."""
    m = len(qubits)
    k = 2 * m - 1
    n = K.dim_size(k)
    cols = []
    for i in range(2 ** m):
        chain = _joined_loops(K, qubits, format(i, f"0{m}b"))
        v = np.zeros(n)
        v[K.locate(list(chain))] = list(chain.values())
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def orthogonal_cycle_span(K: CliqueComplex, state: IntegerState) -> np.ndarray:
    """Orthonormal basis of span{basis cycles} orthogonal to the state."""
    mat = basis_state_matrix(K, range(1, state.m + 1))
    amp = np.zeros(2 ** state.m)
    for z, a in state.amps:
        amp[int(z, 2)] = a
    amp = amp / np.linalg.norm(amp)
    # complete amp to an orthonormal basis; drop the amp direction
    q, _ = np.linalg.qr(
        np.concatenate([amp[:, None], np.eye(2 ** state.m)], axis=1)
    )
    comp = q[:, 1 : 2 ** state.m]
    return mat @ comp
