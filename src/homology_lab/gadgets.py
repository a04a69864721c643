"""Graph gadgets that fill in the cycle of an integer state.

The pipeline is generic: build a sphere triangulation K with a vertex
relation R onto the target cycle, thicken K into a two-layer shell, cone the
inner layer off with a central vertex, quotient the outer layer through R,
and glue the result onto the qubit graph.  Native constructions cover 1- and
2-qubit integer states (rings of cut-open basis cycles glued on shared dummy
vertices); larger states pass through the same pipeline once a (K, R) pair
is supplied externally.

Every construction is verified on the spot: the quotient must be
2-determined, the quotient image of Cl(K) must equal the target cycle's
simplex set, and the pushed fundamental cycle of K must reproduce the
amplitude sign pattern exactly (up to one global sign).  A failure raises
instead of silently flipping orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .complexes import (
    Chain,
    CliqueComplex,
    Simplex,
    clique_complex,
    merge_sign,
    sort_with_sign,
)
from .errors import (
    GraphFormatError,
    HomologyLabError,
    OrientationAlignmentError,
    UnsupportedStateError,
)
from .graph import (
    WeightedGraph,
    graph_to_json,
    induced_subgraph,
    layer_vertex,
    make_graph,
    qubit_graph,
    thicken,
)
from . import rational

CENTER = "g.center"


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

    @staticmethod
    def from_dict(m: int, amps: dict[str, int]) -> "IntegerState":
        return IntegerState(m, tuple(sorted(amps.items())))

    def amp_map(self) -> dict[str, int]:
        return dict(self.amps)

    def label(self) -> str:
        parts = []
        for z, a in self.amps:
            sign = "-" if a < 0 else "+"
            mag = "" if abs(a) == 1 else str(abs(a))
            parts.append(f"{sign}{mag}|{z}>")
        return "".join(parts).lstrip("+")


# -- basis cycles --------------------------------------------------------------


def _loop_labels(q: int, bit: str) -> tuple[str, str, str, str]:
    c = "a" if bit == "0" else "b"
    return (f"q{q}.x", f"q{q}.{c}3", f"q{q}.{c}2", f"q{q}.{c}4")


@dataclass(frozen=True)
class BasisCycle:
    z: str
    graph: WeightedGraph
    loops: tuple[tuple[str, str, str, str], ...]  # per-qubit traversal order


def basis_cycle(m: int, z: str) -> BasisCycle:
    """The sub-octahedron of qubit_graph(m) carrying basis state |z>."""
    if len(z) != m or any(c not in "01" for c in z):
        raise GraphFormatError(f"bad bitstring {z!r}")
    loops = tuple(_loop_labels(q + 1, z[q]) for q in range(m))
    vs = [v for loop in loops for v in loop]
    sub = induced_subgraph(qubit_graph(m), vs)
    return BasisCycle(z, sub, loops)


def _loop_edge_chain(loop: tuple[str, str, str, str]) -> list[tuple[Simplex, int]]:
    out = []
    for i in range(4):
        p, q = loop[i], loop[(i + 1) % 4]
        if p < q:
            out.append(((p, q), 1))
        else:
            out.append(((q, p), -1))
    return out


def basis_chain(K: CliqueComplex, z: str) -> Chain:
    """Canonical (2m-1)-cycle chain for |z> inside a complex containing it.

    The chain is the iterated join of the per-qubit oriented loop chains,
    with shuffle-parity signs; coefficients are +-1 and the squared norm is
    4^m in the orthonormal simplex basis.
    """
    m = len(z)
    chain: Chain = {(): 1}
    for q in range(m):
        loop = _loop_edge_chain(_loop_labels(q + 1, z[q]))
        new: Chain = {}
        for sigma, cof in chain.items():
            for edge, s in loop:
                merged, ms = merge_sign(sigma, edge)
                if ms == 0:
                    raise HomologyLabError("loop vertices collide across qubits")
                new[merged] = new.get(merged, 0) + cof * s * ms
        chain = new
    for sigma in chain:
        if not K.has(sigma):
            raise GraphFormatError(f"basis cycle simplex {sigma!r} missing from complex")
    return chain


# -- relation / quotient -------------------------------------------------------

Relation = dict[str, str]


def apply_f(K: CliqueComplex, relation: Relation) -> WeightedGraph:
    """Quotient a clique complex through a functional vertex relation.

    Returns the quotient graph; raises unless the image simplex set is
    2-determined, i.e. equals the clique complex of the quotient graph.
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
    q_graph = make_graph(weights, edges)
    image = image_simplices(K, relation)
    q_complex = clique_complex(q_graph, max_dim=max(K.max_dim, 1))
    actual = {s for k in range(-1, q_complex.max_dim + 1) for s in q_complex.simplices(k)}
    if image != actual:
        extra = sorted(actual - image)[:4]
        miss = sorted(image - actual)[:4]
        raise HomologyLabError(
            f"quotient is not 2-determined: extra={extra} missing={miss}"
        )
    return q_graph


def image_simplices(K: CliqueComplex, relation: Relation) -> set[Simplex]:
    image: set[Simplex] = set()
    for k in range(-1, K.max_dim + 1):
        for sigma in K.simplices(k):
            image.add(tuple(sorted({relation[v] for v in sigma})))
    return image


def fundamental_cycle(K: CliqueComplex) -> Chain:
    """Generator of the top-dimensional cycle space of a sphere triangulation.

    Computed as the kernel of the boundary map restricted to top simplices;
    must be one-dimensional.  The kernel vector has coprime integer
    coefficients.
    """
    top = K.top_dimension()
    # looked up at call time, so a tracer that patches operators.coboundary
    # (bench/tracing.py) also sees the gadget build's coboundaries
    from .operators import coboundary

    rows = coboundary(K, top - 1).int_rows_at_one()
    cols = [rows.get(j, {}) for j in range(K.dim_size(top))]
    kernel = rational.nullspace(cols, K.dim_size(top - 1))
    if len(kernel) != 1:
        raise HomologyLabError(
            f"expected a 1-dimensional top cycle space, got {len(kernel)}"
        )
    sims = K.simplices(top)
    return {sims[i]: v for i, v in kernel[0].items()}


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

    Single basis states take K equal to the cycle itself with the identity
    relation.  Superpositions on one qubit are rings of cut-open loops glued
    at shared endpoint vertices; on two qubits, rings of cut-open basis
    3-cycles glued along shared dummy squares, with two extra closure
    vertices once four or more copies meet.  States on three or more qubits
    are an extension point.
    """
    m = state.m
    copies = _copy_list(state)
    if len(copies) == 1:
        z = copies[0][0]
        cyc = basis_cycle(m, z)
        return cyc.graph, {v: v for v in cyc.graph.vertices}, None
    if m == 1:
        return _build_ring_1q(state, copies)
    if m == 2:
        return _build_ring_2q(state, copies)
    raise UnsupportedStateError(
        f"native gadget constructions cover m in {{1, 2}}; got m={m} "
        f"(supply an external (K, R) pair through fill_cycle)"
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
    """Added vertices/edges implementing one filled cycle.

    ``boundary_vertices`` (the cycle being glued onto) stay weight-exponent
    0 and must already exist in the base graph; all added vertices carry
    exponent 1.
    """

    m: int
    state: IntegerState | None
    support: tuple[int, ...]
    boundary_vertices: tuple[str, ...]
    added_weights: tuple[tuple[str, int], ...]
    added_edges: frozenset[tuple[str, str]]
    center: str
    boundary_edges: frozenset[tuple[str, str]]

    @property
    def added_vertex_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.added_weights)

    def metadata(self) -> dict:
        return {
            "gadget": {
                "m": self.m,
                "state": dict(self.state.amps) if self.state else None,
                "j0": sorted(self.boundary_vertices),
            }
        }

    def standalone_graph(self) -> WeightedGraph:
        """The blueprint as a graph: boundary cycle plus added vertices/edges."""
        weights = {v: 0 for v in self.boundary_vertices} | dict(self.added_weights)
        return make_graph(weights, set(self.boundary_edges) | set(self.added_edges))

    def to_json(self, indent: int | None = 2) -> str:
        return graph_to_json(self.standalone_graph(), metadata=self.metadata(), indent=indent)


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
    expected_chain: Chain | None = None,
    state: IntegerState | None = None,
    m: int | None = None,
    order: list[str] | None = None,
) -> GadgetBlueprint:
    """Thicken K, cone it off, quotient the outer layer onto the cycle.

    ``relation`` must be functional on K's vertices and surjective onto the
    cycle's vertex set.  When ``expected_chain`` is given, the pushed
    fundamental cycle of K must equal it exactly up to one global sign.
    """
    j0 = set(j_graph.vertices)
    targets = {relation.get(v) for v in k_graph.vertices}
    if None in targets:
        raise GraphFormatError("relation must cover every K vertex")
    if targets != j0:
        raise GraphFormatError(
            "relation must be surjective onto the cycle's vertices"
        )
    K = clique_complex(k_graph, max_dim=k_graph.n_vertices - 1)
    top = K.top_dimension()
    # verify f(Cl(K)) is exactly the cycle's simplex set
    j_complex = clique_complex(j_graph, max_dim=top + 1)
    if j_complex.dim_size(top + 1):
        raise HomologyLabError("target cycle has simplices above the sphere dimension")
    j_sims = {s for k in range(-1, top + 1) for s in j_complex.simplices(k)}
    if image_simplices(K, relation) != j_sims:
        raise HomologyLabError("f(K) does not reproduce the target cycle's simplices")
    if expected_chain is not None:
        pushed = push_chain(fundamental_cycle(K), relation)
        if pushed != expected_chain and pushed != {
            s: -c for s, c in expected_chain.items()
        }:
            raise OrientationAlignmentError(
                "pushed fundamental cycle does not match the amplitude pattern"
            )
    if "center" in k_graph.vertices:
        raise GraphFormatError("K may not use the reserved vertex name 'center'")
    # thicken and cone
    thick = thicken(k_graph, order if order is not None else sorted(k_graph.vertices))
    inner = {layer_vertex(v, 1): f"g.{v}" for v in k_graph.vertices}
    cone_weights = {v: 0 for v in thick.vertices} | {CENTER: 0}
    cone_edges = set(thick.edges) | {
        tuple(sorted((CENTER, layer_vertex(v, 1)))) for v in k_graph.vertices
    }
    coned = make_graph(cone_weights, cone_edges)
    # quotient map on the coned graph
    mu = {layer_vertex(v, 0): relation[v] for v in k_graph.vertices}
    mu |= {layer_vertex(v, 1): inner[layer_vertex(v, 1)] for v in k_graph.vertices}
    mu[CENTER] = CENTER
    coned_complex = clique_complex(coned, max_dim=top + 2)
    if coned_complex.dim_size(top + 2):
        raise HomologyLabError("coned shell has unexpected high-dimensional cliques")
    q_graph = apply_f(coned_complex, mu)
    # split edges into gadget-incident and cycle-internal
    gadget_vertices = set(inner.values()) | {CENTER}
    added_edges = set()
    internal = set()
    for e in q_graph.edges:
        if e[0] in gadget_vertices or e[1] in gadget_vertices:
            added_edges.add(e)
        else:
            internal.add(e)
    if not internal <= set(j_graph.edges):
        raise HomologyLabError("quotient induced new edges inside the glued cycle")
    added_weights = tuple(sorted((v, 1) for v in gadget_vertices))
    mm = m if m is not None else (state.m if state else (top + 1) // 2)
    return GadgetBlueprint(
        m=mm,
        state=state,
        support=tuple(range(1, mm + 1)),
        boundary_vertices=tuple(sorted(j0)),
        added_weights=added_weights,
        added_edges=frozenset(added_edges),
        center=CENTER,
        boundary_edges=frozenset(j_graph.edges),
    )


def target_cycle_graph(state: IntegerState) -> WeightedGraph:
    """Union of the basis cycles carrying nonzero amplitude."""
    weights: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    for z, _a in state.amps:
        cyc = basis_cycle(state.m, z)
        weights |= {v: 0 for v in cyc.graph.vertices}
        edges |= set(cyc.graph.edges)
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
    j_graph = target_cycle_graph(state)
    k_graph, relation, order = build_K(state)
    j_complex = clique_complex(j_graph, max_dim=2 * state.m)
    expected = target_chain(state, j_complex)
    return fill_cycle(
        j_graph,
        k_graph,
        relation,
        expected_chain=expected,
        state=state,
        m=state.m,
        order=order,
    )


def glue(base: WeightedGraph, bp: GadgetBlueprint) -> WeightedGraph:
    """Identify the blueprint's boundary cycle with vertices of the base.

    No edges are induced between base vertices; the boundary vertices must
    exist in the base with weight exponent 0 and the cycle's internal edges
    must already be present.
    """
    base_vs = set(base.vertices)
    for v in bp.boundary_vertices:
        if v not in base_vs:
            raise GraphFormatError(f"boundary vertex {v!r} missing from base graph")
        if base.exponent(v) != 0:
            raise GraphFormatError(f"boundary vertex {v!r} must have weight exponent 0")
    if not bp.boundary_edges <= base.edges:
        missing = sorted(bp.boundary_edges - base.edges)[:4]
        raise GraphFormatError(f"base graph is missing cycle edges {missing}")
    for v in bp.added_vertex_names:
        if v in base_vs:
            raise GraphFormatError(f"gadget vertex {v!r} collides with base graph")
    weights = base.weight_map() | dict(bp.added_weights)
    edges = set(base.edges) | set(bp.added_edges)
    return make_graph(weights, edges)


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


def basis_state_matrix(K: CliqueComplex, m: int) -> np.ndarray:
    """Columns: normalized basis-cycle chains over C^{2m-1}, one per bitstring."""
    k = 2 * m - 1
    n = K.dim_size(k)
    cols = []
    for i in range(2 ** m):
        z = format(i, f"0{m}b")
        chain = basis_chain(K, z)
        v = np.zeros(n)
        for s, c in chain.items():
            v[K.index[k][s]] = float(c)
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def orthogonal_cycle_span(K: CliqueComplex, state: IntegerState) -> np.ndarray:
    """Orthonormal basis of span{basis cycles} orthogonal to the state."""
    mat = basis_state_matrix(K, state.m)
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
