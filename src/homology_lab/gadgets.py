"""Graph gadgets that fill in the cycle of an integer state.

The pipeline is generic: build a sphere triangulation K with a vertex
relation R onto the target cycle, thicken K into a two-layer shell, cone the
inner layer off with a central vertex, quotient the outer layer through R,
and glue the result onto the qubit graph.  A gadget is that quotient graph
alone: the cycle's vertices, named as ``qubit_graph`` names them, keep
exponent 0 and the filling carries exponent 1, so the exponents tell the
parts apart wherever a gadget is glued, padded or placed.  Native
constructions cover every basis state (K is the cycle itself) and the
superpositions on 1 and 2 qubits (rings of cut-open basis cycles glued on
shared dummy vertices); superpositions on more qubits pass through the same
pipeline once a (K, R) pair is supplied externally.

Every construction is verified on the spot: the quotient must be
2-determined, the quotient image of Cl(K) must equal the target cycle's
simplex set, and the pushed fundamental cycle of K must reproduce the
amplitude sign pattern exactly (up to one global sign).  A failure raises
instead of silently flipping orientations.  Chains here are integer vectors
over one degree of a complex, pushed and compared on vertex ids; a basis
cycle's labels are read once, to locate its loop vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Sequence

import numpy as np

from .complexes import CliqueComplex, clique_complex
from .errors import (
    DimensionError,
    GraphFormatError,
    HomologyLabError,
    OrientationAlignmentError,
    UnsupportedStateError,
)
from .graph import BOWTIE_LOOPS, WeightedGraph, layer_vertex, make_graph, qubit_vertex, thicken
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
    return tuple(qubit_vertex(q, v) for v in BOWTIE_LOOPS[int(bit)])


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


def _cycle_vector(K: CliqueComplex, qubits: Sequence[int], z: str) -> np.ndarray:
    """The basis cycle |z> on the copies ``q{qubits[i]}.``, bit z[i] each, as
    an int64 vector over degree 2m - 1 of K: the join of the copies' loops,
    each traversed in order.

    A simplex takes one loop edge per copy.  A copy's vertices form one
    contiguous block in label order, which is id order, and each edge holds
    two of them, so the join adds no shuffle sign: a simplex's sign is the
    product of its edges' traversal signs, every entry is +-1 and the norm
    is exactly 2^m.
    """
    m = len(qubits)
    # a vertex missing from K is located at -1, and no row holding it is found
    loops = K.locate([(v,) for q, bit in zip(qubits, z) for v in _loop_labels(q, bit)])
    loops = loops.reshape(m, 4)
    ahead = np.roll(loops, -1, axis=1)
    edges = np.stack([np.minimum(loops, ahead), np.maximum(loops, ahead)], axis=2)
    signs = np.where(loops < ahead, 1, -1)
    pick = np.indices((4,) * m).reshape(m, -1).T  # each simplex's edge of each copy
    copy = np.arange(m)
    at = K.find(np.sort(edges[copy, pick].reshape(len(pick), 2 * m), axis=1))
    if (at < 0).any():
        raise DimensionError(f"|{z}> on copies {list(qubits)} leaves the complex")
    out = np.zeros(K.dim_size(2 * m - 1), dtype=np.int64)
    out[at] = signs[copy, pick].prod(axis=1)
    return out


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
    # the quotient's edges are the images of K's uncollapsed edges and it is
    # built at least as deep as K, so every image is one of its simplices;
    # 2-determined means that every simplex of it is an image
    hit = {k: np.zeros(len(a), bool) for k, a in q_complex.ids.items() if k >= 0 and len(a)}
    for size in set(sizes.tolist()):
        pick = sizes == size
        hit[size - 1][q_complex.find(mapped[pick][new[pick]].reshape(-1, size))] = True
    if not all(h.all() for h in hit.values()):
        vs = q_complex.graph.vertices
        unhit = [row for k, h in hit.items() for row in q_complex.ids[k][~h].tolist()]
        extra = sorted(tuple(vs[i] for i in row) for row in unhit)[:4]
        raise HomologyLabError(f"quotient is not 2-determined: extra={extra}")
    return q_complex


def fundamental_cycle(K: CliqueComplex) -> dict[int, int]:
    """Generator of the top-dimensional cycle space of a sphere triangulation,
    as {index of a top simplex: coefficient}.

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
    return kernel[0]


def _pushed_cycle(K: CliqueComplex, J: CliqueComplex, relation: Relation) -> np.ndarray:
    """K's fundamental cycle pushed through the relation's vertex-id map into
    the same degree of J, its quotient (``apply_f``), as an int64 vector:
    each image row takes the sign of its sort, and a collapsed row drops out.
    """
    top = K.top_dimension()
    cycle = fundamental_cycle(K)
    at = {v: i for i, v in enumerate(J.graph.vertices)}
    to_j = np.array([at[relation[v]] for v in K.graph.vertices], dtype=np.int64)
    rows = to_j[K.ids[top][list(cycle)]]
    before, after = np.triu_indices(top + 1, 1)
    signs = 1 - 2 * ((rows[:, before] > rows[:, after]).sum(axis=1) % 2)
    rows.sort(axis=1)
    keep = (rows[:, 1:] != rows[:, :-1]).all(axis=1)
    pushed = np.zeros(J.dim_size(top), dtype=np.int64)
    coefs = signs * np.array(list(cycle.values()), dtype=np.int64)
    np.add.at(pushed, J.find(rows[keep]), coefs[keep])
    return pushed


# -- native K constructions ----------------------------------------------------


def _copy_list(state: IntegerState) -> list[tuple[str, int, int]]:
    """(bitstring, sign, copy index) per unit of amplitude, lexicographic."""
    out = []
    for z, a in sorted(state.amps):
        for c in range(abs(a)):
            out.append((z, 1 if a > 0 else -1, c))
    return out


def _mid(q: int, letter: str, num: int, copy_idx: int) -> str:
    base = f"{letter}{num}"
    return qubit_vertex(q, base if copy_idx == 0 else f"{base}_{copy_idx}")


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
    x = qubit_vertex(1, "x")
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
            relation[v] = _mid(1, letter, base_num, 0)
        lo, hi = endpoints[j], endpoints[(j + 1) % n]
        first, last = (c3, c4) if sign > 0 else (c4, c3)
        edges += [(lo, first), (first, c2), (c2, last), (last, hi)]
    graph = make_graph(weights, edges)
    order = ring_thickening_order(graph, sorted(endpoints[1:], key=_dummy_key), [x])
    return graph, relation, order


def _build_ring_2q(state: IntegerState, copies):
    n = len(copies)
    x1, x2 = qubit_vertex(1, "x"), qubit_vertex(2, "x")
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
                relation[v] = _mid(q, letters[q - 1], i, 0)
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
) -> WeightedGraph:
    """Thicken K, cone it off, quotient the outer layer onto the cycle.

    The gadget is the quotient graph: the cycle's vertices keep exponent 0
    and the filling (the inner layer and the center) carries exponent 1.
    ``relation`` must be functional on K's vertices and surjective onto the
    cycle's vertex set.  When ``state`` is given, the cycle is its target
    cycle and the pushed fundamental cycle of K must equal the sum of its
    amplitudes times their basis cycles exactly, up to one global sign.
    ``order`` steers the thickening's diagonals (``thicken``'s default is
    label order).
    """
    if {relation.get(v) for v in k_graph.vertices} != set(j_graph.vertices):
        raise GraphFormatError("relation must map K's vertices onto the cycle's vertices")
    K = clique_complex(k_graph, max_dim=k_graph.n_vertices - 1)
    top = K.top_dimension()
    # apply_f checks that f(Cl(K)) is the clique complex J of its image
    # graph, so equal edges make J exactly the cycle's simplex set
    J = apply_f(K, relation)
    if J.graph.edges != j_graph.edges:
        raise HomologyLabError("f(K) does not reproduce the target cycle's edges")
    if state is not None:
        expected = sum(a * _cycle_vector(J, range(1, state.m + 1), z) for z, a in state.amps)
        pushed = _pushed_cycle(K, J, relation)
        if not (np.array_equal(pushed, expected) or np.array_equal(pushed, -expected)):
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
    return apply_f(coned, mu).graph


def target_cycle_graph(state: IntegerState) -> WeightedGraph:
    """Union of the basis cycles carrying nonzero amplitude."""
    weights: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    for z, _a in state.amps:
        cyc = basis_cycle(state.m, z)
        weights |= dict.fromkeys(cyc.vertices, 0)
        edges |= cyc.edges
    return make_graph(weights, edges)


def gadget(state: IntegerState) -> WeightedGraph:
    """The gadget graph implementing the rank-1 projector onto an integer
    state: its target cycle (exponent 0) and the filling (exponent 1)."""
    k_graph, relation, order = build_K(state)
    return fill_cycle(target_cycle_graph(state), k_graph, relation, state, order)


def glue(base: WeightedGraph, g: WeightedGraph) -> WeightedGraph:
    """Union of the base graph and a gadget graph.

    The gadget's exponent-0 vertices must exist in the base with weight
    exponent 0, the edges among them (the cycle's) must already be present
    and its added vertices, those of nonzero exponent, must be new; no edges
    are induced between base vertices.
    """
    base_vs = set(base.vertices)
    for v, e in zip(g.vertices, g.exponents):
        if e:
            if v in base_vs:
                raise GraphFormatError(f"gadget vertex {v!r} collides with base graph")
        elif v not in base_vs:
            raise GraphFormatError(f"base vertex {v!r} missing from base graph")
        elif base.exponent(v) != 0:
            raise GraphFormatError(f"base vertex {v!r} must have weight exponent 0")
    missing = {(u, v) for u, v in g.edges if not (g.exponent(u) or g.exponent(v))} - base.edges
    if missing:
        raise GraphFormatError(f"base graph is missing cycle edges {sorted(missing)[:4]}")
    return make_graph(base.weight_map() | g.weight_map(), base.edges | g.edges)


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
    """Columns: normalized basis cycles over C^{2m-1} on the m qubit copies
    ``q{i}.`` for i in ``qubits``, one per bitstring over them in that
    order; each cycle vector has norm 2^m."""
    m = len(qubits)
    cycles = [_cycle_vector(K, qubits, format(i, f"0{m}b")) for i in range(2 ** m)]
    return np.stack(cycles, axis=1) / 2 ** m

