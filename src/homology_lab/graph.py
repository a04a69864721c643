"""Vertex-weighted graphs and graph-level constructions.

A vertex weight is stored as an integer exponent ``e_v`` in
[0, MAX_EXPONENT]; the actual weight used by the operators is ``lam ** e_v``
for an evaluation parameter ``lam`` in (0, 1].  Every construction in the
pipeline uses exponents in {0, 1} but the representation is general.

All values here are immutable and hashable; operations are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .errors import GraphFormatError

Edge = tuple[str, str]

# a simplex's weight level is the sum of its vertices' exponents, stored as
# int64: with every exponent at most 2^31 - 1, any level of a graph with
# fewer than 2^32 vertices fits
MAX_EXPONENT = 2**31 - 1


def _edge(u: str, v: str) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with a weight exponent per vertex.

    ``vertices`` is sorted lexicographically and defines the canonical vertex
    order used for oriented simplices.  Edges are stored as sorted pairs.
    """

    vertices: tuple[str, ...]
    exponents: tuple[int, ...]
    edges: frozenset[Edge]

    def __post_init__(self):
        pos = {v: i for i, v in enumerate(self.vertices)}
        if len(pos) != len(self.vertices):
            raise GraphFormatError("duplicate vertex labels")
        if list(self.vertices) != sorted(self.vertices):
            raise GraphFormatError("vertices must be sorted (use make_graph)")
        if len(self.exponents) != len(self.vertices):
            raise GraphFormatError("one weight exponent per vertex required")
        for v, e in zip(self.vertices, self.exponents):
            if e < 0:
                raise GraphFormatError("negative weight exponent")
            if e > MAX_EXPONENT:
                raise GraphFormatError(
                    f"vertex {v!r} has weight exponent {e} above {MAX_EXPONENT}"
                )
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop at {u!r}")
            if u not in pos or v not in pos:
                raise GraphFormatError(f"edge ({u!r}, {v!r}) has undeclared endpoint")
            if v < u:
                raise GraphFormatError("edges must be stored as sorted pairs")
        object.__setattr__(self, "_pos", pos)
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(
            self, "_adj", {v: frozenset(s) for v, s in adj.items()}
        )

    # -- accessors ---------------------------------------------------------

    def exponent(self, v: str) -> int:
        return self.exponents[self._pos[v]]

    def neighbors(self, v: str) -> frozenset[str]:
        return self._adj[v]

    def weight_map(self) -> dict[str, int]:
        return dict(zip(self.vertices, self.exponents))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def make_graph(
    weights: Mapping[str, int] | Iterable[tuple[str, int]],
    edges: Iterable[tuple[str, str]] = (),
) -> WeightedGraph:
    """Build a graph from a vertex->exponent mapping and an edge list."""
    wmap = dict(weights)
    vs = tuple(sorted(wmap))
    exps = tuple(int(wmap[v]) for v in vs)
    es = frozenset(_edge(u, v) for u, v in edges)
    return WeightedGraph(vs, exps, es)


def unweighted(vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> WeightedGraph:
    return make_graph({v: 0 for v in vertices}, edges)


# -- JSON interface ---------------------------------------------------------

def load_json(text: str):
    """The document a JSON input holds; GraphFormatError "malformed JSON: ..."
    when there is none.  json's own errors and an integer literal beyond
    Python's int-conversion digit limit are ValueErrors; nesting beyond the
    recursion limit is a RecursionError."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphFormatError("malformed JSON: nested too deeply") from exc


def parse_graph(text: str) -> WeightedGraph:
    """Parse the graph JSON schema.

    Schema: ``{"vertices":[{"id":str,"w":int>=0}...],"edges":[[u,v]...]}``.
    Duplicate vertices or edges, unknown endpoints, self-loops, negative
    weights and weights above MAX_EXPONENT are rejected.  Extra top-level
    keys (e.g. metadata blocks) are ignored.
    """
    doc = load_json(text)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise GraphFormatError("expected an object with a 'vertices' key")
    vertices, edges = doc["vertices"], doc.get("edges", [])
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphFormatError("'vertices' and 'edges' must be lists")
    weights: dict[str, int] = {}
    for entry in vertices:
        if not isinstance(entry, dict) or "id" not in entry:
            raise GraphFormatError(f"bad vertex entry: {entry!r}")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise GraphFormatError(f"vertex id must be a string: {vid!r}")
        if vid in weights:
            raise GraphFormatError(f"duplicate vertex {vid!r}")
        w = entry.get("w", 0)
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise GraphFormatError(f"vertex {vid!r} has invalid weight exponent {w!r}")
        weights[vid] = w
    seen: set[Edge] = set()
    for pair in edges:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise GraphFormatError(f"bad edge entry: {pair!r}")
        u, v = pair
        if not isinstance(u, str) or not isinstance(v, str):
            raise GraphFormatError(f"edge endpoints must be strings: {pair!r}")
        if u not in weights or v not in weights:
            raise GraphFormatError(f"edge ({u!r}, {v!r}) has undeclared endpoint")
        if u == v:
            raise GraphFormatError(f"self-loop at {u!r}")
        e = _edge(u, v)
        if e in seen:
            raise GraphFormatError(f"duplicate edge {e!r}")
        seen.add(e)
    return make_graph(weights, seen)


def graph_to_json(g: WeightedGraph, metadata: dict | None = None) -> str:
    """Canonical serialization: vertices and edges sorted lexicographically,
    indented by 2."""
    doc: dict = {
        "vertices": [{"id": v, "w": g.exponent(v)} for v in g.vertices],
        "edges": [list(e) for e in sorted(g.edges)],
    }
    if metadata:
        doc.update(metadata)
    return json.dumps(doc, indent=2)


# -- constructions ----------------------------------------------------------

def relabel(g: WeightedGraph, mapping: Mapping[str, str]) -> WeightedGraph:
    """Rename vertices; mapping must be injective on g's vertex set."""
    new = {mapping.get(v, v): g.exponent(v) for v in g.vertices}
    if len(new) != g.n_vertices:
        raise GraphFormatError("relabeling is not injective")
    edges = {_edge(mapping.get(u, u), mapping.get(v, v)) for u, v in g.edges}
    return make_graph(new, edges)


def induced_subgraph(g: WeightedGraph, keep: Iterable[str]) -> WeightedGraph:
    keep_set = set(keep)
    missing = keep_set - set(g.vertices)
    if missing:
        raise GraphFormatError(f"unknown vertices {sorted(missing)}")
    edges = {e for e in g.edges if e[0] in keep_set and e[1] in keep_set}
    return make_graph({v: g.exponent(v) for v in keep_set}, edges)


def join(g: WeightedGraph, h: WeightedGraph) -> WeightedGraph:
    """Disjoint union plus all cross edges; labels must not collide."""
    overlap = set(g.vertices) & set(h.vertices)
    if overlap:
        raise GraphFormatError(f"label collision on join: {sorted(overlap)}")
    weights = g.weight_map() | h.weight_map()
    edges = set(g.edges) | set(h.edges)
    edges.update(_edge(u, v) for u in g.vertices for v in h.vertices)
    return make_graph(weights, edges)


def join_factors(g: WeightedGraph) -> tuple[WeightedGraph, ...]:
    """The factors of g as a join: the subgraphs induced on the connected
    components of its complement, in the order of their first vertices;
    ``(g,)`` when g is not a join.  The complement is walked, not built:
    u's complement neighbours are the vertices not adjacent to it."""
    unseen = set(g.vertices)
    parts = []
    for v in g.vertices:
        if v not in unseen:
            continue
        unseen.remove(v)
        part, stack = [v], [v]
        while stack:
            found = unseen - g.neighbors(stack.pop())
            unseen -= found
            part += found
            stack += found
        parts.append(part)
    if len(parts) <= 1:
        return (g,)
    return tuple(induced_subgraph(g, part) for part in parts)


def qubit_vertex(q: int, v: str) -> str:
    """``q{q}.{v}``: vertex v of copy q (from 1) of ``join_all`` and ``qubit_graph``."""
    return f"q{q}.{v}"


def qubit_of(label: str) -> tuple[int, str] | None:
    """(q, v) for the label ``qubit_vertex(q, v)``; None for any other label."""
    head, dot, v = label.partition(".")
    return (int(head[1:]), v) if dot and head[:1] == "q" and head[1:].isdecimal() else None


def join_all(graphs: Sequence[WeightedGraph]) -> WeightedGraph:
    """n-fold join, copy i's vertices named ``qubit_vertex(i, v)``."""
    if not graphs:
        raise GraphFormatError("join_all of zero graphs")
    copies = (relabel(g, {v: qubit_vertex(i, v) for v in g.vertices})
              for i, g in enumerate(graphs, start=1))
    return reduce(join, copies)


def two_points() -> WeightedGraph:
    """Two isolated weight-1 (exponent 0) vertices."""
    return unweighted(["0", "1"])


def octahedron(n: int) -> WeightedGraph:
    """n-fold join of the 2-point graph: 2n vertices, a triangulation of S^{n-1}."""
    if n < 1:
        raise GraphFormatError("octahedron requires n >= 1")
    return join_all([two_points()] * n)


# the bowtie's two loops in traversal order, for bit 0 and bit 1
BOWTIE_LOOPS = (("x", "a3", "a2", "a4"), ("x", "b3", "b2", "b4"))


def bowtie() -> WeightedGraph:
    """Two square loops sharing the vertex x; the single-qubit graph."""
    edges = []
    for loop in BOWTIE_LOOPS:
        for i in range(4):
            edges.append((loop[i], loop[(i + 1) % 4]))
    vs = {v for loop in BOWTIE_LOOPS for v in loop}
    return unweighted(vs, edges)


def qubit_graph(n: int) -> WeightedGraph:
    """n-fold join of the bowtie, one namespaced copy per qubit."""
    if n < 1:
        raise GraphFormatError("qubit_graph requires n >= 1")
    return join_all([bowtie()] * n)


def layer_vertex(v: str, layer: int) -> str:
    return f"{v}:{layer}"


def thicken(g: WeightedGraph, order: Sequence[str] | None = None) -> WeightedGraph:
    """Double the vertex set into two layers triangulating (clique complex) x I.

    Edge families: both layer copies of each edge, a vertical edge per vertex,
    and the diagonal (u,0)-(v,1) for each edge with u before v in ``order``.
    Weights are copied onto both layers; callers reweight layer 1 if needed.
    """
    if order is None:
        order = g.vertices
    if sorted(order) != list(g.vertices):
        raise GraphFormatError("order must be a permutation of the vertex set")
    rank = {v: i for i, v in enumerate(order)}
    weights = {}
    for v in g.vertices:
        weights[layer_vertex(v, 0)] = g.exponent(v)
        weights[layer_vertex(v, 1)] = g.exponent(v)
    edges = []
    for u, v in g.edges:
        edges.append((layer_vertex(u, 0), layer_vertex(v, 0)))
        edges.append((layer_vertex(u, 1), layer_vertex(v, 1)))
        lo, hi = (u, v) if rank[u] < rank[v] else (v, u)
        edges.append((layer_vertex(lo, 0), layer_vertex(hi, 1)))
    for v in g.vertices:
        edges.append((layer_vertex(v, 0), layer_vertex(v, 1)))
    return make_graph(weights, edges)
