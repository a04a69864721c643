"""Clique complexes with oriented simplex enumeration.

Simplices are stored once, as rows of integer vertex ids strictly ascending
in the graph's canonical vertex order, which is label order; the sign of any
other vertex ordering is the parity of the permutation relative to the
ascending representative.  The complex holds vertex ids only: a label
becomes an id in the graph (``WeightedGraph.ids``), enumeration reads the
graph's id adjacency matrix (``WeightedGraph.adjacency``), and ``find``
looks rows of ids up.  The empty simplex () is always present in dimension
-1 (reduced convention).
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError, DimensionError
from .graph import WeightedGraph, join_factors

DEFAULT_CAP = 2_000_000


class CliqueComplex:
    """Enumerated clique complex of a weighted graph, up to ``max_dim``.

    ``ids[k]`` holds the k-simplices as an int64 array of shape
    (dim C^k, k + 1): each row lists a simplex's vertex ids (positions in
    ``graph.vertices``, so id order is label order) ascending, and the rows
    are in lexicographic order.  ``levels[k]`` holds their weight levels
    (vertex exponent sums), recorded at enumeration.  Immutable after
    construction; each degree's facet indices, ascending (level, index)
    order, coboundary and the persistence pairs of its exact reduction (its
    rank is their count) are memoized.
    """

    def __init__(self, graph: WeightedGraph, max_dim: int, cap: int = DEFAULT_CAP):
        if max_dim < 0:
            raise DimensionError("max_dim must be >= 0")
        self.graph = graph
        self.max_dim = max_dim
        n = graph.n_vertices
        total = 1 + n
        if total > cap:
            raise CapExceededError(0, cap)
        exponents = np.array(graph.exponents, dtype=np.int64)
        self.ids = {-1: np.zeros((1, 0), dtype=np.int64), 0: np.arange(n).reshape(n, 1)}
        self.levels = {-1: np.zeros(1, dtype=np.int64), 0: exponents}
        # _keys[k]: each k-simplex's flat cell in level k-1's candidate matrix,
        # parent * n + last vertex, ascending; the facet lookup searches them
        self._keys = {0: np.arange(n)}
        # up[v, w]: v < w are adjacent, the upper triangle of the graph's
        # adjacency.  Level by level, cand[i, w] says that simplex i extends
        # by w: w lies after its last vertex and is adjacent to all of its
        # vertices.  Row-major nonzeros of cand are then the next level in
        # lexicographic order, and a coface adds its vertex's exponent to its
        # face's level.
        up = cand = np.triu(graph.adjacency)
        for k in range(1, max_dim + 1):
            total += int(np.count_nonzero(cand))
            if total > cap:
                raise CapExceededError(k, cap)
            keys = np.flatnonzero(cand)
            parent, last = np.divmod(keys, n)
            self.ids[k] = np.column_stack((self.ids[k - 1][parent], last))
            self.levels[k] = self.levels[k - 1][parent] + exponents[last]
            self._keys[k] = keys
            if not len(keys):  # no simplex here, so none above
                for j in range(k + 1, max_dim + 1):
                    self.ids[j] = np.zeros((0, j + 1), dtype=np.int64)
                    self.levels[j] = self._keys[j] = np.zeros(0, dtype=np.int64)
                break
            if k < max_dim:
                cand = cand[parent]
                cand &= up[last]
        self._facets: dict[int, np.ndarray] = {}
        self._pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # k -> d^k's pairs
        self._ascending: dict[int, np.ndarray] = {}  # k -> degree k in (level, index)
        self._coboundaries: dict = {}
        self._group = None  # spectra's loop-reflection group, an element per row
        self._blocks: dict = {}  # k -> spectra's symmetry blocks of L_k

    # -- queries -------------------------------------------------------------

    def dim_size(self, k: int) -> int:
        """dim C^k; 0 below -1, and above max_dim when complete."""
        if k < -1 or (k > self.max_dim and self.complete):
            return 0
        try:
            return len(self.ids[k])
        except KeyError:
            raise DimensionError(
                f"complex built to dimension {self.max_dim}, requested {k}"
            ) from None

    def facets(self, k: int) -> np.ndarray:
        """(dim C^k, k + 1) int64: entry [i, p] is the index of the facet of
        k-simplex i without its vertex p.  Memoized per degree.

        The facet without the last vertex is the simplex's parent; any other
        facet is the parent's facet without p, extended by the last vertex,
        and one exact search of the keys of degree k - 1 finds it.  A key is
        a flat index into a candidate matrix that numpy allocated, so it
        cannot overflow.
        """
        out = self._facets.get(k)
        if out is None:
            n = self.graph.n_vertices
            parent, last = np.divmod(self._keys[k], n)
            out = np.empty((len(parent), k + 1), dtype=np.int64)
            out[:, k] = parent
            if k:
                faces = self.facets(k - 1)[parent] * n + last[:, None]
                out[:, :k] = np.searchsorted(self._keys[k - 1], faces)
            self._facets[k] = out
        return out

    def find(self, ids: np.ndarray) -> np.ndarray:
        """Index of each row of ``ids``, an (m, k + 1) int array of vertex
        ids, among the k-simplices; -1 where a row is not one (or k is
        above max_dim).

        The ids of a simplex's first j + 1 vertices have the key (index of
        the first j) * n + id j, so each column costs one exact search of
        the keys of its degree.
        """
        m, size = ids.shape
        n = self.graph.n_vertices
        found = np.full(m, -1)
        if size > self.max_dim + 1:
            return found
        ok = ((ids >= 0) & (ids < n)).all(axis=1)
        at = np.zeros(m, dtype=np.int64)  # the empty simplex
        for j in range(size):
            keys = self._keys[j]
            if not len(keys):
                return found
            want = at * n + ids[:, j]
            at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            ok &= keys[at] == want
        found[ok] = at[ok]
        return found

    def counts(self) -> dict[int, int]:
        return {k: len(a) for k, a in sorted(self.ids.items())}

    @property
    def complete(self) -> bool:
        """True when no simplices can exist above max_dim."""
        return (
            len(self.ids[self.max_dim]) == 0
            or self.max_dim >= self.graph.n_vertices - 1
        )

    def top_dimension(self) -> int:
        """Largest dimension with simplices; requires a complete build."""
        if not self.complete:
            raise DimensionError(
                "complex truncated at max_dim; rebuild with a larger max_dim"
            )
        for k in range(self.max_dim, -2, -1):
            if len(self.ids[k]):
                return k
        return -1


def clique_complex(g: WeightedGraph, max_dim: int, cap: int = DEFAULT_CAP) -> CliqueComplex:
    return CliqueComplex(g, max_dim, cap)


def factor_complexes(g: WeightedGraph | tuple, k: int, cap: int = DEFAULT_CAP) -> list[CliqueComplex]:
    """The complexes of g's join factors (``join_factors``, or g itself if a
    tuple of them), each built to k + 1, or complete at its top n_f - 1 if
    lower, as degree k of their join needs; ``cap`` bounds each enumeration."""
    factors = g if isinstance(g, tuple) else join_factors(g)
    # clique_complex is looked up on the module, where bench/tracing.py wraps it
    return [clique_complex(f, max(min(k + 1, f.n_vertices - 1), 0), cap) for f in factors]

