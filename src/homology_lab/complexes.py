"""Clique complexes with oriented simplex enumeration.

Simplices are stored once, as tuples of labels strictly ascending in the
graph's canonical vertex order, which is label order; the sign of any other
vertex ordering is the parity of the permutation relative to the ascending
representative.  The empty simplex () is always present in dimension -1
(reduced convention).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import CapExceededError, DimensionError
from .graph import WeightedGraph

Simplex = tuple[str, ...]
# The library's own chains carry int coefficients; exact witnesses are Fractions.
Chain = dict[Simplex, int | Fraction]

DEFAULT_CAP = 2_000_000


class CliqueComplex:
    """Enumerated clique complex of a weighted graph, up to ``max_dim``.

    ``levels[k]`` holds the weight levels (vertex exponent sums) of
    ``simplices(k)``, recorded at enumeration.  Immutable after construction;
    the pivots of each coboundary's exact reduction (its rank is their count)
    and the coboundaries are memoized on the instance, keyed by degree.
    """

    def __init__(self, graph: WeightedGraph, max_dim: int, cap: int = DEFAULT_CAP):
        if max_dim < 0:
            raise DimensionError("max_dim must be >= 0")
        self.graph = graph
        self.max_dim = max_dim
        by_dim: dict[int, list[Simplex]] = {-1: [()], 0: [(v,) for v in graph.vertices]}
        levels: dict[int, list[int]] = {-1: [0], 0: list(graph.exponents)}
        total = 1 + len(graph.vertices)
        if total > cap:
            raise CapExceededError(0, cap)
        # Ordered DFS extension: a simplex's candidates, kept at its index, are
        # the common neighbors after its last vertex in label order, the
        # canonical order (a WeightedGraph keeps its vertices sorted), which
        # keeps output lexicographic.  A coface adds its vertex's exponent.
        weight = graph.weight_map()
        cands = [tuple(sorted(u for u in graph.neighbors(v) if u > v)) for v in graph.vertices]
        for k in range(1, max_dim + 1):
            simplices, level, new_cands = [], [], []
            for sigma, l, after in zip(by_dim[k - 1], levels[k - 1], cands):
                total += len(after)
                if total > cap:
                    raise CapExceededError(k, cap)
                for i, w in enumerate(after):
                    simplices.append(sigma + (w,))
                    level.append(l + weight[w])
                    nb = graph.neighbors(w)
                    new_cands.append(tuple(filter(nb.__contains__, after[i + 1 :])))
            by_dim[k] = simplices
            levels[k] = level
            cands = new_cands
        self.by_dim = {k: tuple(v) for k, v in by_dim.items()}
        self.levels = {k: tuple(v) for k, v in levels.items()}
        self.index: dict[int, dict[Simplex, int]] = {
            k: {s: i for i, s in enumerate(v)} for k, v in self.by_dim.items()
        }
        self._pivots: dict[int, set[int]] = {}  # degree -> pivots of d^k's reduction
        self._coboundaries: dict = {}

    # -- queries -------------------------------------------------------------

    def simplices(self, k: int) -> tuple[Simplex, ...]:
        """The k-simplices; none below -1, and none above max_dim when complete."""
        if k < -1 or (k > self.max_dim and self.complete):
            return ()
        try:
            return self.by_dim[k]
        except KeyError:
            raise DimensionError(
                f"complex built to dimension {self.max_dim}, requested {k}"
            ) from None

    def dim_size(self, k: int) -> int:
        return len(self.simplices(k))

    def has(self, sigma: Simplex) -> bool:
        k = len(sigma) - 1
        return k in self.index and sigma in self.index[k]

    def up_vertices(self, sigma: Simplex) -> tuple[str, ...]:
        """Vertices v with sigma + {v} a simplex (all cofacet extensions)."""
        if not sigma:
            return self.graph.vertices
        common = self.graph.neighbors(sigma[0])
        for v in sigma[1:]:
            common = common & self.graph.neighbors(v)
        return tuple(sorted(common))

    def counts(self) -> dict[int, int]:
        return {k: len(self.by_dim[k]) for k in sorted(self.by_dim)}

    @property
    def complete(self) -> bool:
        """True when no simplices can exist above max_dim."""
        return (
            len(self.by_dim[self.max_dim]) == 0
            or self.max_dim >= self.graph.n_vertices - 1
        )

    def top_dimension(self) -> int:
        """Largest dimension with simplices; requires a complete build."""
        if not self.complete:
            raise DimensionError(
                "complex truncated at max_dim; rebuild with a larger max_dim"
            )
        for k in range(self.max_dim, -2, -1):
            if self.by_dim[k]:
                return k
        return -1


def clique_complex(g: WeightedGraph, max_dim: int, cap: int = DEFAULT_CAP) -> CliqueComplex:
    return CliqueComplex(g, max_dim, cap)


# -- oriented-simplex utilities ----------------------------------------------

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


def merge_sign(sigma: Simplex, tau: Simplex) -> tuple[Simplex, int]:
    """Merge two ascending disjoint simplices; sign is the shuffle parity."""
    out: list[str] = []
    i = j = 0
    inversions = 0
    while i < len(sigma) and j < len(tau):
        if sigma[i] < tau[j]:
            out.append(sigma[i])
            i += 1
        elif sigma[i] > tau[j]:
            out.append(tau[j])
            j += 1
            inversions += len(sigma) - i
        else:
            return tuple(out), 0
    out.extend(sigma[i:])
    out.extend(tau[j:])
    return tuple(out), (-1) ** inversions


def kunneth_embed(
    psi: Chain,
    phi: Chain,
    *,
    into: CliqueComplex,
) -> Chain:
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
            merged, sign = merge_sign(sigma, tau)
            if sign == 0:
                raise DimensionError(
                    f"factors share vertices: {sigma!r} and {tau!r}"
                )
            if not into.has(merged):
                raise DimensionError(f"{merged!r} is not a simplex of the join")
            out[merged] = out.get(merged, 0) + sign * c * d
    return {s: v for s, v in out.items() if v != 0}


def chain_dimension(chain: Chain) -> int:
    ks = {len(s) - 1 for s in chain}
    if len(ks) > 1:
        raise DimensionError(f"mixed-dimension chain: {sorted(ks)}")
    return ks.pop() if ks else -2
