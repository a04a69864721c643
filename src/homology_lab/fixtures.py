"""Named fixture graphs, all generated by the library itself.

Everything here is reproducible from the constructions (no checked-in data):
the bowtie and its joins, generalized octahedra, the filled hexagon built by
running the gadget pipeline on a 6-cycle with the identity relation, and the
glued single-gadget graphs.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UsageError
from .gadgets import IntegerState, fill_cycle, gadget, glue
from .graph import WeightedGraph, bowtie, graph_to_json, make_graph, octahedron, qubit_graph
from .reduction import Hamiltonian, reduce_hamiltonian


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    vs = [f"h{i}" for i in range(1, n + 1)]
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return make_graph({v: 0 for v in vs}, edges)


@lru_cache(maxsize=None)
def hexagon() -> WeightedGraph:
    """Filled hexagon: thicken a 6-cycle, cone it off, glue back (identity)."""
    ring = cycle_graph(6)
    return glue(ring, fill_cycle(ring, ring, {v: v for v in ring.vertices}))


@lru_cache(maxsize=None)
def gadget_graph(state: IntegerState) -> WeightedGraph:
    return glue(qubit_graph(state.m), gadget(state))


def named_fixtures() -> dict[str, WeightedGraph]:
    """All fixture graphs exposed by the CLI ``fixtures`` subcommand."""
    out = {
        "bowtie": bowtie(),
        "hexagon": hexagon(),
        "qubit-1": qubit_graph(1),
        "qubit-2": qubit_graph(2),
    }
    for n in range(1, 5):
        out[f"octahedron-{n}"] = octahedron(n)
    singles = {
        "gadget-0": {"0": 1},
        "gadget-1": {"1": 1},
        "gadget-0-minus-1": {"0": 1, "1": -1},
        "gadget-0-plus-2x1": {"0": 1, "1": 2},
    }
    for name, amps in singles.items():
        out[name] = gadget_graph(IntegerState.from_dict(1, amps))
    two_qubit = {
        "gadget-00": {"00": 1},
        "gadget-00-minus-11": {"00": 1, "11": -1},
    }
    for name, amps in two_qubit.items():
        out[name] = gadget_graph(IntegerState.from_dict(2, amps))
    h = Hamiltonian(
        1,
        (
            ((0,), IntegerState.from_dict(1, {"0": 1})),
            ((0,), IntegerState.from_dict(1, {"1": 1})),
        ),
    )
    out["two-gadgets-1q"] = reduce_hamiltonian(h).graph
    return out


def write_fixtures(directory: str, names: list[str] | None = None) -> list[str]:
    import os

    fixtures = named_fixtures()
    if names:
        missing = [n for n in names if n not in fixtures]
        if missing:
            known = ", ".join(sorted(fixtures))
            raise UsageError(f"unknown fixtures: {missing}; known: {known}")
        fixtures = {n: fixtures[n] for n in names}
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, g in sorted(fixtures.items()):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(graph_to_json(g))
            fh.write("\n")
        written.append(path)
    return written
