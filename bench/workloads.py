"""Workload definitions and the seeded instance generator.

Each workload is a fixed ladder of rungs.  A seed draws amplitude signs,
basis states and qubit supports; it never changes a rung's shape (qubit
count, term count, locality, amplitude count and magnitude), so every seed
gives the same simplex counts and the same answers up to the ground-space
dimension.  Instances are built untimed, during set-up; the timed call on a
rung starts from its Hamiltonian or graph and enumerates the complex itself,
so no cached operator survives from one call to the next.
"""

from __future__ import annotations

import random
from itertools import combinations
from dataclasses import dataclass
from typing import Any, Callable

import oracles

DEFAULT_SEED = 1
DECIDE_G = 1.0
DECIDE_C = 0.1
SPECSEQ_PAGES = range(5)
BITS = {1: ("0", "1"), 2: ("00", "01", "10", "11")}


@dataclass(frozen=True)
class Rung:
    name: str
    shape: str
    small: bool  # counted in small_rung_s
    instance: Any  # Hamiltonian, (graph, betti, table) or (graph, k, betti)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], list[Rung]]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    answer: Callable[[Any], str] | None = None  # tallied for inconclusive_frac


# -- seeded terms ------------------------------------------------------------


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _term(support: tuple[int, ...], amps: dict[str, int]):
    from homology_lab.gadgets import IntegerState

    return support, IntegerState.from_dict(len(support), amps)


def _hamiltonian(n: int, terms):
    from homology_lab.reduction import Hamiltonian

    return Hamiltonian(n, tuple(terms))


def _two_amplitudes(rng: random.Random, m: int) -> dict[str, int]:
    z1, z2 = rng.sample(BITS[m], 2)
    return {z1: _sign(rng), z2: _sign(rng)}


def two_projectors(rng: random.Random, n: int):
    """|0><0| + |1><1| on one drawn qubit: frustrated, so NO."""
    q = rng.randrange(n)
    bits = list(BITS[1])
    rng.shuffle(bits)
    return _hamiltonian(n, [_term((q,), {z: _sign(rng)}) for z in bits])


def bell_type(rng: random.Random):
    """One 2-local term with two amplitudes: YES with ground space 3."""
    return _hamiltonian(2, [_term((0, 1), _two_amplitudes(rng, 2))])


def four_basis_projectors(rng: random.Random):
    """All four 2-qubit basis projectors: no ground state, E far below eps."""
    bits = list(BITS[2])
    rng.shuffle(bits)
    return _hamiltonian(2, [_term((0, 1), {z: _sign(rng)}) for z in bits])


def one_plus_two_local(rng: random.Random):
    """A 1-local basis projector plus a 2-local two-amplitude term on 3 qubits."""
    a = rng.randrange(3)
    pair = tuple(sorted(rng.sample(range(3), 2)))
    return _hamiltonian(3, [
        _term((a,), {rng.choice(BITS[1]): _sign(rng)}),
        _term(pair, _two_amplitudes(rng, 2)),
    ])


def gadget_graph(amps: dict[str, int]):
    """The m-qubit graph with one gadget glued on, its Betti numbers, no table."""
    from homology_lab.gadgets import IntegerState, gadget, glue
    from homology_lab.graph import qubit_graph

    m = len(next(iter(amps)))
    g = glue(qubit_graph(m), gadget(IntegerState.from_dict(m, amps)))
    return g, {2 * m - 1: 2**m - 1}, None


# -- decide-ladder ------------------------------------------------------------


def decide_rungs(rng: random.Random) -> list[Rung]:
    # One 2q YES rung per basis pair: the cost of a single two-amplitude state
    # varies by half with its pair and signs, so a seed drawing the pair would
    # move small_rung_s by more than the timing noise.
    return [
        Rung("1q-no", "n=1, 2 terms, 1-local, 1 amp each", True, two_projectors(rng, 1)),
        *(
            Rung(f"2q-yes-{z1}-{z2}", "n=2, 1 term, 2-local, 2 amps; C^3=568", True,
                 _hamiltonian(2, [_term((0, 1), {z1: _sign(rng), z2: _sign(rng)})]))
            for z1, z2 in combinations(BITS[2], 2)
        ),
        Rung("2q-inconclusive", "n=2, 4 terms, 2-local, 1 amp each; C^3=832", True,
             four_basis_projectors(rng)),
        Rung("3q-no", "n=3, 2 terms, 1-local, 1 amp each; C^5=5248", False,
             two_projectors(rng, 3)),
        Rung("3q-yes", "n=3, 2 terms, 1-local 1 amp + 2-local 2 amps; C^5=8368", False,
             one_plus_two_local(rng)),
    ]


def decide_call(H):
    from homology_lab import reduction

    return reduction.decide(H, g=DECIDE_G, c=DECIDE_C)


def decide_check(H, decision) -> list[str]:
    return oracles.check_decision(H, decision, DECIDE_G, DECIDE_C)


# -- specseq-pages ------------------------------------------------------------


def specseq_rungs(rng: random.Random) -> list[Rung]:
    from homology_lab.fixtures import hexagon

    return [
        Rung("hexagon", "filled hexagon fixture; 13 vertices", True,
             (hexagon(), {}, oracles.HEXAGON_PAGES)),
        Rung("1q-two-amp", "1q gadget, 2 amps; 16 vertices", True,
             gadget_graph({"0": _sign(rng), "1": _sign(rng)})),
        Rung("2q-one-amp", "2q gadget, 1 amp; 23 vertices, C^3=256", True,
             gadget_graph({rng.choice(BITS[2]): _sign(rng)})),
        Rung("2q-two-amp", "2q gadget, 2 amps; 33 vertices, C^3=568", False,
             gadget_graph(_two_amplitudes(rng, 2))),
    ]


def specseq_call(instance):
    from homology_lab import complexes, specseq

    graph, _betti, _published = instance
    K = complexes.clique_complex(graph, max_dim=graph.n_vertices - 1)
    F = specseq.filtration(K)
    return K, [specseq.page_dims(F, j) for j in SPECSEQ_PAGES]


def specseq_check(instance, result) -> list[str]:
    _graph, betti, published = instance
    K, pages = result
    dims = {k: K.dim_size(k) for k in range(-1, K.max_dim + 1)}
    return oracles.check_pages([(p.j, p.dims) for p in pages], dims, betti, published)


# -- spectrum-sweep -----------------------------------------------------------


def _reduction_rung(name: str, shape: str, small: bool, H, k: int) -> Rung:
    from homology_lab.reduction import reduce_hamiltonian

    graph = reduce_hamiltonian(H).graph
    return Rung(name, shape, small, (graph, k, oracles.reduction_betti(H, k)))


def sweep_rungs(rng: random.Random) -> list[Rung]:
    return [
        _reduction_rung("2q-yes-k3", "2q one 2-amp term, k=3; 568 dims", True, bell_type(rng), 3),
        _reduction_rung("2q-four-k3", "2q four basis projectors, k=3; 832 dims", True,
                        four_basis_projectors(rng), 3),
        _reduction_rung("3q-no-k2", "3q two projectors on one qubit, k=2; 1801 dims", False,
                        two_projectors(rng, 3), 2),
    ]


def sweep_call(instance):
    from homology_lab import complexes, spectra

    graph, k, _betti = instance
    K = complexes.clique_complex(graph, max_dim=k + 1)
    return spectra.sweep(K, k, spectra.DEFAULT_GRID)


def sweep_check(instance, table) -> list[str]:
    _graph, _k, betti = instance
    return oracles.check_sweep(table.classes, betti)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decide-ladder",
            "decide on a 1q-3q ladder with YES, NO and INCONCLUSIVE rungs: "
            "exact integer rank dominates and 3q NO takes the shift-invert eigensolve",
            decide_rungs, decide_call, decide_check, lambda d: d.answer,
        ),
        Workload(
            "specseq-pages",
            "filtration and pages 0-4 on the hexagon and glued 1q/2q gadgets: "
            "Fraction elimination dominates, no integer rank or eigensolve",
            specseq_rungs, specseq_call, specseq_check,
        ),
        Workload(
            "spectrum-sweep",
            "sweep over DEFAULT_GRID on 2q and 3q reduction graphs: "
            "symbolic Laplacian assembly and dense eigvalsh, no exact rank",
            sweep_rungs, sweep_call, sweep_check,
        ),
    )
}


def rungs_for(workload: str, seed: int) -> list[Rung]:
    """The workload's rungs for one seed; smallest first, so rung 0 warms up."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
