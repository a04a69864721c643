#!/usr/bin/env python3
"""End-to-end decision demo on small one-qubit Hamiltonians.

Builds each reduction graph, reports the schedule, and decides
satisfiability: exact homology for YES, numeric smallest eigenvalue
against the scheduled threshold for NO.
"""

from homology_lab.gadgets import IntegerState
from homology_lab.reduction import Hamiltonian, decide, reduce_hamiltonian


def term(support, amps):
    return tuple(support), IntegerState.from_dict(len(support), amps)


CASES = [
    ("|0><0|", Hamiltonian(1, (term([0], {"0": 1}),))),
    ("|0><0| + |1><1|", Hamiltonian(1, (term([0], {"0": 1}), term([0], {"1": 1})))),
    ("|-><-|", Hamiltonian(1, (term([0], {"0": 1, "1": -1}),))),
    ("|0><0| tensor id", Hamiltonian(2, (term([0], {"0": 1}),))),
]


def main() -> None:
    for name, H in CASES:
        res = reduce_hamiltonian(H)
        dec = decide(H, g=1.0, c=0.1)
        print(f"{name}:")
        print(
            f"  graph: {res.graph.n_vertices} vertices, k={res.k}; "
            f"schedule lambda={dec.schedule.lam:g}, E={dec.schedule.threshold:g}"
        )
        line = f"  answer: {dec.answer} (betti={dec.betti}"
        if dec.lam_min is not None:
            line += f", lambda_min={dec.lam_min:.3e}"
        print(line + ")")
        if dec.harmonic_overlaps:
            for z, row in sorted(dec.harmonic_overlaps.items()):
                print(f"  Gram row <{z}|P|w> of the harmonic projector: {row}")
        print()


if __name__ == "__main__":
    main()
