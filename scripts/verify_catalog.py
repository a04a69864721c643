#!/usr/bin/env python3
"""Run the gadget verification suite over the projector catalog.

States on one or two qubits are built and checked (sphere triangulation,
orientation alignment, 2-determined quotient, glued Betti pattern, Witten
index).  Larger states are listed and skipped: basis states for run time
(``homology-lab verify-gadget Hclock4`` checks one in about ten seconds),
superpositions because their gadgets are an extension point.
"""

import time

from homology_lab.complexes import clique_complex
from homology_lab.gadgets import catalog, gadget, glue
from homology_lab.graph import qubit_graph
from homology_lab.homology import betti_table, euler_characteristic


def main() -> None:
    for name, state in catalog().items():
        if state.m > 2:
            why = "run time" if len(state.amps) == 1 else "extension point"
            print(f"{name:12} {state.label():>28}: m={state.m} (skipped: {why})")
            continue
        t0 = time.perf_counter()
        bp = gadget(state)
        g = glue(qubit_graph(state.m), bp)
        K = clique_complex(g, 2 * state.m + 4)
        table = betti_table(K).as_dict()
        want = 2 ** state.m - 1
        ok = all(v == (want if k == 2 * state.m - 1 else 0) for k, v in table.items())
        witten = abs(euler_characteristic(K).reduced)
        status = "PASS" if ok and witten == want else "FAIL"
        print(
            f"{name:12} {state.label():>28}: betti pattern {status}, "
            f"witten index {witten} (expected {want}), {time.perf_counter() - t0:.2f}s"
        )


if __name__ == "__main__":
    main()
