#!/usr/bin/env python3
"""Sweep the weighted Laplacian of a single-gadget graph over a lambda grid.

Prints the branch table (eigenvalue trajectories, fitted log-log slopes,
decay classes) and a summary of exponent classes.  The state is given as
inline JSON, e.g. '{"0": 1, "1": -1}'.  A malformed state or grid is a usage
error; a library error (a grid sweep rejects, branches it cannot match) is
printed to stderr with exit code 2, as ``homology-lab`` does.
"""

import argparse
import collections
import json
import sys

from homology_lab.complexes import clique_complex
from homology_lab.errors import GraphFormatError, HomologyLabError
from homology_lab.fixtures import gadget_graph
from homology_lab.gadgets import IntegerState
from homology_lab.spectra import DEFAULT_GRID, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("state", nargs="?", default='{"0": 1}', help="amplitudes as JSON")
    parser.add_argument("--k", type=int, default=None, help="chain dimension (default 2m-1)")
    parser.add_argument("--grid", default=None, help="comma-separated decreasing lambdas")
    args = parser.parse_args()

    try:
        amps = json.loads(args.state)
        if not isinstance(amps, dict) or not amps:
            raise GraphFormatError(f"state must be a nonempty JSON object, got {amps!r}")
        state = IntegerState.from_dict(len(next(iter(amps))), amps)
    except (json.JSONDecodeError, RecursionError, GraphFormatError) as exc:
        parser.error(f"bad state {args.state!r}: {exc}")
    k = args.k if args.k is not None else 2 * state.m - 1
    try:
        grid = tuple(float(x) for x in args.grid.split(",")) if args.grid else DEFAULT_GRID
    except ValueError:
        parser.error(f"bad grid {args.grid!r}: expected comma-separated numbers")
    g = gadget_graph(state)
    try:
        table = sweep(clique_complex(g, k + 1), k, grid)
    except HomologyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(f"state {state.label()}: glued graph has {g.n_vertices} vertices")
    for line in table.csv_lines():
        print(line)
    print()
    counts = collections.Counter(table.classes)
    for cls in sorted(counts, key=lambda c: (c != "kernel", c)):
        print(f"class {cls}: {counts[cls]} branches")


if __name__ == "__main__":
    main()
