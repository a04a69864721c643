"""Command-line interface.

Commands: fixtures, betti, spectrum, specseq, reduce, decide, verify-gadget.
Exit codes: 0 success (including NO answers), 1 usage error, 2 computation
error (out of memory, a size past what the machine can index and an integer
past Python's int-to-str digit limit included).  Numeric text output is
rounded to 10 significant digits so output bytes are deterministic for fixed
inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures as fixtures_mod
from .complexes import DEFAULT_CAP, clique_complex, factor_complexes
from .errors import GraphFormatError, HomologyLabError, UsageError
from .gadgets import IntegerState, catalog, gadget, glue
from .graph import parse_graph, qubit_graph
from .homology import betti_table, euler_characteristic, join_betti
from .reduction import decide, parse_hamiltonian, reduce_hamiltonian, schedule
from .specseq import filtration, forman_compare, page_dims, stabilized_dims
from .spectra import DEFAULT_GRID, spectrum, sweep


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _read_text(path: str) -> str:
    """The file at ``path``, or stdin for "-", decoded as UTF-8.  Both sources
    fail alike: unreadable is a usage error, and since JSON text is UTF-8,
    other bytes are malformed JSON."""
    if path == "-" and sys.stdin is None:
        raise UsageError("cannot read -: stdin is closed")
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"malformed JSON: not UTF-8 text ({exc})") from exc


def _load_graph(path: str):
    return parse_graph(_read_text(path))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _named(name: str, n: int) -> str:
    """``name=n``; HomologyLabError when n has more digits than Python's
    int-to-str limit converts."""
    try:
        return f"{name}={n}"
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise HomologyLabError(f"{name} has more than {limit} digits, too many to print") from exc


def _parse_grid(text: str) -> tuple[float, ...]:
    if text == "default":
        return DEFAULT_GRID
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}") from exc


def build_parser() -> _Parser:
    p = _Parser(prog="homology-lab")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fixtures", help="write fixture graph JSON files")
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--which", nargs="*", help="subset of fixture names")

    b = sub.add_parser("betti", help="exact Betti numbers of a graph's clique complex")
    b.add_argument("graph", help="graph JSON file or - for stdin")
    b.add_argument("--k", default="all", help="dimension or 'all'")
    b.add_argument("--cap", type=int, default=DEFAULT_CAP)
    b.add_argument("--unreduced", action="store_true")
    b.add_argument("--format", choices=["text", "csv", "json"], default="text")

    s = sub.add_parser("spectrum", help="Laplacian spectrum or lambda-sweep branch table")
    s.add_argument("graph")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--lambda", dest="lam", type=float, default=None)
    s.add_argument("--grid", default=None, help="comma-separated decreasing lambdas")
    s.add_argument("--cap", type=int, default=DEFAULT_CAP)
    s.add_argument("--format", choices=["text", "csv"], default="text")

    q = sub.add_parser("specseq", help="spectral-sequence page tables")
    q.add_argument("graph")
    q.add_argument("--k", type=int, default=None, help="track one dimension")
    q.add_argument("--j-max", type=int, default=4)
    q.add_argument("--forman", action="store_true", help="compare with sweep exponents")
    q.add_argument("--grid", default=None)
    q.add_argument("--cap", type=int, default=DEFAULT_CAP)
    q.add_argument("--format", choices=["text", "csv"], default="text")

    r = sub.add_parser("reduce", help="compile a Hamiltonian to a weighted graph")
    r.add_argument("hamiltonian")
    r.add_argument("--c", type=float, default=0.1)
    r.add_argument("--g", type=float, default=1.0)
    r.add_argument("--out", default=None, help="write graph JSON here (default stdout)")

    d = sub.add_parser("decide", help="YES/NO/INCONCLUSIVE for a Hamiltonian")
    d.add_argument("hamiltonian")
    d.add_argument("--g", type=float, default=1.0)
    d.add_argument("--c", type=float, default=0.1)

    v = sub.add_parser("verify-gadget", help="gadget correctness checks for one state")
    v.add_argument("state", help="catalog name or inline JSON {bits: amp}")
    return p


def _cap(cap: int) -> int:
    if cap < 1:  # the cap counts the empty simplex, so no graph fits under it
        raise UsageError(f"--cap must be >= 1, got {cap}")
    return cap


def _complex_for(graph, k_hint: int | None, cap: int):
    # one degree above the largest read, so its coboundary closes; none
    # below 0 for a degree below -1, nor above n, where no simplex is
    max_dim = max(graph.n_vertices - 1 if k_hint is None else k_hint + 1, 0)
    return clique_complex(graph, max_dim=min(max_dim, graph.n_vertices), cap=_cap(cap))


def cmd_fixtures(args) -> int:
    written = fixtures_mod.write_fixtures(args.out, args.which)
    for path in written:
        print(path)
    return 0


def cmd_betti(args) -> int:
    g = _load_graph(args.graph)
    reduced = not args.unreduced
    if args.k == "all":
        # rows to degree n - 2 (n - 1 on a complete graph) need every factor complete
        Ks = factor_complexes(g, g.n_vertices - 2, _cap(args.cap))
        table = betti_table(Ks, reduced=reduced)
        chi = euler_characteristic(Ks)
        if args.format == "json":
            print(json.dumps({
                "betti": {str(k): b for k, b in table.as_dict().items()},
                "euler_unreduced": chi.unreduced,
                "euler_reduced": chi.reduced,
            }, indent=2))
        elif args.format == "csv":
            print("k,dim,rank_d,betti")
            for k, d, r, b in zip(table.ks, table.chain_dims, table.coboundary_ranks, table.betti):
                print(f"{k},{d},{r},{b}")
        else:
            print("k    dim C^k  rank d^k  betti")
            for k, d, r, b in zip(table.ks, table.chain_dims, table.coboundary_ranks, table.betti):
                print(f"{k:>3}  {d:>7}  {r:>8}  {b:>5}")
            print(f"euler characteristic: {chi.unreduced} (reduced {chi.reduced})")
            print(f"witten index |reduced euler|: {abs(chi.reduced)}")
        return 0
    try:
        k = int(args.k)
    except ValueError as exc:
        raise UsageError(f"--k must be an integer or 'all', got {args.k!r}") from exc
    print(join_betti(factor_complexes(g, k, _cap(args.cap)), k, reduced=reduced))
    return 0


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    if (args.lam is None) == (args.grid is None):
        raise UsageError("give exactly one of --lambda or --grid (or --grid default)")
    if args.lam is not None and not 0 < args.lam <= 1:
        raise UsageError(f"lambda must be in (0, 1], got {args.lam}")
    K = _complex_for(g, args.k, args.cap)
    if args.lam is not None:
        rep = spectrum(K, args.k, args.lam)
        if args.format == "csv":
            print("index,eigenvalue")
            for i, v in enumerate(rep.eigenvalues):
                print(f"{i},{_fmt(v)}")
        else:
            print(" ".join(_fmt(v) for v in rep.eigenvalues))
            print(f"lambda_min {_fmt(rep.lambda_min)}  near-zero multiplicity {rep.near_zero_multiplicity}")
        return 0
    table = sweep(K, args.k, _parse_grid(args.grid))
    for line in table.csv_lines():
        print(line)
    return 0


def cmd_specseq(args) -> int:
    if args.j_max < 0:
        raise UsageError(f"--j-max must be >= 0, got {args.j_max}")
    g = _load_graph(args.graph)
    K = _complex_for(g, None, args.cap)
    if args.forman:
        if args.k is None:
            raise UsageError("--forman needs --k")
        grid = DEFAULT_GRID if args.grid is None else _parse_grid(args.grid)
        rep = forman_compare(K, args.k, grid)
        print("j,algebraic_dim,branch_count,equal")
        for row in rep.rows:
            print(f"{row.j},{row.algebraic_dim},{row.branch_count},{row.equal}")
        print(f"forman comparison: {'PASS' if rep.ok else 'FAIL'}")
        return 0
    F = filtration(K)
    # a --k outside the filtration is rejected before any page is printed
    rep = None if args.k is None else stabilized_dims(F, args.k)
    if args.format == "csv":
        print("j,k,l,dim")
        for j in range(0, args.j_max + 1):
            page = page_dims(F, j)
            for (k, l), d in sorted(page.dims.items()):
                print(f"{j},{k},{l},{d}")
    else:
        for j in range(0, args.j_max + 1):
            page = page_dims(F, j)
            for line in page.table_lines():
                print(line)
            print()
    if rep is not None:
        dims = " ".join(f"{j}:{v}" for j, v in sorted(rep.per_page.items()))
        print(f"dim e_j^{args.k}: {dims}")
        print(f"stabilizes to betti={rep.betti} at page {rep.stabilization_page}")
    return 0


def cmd_reduce(args) -> int:
    H = parse_hamiltonian(_read_text(args.hamiltonian))
    res = reduce_hamiltonian(H)
    sched = schedule(args.g, max(H.t, 1), H.max_locality, args.c)
    text = res.to_json(lam=sched.lam, threshold=sched.threshold)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    print(
        f"k={res.k} lambda={_fmt(sched.lam)} E={_fmt(sched.threshold)} "
        f"vertices={res.graph.n_vertices} edges={res.graph.n_edges}",
        file=sys.stderr,
    )
    return 0


def cmd_decide(args) -> int:
    H = parse_hamiltonian(_read_text(args.hamiltonian))
    dec = decide(H, g=args.g, c=args.c)
    # every line is formatted before any is printed, so a failure prints none
    lines = [dec.answer, f"{_named('k', dec.k)} {_named('betti', dec.betti)} "
                         f"lambda={_fmt(dec.schedule.lam)} E={_fmt(dec.schedule.threshold)}"]
    if dec.lam_min is not None:
        lines.append(f"lambda_min={_fmt(dec.lam_min)}")
    if dec.harmonic_overlaps:
        for z, row in dec.harmonic_overlaps.items():
            # a row holds few distinct values (and no -0.0): format each once
            text = {v: _fmt(v) for v in set(row)}
            lines.append(f"overlap |{z}>: " + " ".join(map(text.__getitem__, row)))
    print("\n".join(lines))
    return 0


def cmd_verify_gadget(args) -> int:
    cat = catalog()
    if args.state in cat:
        state = cat[args.state]
    else:
        # JSONDecodeError and an integer literal past the digit limit are ValueErrors
        try:
            amps = json.loads(args.state)
        except (ValueError, RecursionError) as exc:
            raise UsageError(
                f"{args.state!r} is neither a catalog name ({', '.join(sorted(cat))}) nor JSON"
            ) from exc
        if not isinstance(amps, dict) or not amps:
            raise GraphFormatError(f"inline state must be a nonempty JSON object, got {amps!r}")
        state = IntegerState.from_dict(len(next(iter(amps))), amps)
    print(f"state: {state.label()} on m={state.m} qubits")
    g = gadget(state)  # raises on any internal verification failure
    added = {v for v, e in zip(g.vertices, g.exponents) if e}
    print(f"gadget: {len(added)} added vertices, {sum(u in added or v in added for u, v in g.edges)}"
          " added edges [construction checks PASS]")
    glued = glue(qubit_graph(state.m), g)
    K = clique_complex(glued, max_dim=2 * state.m + 2)
    want = 2 ** state.m - 1
    ok = True
    for k, b in betti_table([K]).as_dict().items():
        expect = want if k == 2 * state.m - 1 else 0
        status = "PASS" if b == expect else "FAIL"
        ok &= b == expect
        print(f"betti_{k} = {b} (expected {expect}) {status}")
    chi = euler_characteristic([K])
    status = "PASS" if abs(chi.reduced) == want else "FAIL"
    print(f"witten index |chi_reduced| = {abs(chi.reduced)} (expected {want}) {status}")
    if not ok or abs(chi.reduced) != want:
        raise HomologyLabError("gadget verification failed")
    print("PASS")
    return 0


_COMMANDS = {
    "fixtures": cmd_fixtures,
    "betti": cmd_betti,
    "spectrum": cmd_spectrum,
    "specseq": cmd_specseq,
    "reduce": cmd_reduce,
    "decide": cmd_decide,
    "verify-gadget": cmd_verify_gadget,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HomologyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a computation too large for this machine, not a usage error
        print("error: out of memory", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a size past what this machine can index
        print(f"error: too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
