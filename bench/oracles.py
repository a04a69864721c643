"""Correctness oracles for the benchmark, independent of the library's algebra.

Each check returns a list of problems; an empty list means the output is
right.  The decide oracle works from the Hamiltonian alone: the ground space
of a sum of rank-1 projectors is the orthogonal complement of the padded
term vectors, whose exact rank is taken here with Python integers.  The
page and sweep oracles compare against Betti numbers known from the
construction (the n-qubit graph has reduced homology only in degree 2n-1, of
dimension 2^n, and each glued gadget fills one direction of it) and against
the published tables of the filled hexagon.
"""

from __future__ import annotations

from itertools import product

# Nonzero page dimensions e_{j,l}^k of the filled hexagon, keyed (k, l).
HEXAGON_PAGES = {
    0: {(-1, 0): 1, (0, 0): 6, (0, 1): 7, (1, 0): 6, (1, 1): 12, (1, 2): 12,
        (2, 1): 6, (2, 2): 6, (2, 3): 6},
    1: {(0, 1): 1, (1, 0): 1, (1, 2): 6, (2, 3): 6},
    2: {(1, 0): 1, (2, 3): 1},
    3: {(1, 0): 1, (2, 3): 1},
    4: {},
}


def padded_vectors(H) -> list[list[int]]:
    """Each term's state tensored with every basis state of the other qubits."""
    vectors = []
    for support, state in H.terms:
        rest = [q for q in range(H.n) if q not in support]
        for y in product("01", repeat=len(rest)):
            v = [0] * 2**H.n
            for z, a in state.amps:
                bits = dict(zip(support, z)) | dict(zip(rest, y))
                v[int("".join(bits[q] for q in range(H.n)), 2)] = a
            vectors.append(v)
    return vectors


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free elimination, cross-multiplying each row with the pivot."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[pivot[c] * x - r[c] * p for x, p in zip(r, pivot)] for r in rows]
        rows = [r for r in rows if any(r)]
        rank += 1
    return rank


def ground_dim(H) -> int:
    return 2**H.n - exact_rank(padded_vectors(H))


def reduction_betti(H, k: int) -> dict[int, int]:
    """Betti numbers of the reduction graph: the ground space sits in 2n-1."""
    b = ground_dim(H)
    return {2 * H.n - 1: b} if b and k == 2 * H.n - 1 else {}


def check_decision(H, decision, g: float, c: float) -> list[str]:
    problems = []
    t = len(H.terms)
    m = max(s.m for _sup, s in H.terms)
    lam = c * g / t
    threshold = c * lam ** (4 * m + 2) * g / t
    sched = decision.schedule
    if abs(sched.lam - lam) > 1e-12 * lam or abs(sched.threshold - threshold) > 1e-12 * threshold:
        problems.append(f"schedule {sched.lam}, {sched.threshold} != {lam}, {threshold}")
    want = ground_dim(H)
    if want > 0:
        if decision.answer != "YES" or decision.betti != want:
            problems.append(f"{decision.answer} betti={decision.betti}, want YES betti={want}")
    elif decision.answer == "NO":
        if decision.lam_min is None or not decision.lam_min >= decision.schedule.threshold:
            problems.append(f"NO without lambda_min >= E: {decision.lam_min}")
    elif decision.answer != "INCONCLUSIVE":
        problems.append(f"{decision.answer} for a frustrated instance")
    return problems


def check_pages(
    pages: list[tuple[int, dict[tuple[int, int], int]]],
    chain_dims: dict[int, int],
    betti: dict[int, int],
    published: dict[int, dict[tuple[int, int], int]] | None = None,
) -> list[str]:
    """Pages 0, 1, ... of the weight spectral sequence against the oracles.

    Page 0 totals are the chain dimensions; totals never grow with j and stay
    at least the Betti number; every page has the reduced Euler
    characteristic, which must also match the known Betti numbers.
    """
    problems = []
    chi = sum((-1) ** k * d for k, d in chain_dims.items())
    chi_betti = sum((-1) ** k * b for k, b in betti.items())
    if chi != chi_betti:
        problems.append(f"reduced Euler characteristic {chi} != {chi_betti} from Betti numbers")
    prev = None
    for j, dims in pages:
        totals = {k: 0 for k in chain_dims}
        for (k, _l), d in dims.items():
            if d < 0:
                problems.append(f"page {j}: negative dimension at k={k}")
            totals[k] = totals.get(k, 0) + d
        if j == 0 and totals != chain_dims:
            problems.append(f"page 0 totals {totals} != chain dims {chain_dims}")
        for k, total in totals.items():
            if total < betti.get(k, 0):
                problems.append(f"page {j}: total {total} at k={k} below betti {betti.get(k, 0)}")
            if prev is not None and total > prev.get(k, 0):
                problems.append(f"page {j}: total at k={k} grew from {prev.get(k, 0)} to {total}")
        if sum((-1) ** k * d for k, d in totals.items()) != chi:
            problems.append(f"page {j}: alternating sum != reduced Euler characteristic {chi}")
        if published is not None and {kl: d for kl, d in dims.items() if d} != published.get(j):
            problems.append(f"page {j} differs from the published table")
        prev = totals
    return problems


def check_sweep(classes: tuple[str, ...], betti: dict[int, int]) -> list[str]:
    want = sum(betti.values())
    got = sum(1 for c in classes if c == "kernel")
    return [] if got == want else [f"{got} kernel branches, want betti {want}"]
