"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``; a summary block with one
line per criterion is printed at the end of the session.
"""

import random
import time

import numpy as np
import scipy.linalg

from homology_lab.complexes import clique_complex
from homology_lab.fixtures import gadget_graph, hexagon
from homology_lab.gadgets import IntegerState, glue
from homology_lab.graph import (
    bowtie,
    octahedron,
    qubit_graph,
    relabel,
    thicken,
)
from homology_lab.homology import betti, betti_table, euler_characteristic, harmonic_basis
from homology_lab.operators import laplacian
from homology_lab.reduction import Hamiltonian, decide, reduce_hamiltonian
from homology_lab.specseq import filtration, forman_compare, page_dims
from homology_lab.spectra import DEFAULT_GRID, sweep

from conftest import built, complete_graph, positions, record_acceptance, seeded_graphs
from reference import (
    basis_chain,
    cycle_is_boundary,
    embedded_entry,
    join,
    laplacian_entry,
    laplacian_up,
    locate,
    orthogonal_cycle_span,
    pairing_check,
    simplices,
    target_chain,
)

K3 = complete_graph(["a", "b", "c"])


def check(criterion, ok, detail=""):
    record_acceptance(criterion, ok, detail)
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_c01_bowtie():
    t0 = time.perf_counter()
    g = bowtie()
    K = built(g, 3)
    ok = (
        g.n_vertices == 7
        and g.n_edges == 8
        and K.dim_size(2) == 0
        and betti(K, 1) == 2
    )
    check("01 bowtie", ok, f"{time.perf_counter() - t0:.2f}s")


def test_c02_octahedra():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        K = built(octahedron(n), n + 1)
        if len(simplices(K, n - 1)) != 2 ** n:
            ok = False
        for k in range(-1, n + 1):
            want = 1 if k == n - 1 else 0
            if betti(K, k) != want:
                ok = False
    check("02 octahedra", ok, f"n=1..6, {time.perf_counter() - t0:.2f}s")


def test_c03_kunneth():
    t0 = time.perf_counter()
    K2 = built(qubit_graph(2), 4)
    ok = K2.dim_size(3) == 64 and betti(K2, 3) == 4
    rng = random.Random(17)
    pairs = [
        (g, h)
        for g, h in zip(seeded_graphs(5, 5, seed=41), seeded_graphs(5, 5, seed=42))
    ]
    for a, b in pairs:
        ga = relabel(a, {v: f"L.{v}" for v in a.vertices})
        gb = relabel(b, {v: f"R.{v}" for v in b.vertices})
        KJ = clique_complex(join(ga, gb), ga.n_vertices + gb.n_vertices)
        KA = clique_complex(ga, ga.n_vertices)
        KB = clique_complex(gb, gb.n_vertices)

        def bet(K, k):
            return betti(K, k) if -1 <= k < K.max_dim else 0

        for k in range(-1, KJ.max_dim):
            want = sum(bet(KA, i) * bet(KB, k - 1 - i) for i in range(-1, k + 1))
            if bet(KJ, k) != want:
                ok = False
    check("03 kunneth", ok, f"{time.perf_counter() - t0:.2f}s")


def test_c04_thickening():
    t0 = time.perf_counter()
    ok = True
    cases = [octahedron(2), octahedron(3), bowtie()] + seeded_graphs(20, 8, seed=99)
    for g in cases:
        K = clique_complex(g, g.n_vertices)
        T = clique_complex(thicken(g), 2 * g.n_vertices)

        def bet(K_, k):
            return betti(K_, k) if k < K_.max_dim else 0

        for k in range(-1, max(K.max_dim, T.max_dim)):
            if bet(K, k) != bet(T, k):
                ok = False
    check("04 thickening", ok, f"23 graphs, {time.perf_counter() - t0:.2f}s")


def test_c05_entrywise_laplacian():
    t0 = time.perf_counter()
    ok = True
    for g in seeded_graphs(20, 9, wmax=1, seed=31):
        K = clique_complex(g, min(g.n_vertices, 6))
        for k in range(-1, K.max_dim):
            L = laplacian(K, k)
            sims = simplices(K, k)
            for a, s in enumerate(sims):
                for b, t in enumerate(sims):
                    if laplacian_entry(K, k, s, t) != L.entries.get((a, b), {}):
                        ok = False
    check("05 entrywise laplacian", ok, f"20 graphs, {time.perf_counter() - t0:.2f}s")


def test_c06_pairing():
    t0 = time.perf_counter()
    ok = True
    fixtures = [
        ("bowtie", built(bowtie(), 3), 1.0),
        ("K3", built(K3, 3), 1.0),
        ("hexagon", built(hexagon(), 3), 0.25),
        ("gadget0", built(gadget_graph(IntegerState.from_dict(1, {"0": 1})), 3), 0.25),
    ]
    worst = 0.0
    for _name, K, lam in fixtures:
        rep = pairing_check(K, lam)
        worst = max(worst, rep.max_mismatch)
        if not rep.paired:
            ok = False
    check("06 pairing", ok, f"max mismatch {worst:.2e}, {time.perf_counter() - t0:.2f}s")


GADGET_STATES = [
    (1, {"0": 1}),
    (1, {"1": 1}),
    (1, {"0": 1, "1": -1}),
    (1, {"0": 1, "1": 2}),
    (2, {"00": 1}),
    (2, {"11": 1}),
    (2, {"00": 1, "11": -1}),
    (2, {"00": 1, "11": 2}),
]


def test_c07_gadget_homology():
    t0 = time.perf_counter()
    ok = True
    for m, amps in GADGET_STATES:
        st = IntegerState.from_dict(m, amps)
        K = built(gadget_graph(st), 2 * m + 4)
        want = 2 ** m - 1
        table = betti_table([K]).as_dict()
        if not all(v == (want if k == 2 * m - 1 else 0) for k, v in table.items()):
            ok = False
        if abs(euler_characteristic([K]).reduced) != want:
            ok = False
    check("07 gadget homology", ok, f"8 states, {time.perf_counter() - t0:.2f}s")


def test_c08_filled_cycle_is_boundary():
    t0 = time.perf_counter()
    ok = True
    for m, amps in GADGET_STATES:
        st = IntegerState.from_dict(m, amps)
        K = built(gadget_graph(st), 2 * m + 4)
        k = 2 * m - 1
        bounds, witness = cycle_is_boundary(K, target_chain(st, K), k)
        if not bounds or not witness:
            ok = False
        if len(st.amps) == 1:
            # basis-state gadget: all other basis cycles stay non-bounding
            filled = st.amps[0][0]
            for i in range(2 ** m):
                z = format(i, f"0{m}b")
                if z == filled:
                    continue
                other, _w = cycle_is_boundary(K, basis_chain(K, z), k)
                if other:
                    ok = False
    check("08 filled cycle bounds", ok, f"{time.perf_counter() - t0:.2f}s")


def test_c09_hexagon_spectral_sequence():
    t0 = time.perf_counter()
    F = filtration(built(hexagon(), 3))
    expected = {
        0: {(-1, 0): 1, (0, 0): 6, (0, 1): 7, (1, 0): 6, (1, 1): 12, (1, 2): 12,
            (2, 1): 6, (2, 2): 6, (2, 3): 6},
        1: {(0, 1): 1, (1, 0): 1, (1, 2): 6, (2, 3): 6},
        2: {(1, 0): 1, (2, 3): 1},
        3: {(1, 0): 1, (2, 3): 1},
        4: {},
    }
    ok = True
    for j, want in expected.items():
        got = {kl: d for kl, d in page_dims(F, j).dims.items() if d}
        if got != want:
            ok = False
    check("09 hexagon pages", ok, f"{time.perf_counter() - t0:.2f}s")


def test_c10_forman_comparison():
    t0 = time.perf_counter()
    ok = True
    fixtures = [hexagon()] + [
        gadget_graph(IntegerState.from_dict(1, amps))
        for amps in ({"0": 1}, {"0": 1, "1": -1})
    ]
    for g in fixtures:
        rep = forman_compare(built(g, 3), 1, DEFAULT_GRID)
        if not rep.ok:
            ok = False
    check("10 forman comparison", ok, f"{time.perf_counter() - t0:.2f}s")


def test_c11_scaling_exponents():
    t0 = time.perf_counter()
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 3)
    table = sweep(K, 1, DEFAULT_GRID)
    bulk_edges = sum(1 for s in simplices(K, 1) if "g.center" in s)
    ok = table.count_class("6") == 1 and table.count_class("2") == bulk_edges
    # remaining positive branches decay like Theta(1) within +-0.3
    for s, c in zip(table.slopes, table.classes):
        if c == "0" and abs(s) > 0.3:
            ok = False
    n_rest = table.n_branches - 2 - bulk_edges
    ok = ok and table.count_class("0") == n_rest
    check("11 scaling exponents", ok, f"bulk={bulk_edges}, {time.perf_counter() - t0:.2f}s")


def test_c12_harmonic_perturbation():
    t0 = time.perf_counter()
    ok = True
    ratios = []
    for amps in ({"0": 1, "1": -1}, {"0": 1, "1": 2}):
        st = IntegerState.from_dict(1, amps)
        K = built(gadget_graph(st), 3)
        span = orthogonal_cycle_span(K, st)
        angles = {}
        for lam in (0.2, 0.1):
            hb = harmonic_basis(K, 1, lam)
            angles[lam] = float(np.max(scipy.linalg.subspace_angles(hb.basis, span)))
        ratio = angles[0.1] / angles[0.2]
        ratios.append(round(ratio, 3))
        if not (1 / 2.6 <= ratio <= 1 / 1.4):
            ok = False
    # basis-state gadgets leave the orthogonal cycles exactly harmonic
    st0 = IntegerState.from_dict(1, {"0": 1})
    K0 = built(gadget_graph(st0), 3)
    span0 = orthogonal_cycle_span(K0, st0)
    hb0 = harmonic_basis(K0, 1, 0.2)
    angle0 = float(np.max(scipy.linalg.subspace_angles(hb0.basis, span0)))
    if angle0 > 1e-9:
        ok = False
    check("12 harmonic perturbation", ok, f"ratios {ratios}, {time.perf_counter() - t0:.2f}s")


def test_c13_padded_kernel_dimensions():
    t0 = time.perf_counter()
    ok = True
    for m, n in ((1, 1), (1, 2), (2, 2)):
        st = IntegerState.from_dict(m, {"0" * m: 1})
        H = Hamiltonian(n, ((tuple(range(m)), st),))
        res = reduce_hamiltonian(H)
        K = built(res.graph, res.k + 1)
        if betti(K, res.k) != (2 ** m - 1) * 2 ** (n - m):
            ok = False
    check("13 padded kernels", ok, f"{time.perf_counter() - t0:.2f}s")


def test_c14_end_to_end_decision():
    t0 = time.perf_counter()
    sat = Hamiltonian(1, (((0,), IntegerState.from_dict(1, {"0": 1})),))
    d1 = decide(sat, g=1.0, c=0.1)
    ok = d1.answer == "YES" and d1.betti == 1

    unsat = Hamiltonian(
        1,
        (
            ((0,), IntegerState.from_dict(1, {"0": 1})),
            ((0,), IntegerState.from_dict(1, {"1": 1})),
        ),
    )
    d2 = decide(unsat, g=1.0, c=0.1)
    ok = ok and d2.answer == "NO" and d2.lam_min >= d2.schedule.threshold

    # up-Laplacian additivity on the 2-gadget complex
    res = reduce_hamiltonian(unsat)
    K = built(res.graph, res.k + 1)
    lam = d2.schedule.lam
    up_full = laplacian_up(K, res.k).evaluate_dense(lam)
    rng = np.random.default_rng(23)
    for _ in range(3):
        psi = rng.standard_normal(K.dim_size(res.k))
        total = 0.0
        for g in res.gadgets:
            g1 = glue(qubit_graph(1), g)
            K1 = built(g1, res.k + 1)
            up1 = laplacian_up(K1, res.k).evaluate_dense(lam)
            idx = positions(K, simplices(K1, res.k))
            total += psi[idx] @ up1 @ psi[idx]
        if abs(psi @ up_full @ psi - total) > 1e-10:
            ok = False
    detail = f"lam_min={d2.lam_min:.3e} E={d2.schedule.threshold:.3e}, {time.perf_counter() - t0:.2f}s"
    check("14 end-to-end decision", ok, detail)


def test_c15_embedded_operator():
    t0 = time.perf_counter()
    K = built(bowtie(), 3)
    g = K.graph
    n = g.n_vertices
    L = laplacian(K, 1).evaluate_dense(1.0)
    rng = random.Random(9)
    A = 11.0
    ok = True
    clique_pairs = 0

    def sample():
        if rng.random() < 0.5:
            return "".join(rng.choice("01") for _ in range(n))
        picks = rng.sample(range(n), 2)  # weight-2 strings hit edges often
        return "".join("1" if i in picks else "0" for i in range(n))

    for _ in range(200):
        x = sample()
        y = sample()
        got = embedded_entry(K, 1, x, y, penalty=A)
        sx = tuple(v for v, bch in zip(g.vertices, x) if bch == "1")
        sy = tuple(v for v, bch in zip(g.vertices, y) if bch == "1")
        if len(sx) == len(sy) == 2 and min(locate(K, [sx, sy])) >= 0:
            clique_pairs += 1
            if abs(got - L[tuple(positions(K, [sx, sy]))]) > 1e-12:
                ok = False
        elif x == y:
            if got != A:
                ok = False
        elif got != 0.0:
            ok = False
    # force coverage of the diagonal clique and non-clique cases
    edge = simplices(K, 1)[0]
    xb = "".join("1" if v in edge else "0" for v in g.vertices)
    if embedded_entry(K, 1, xb, xb, penalty=A) != L[tuple(positions(K, [edge, edge]))]:
        ok = False
    non_clique = "1001000"  # a2 and b2 lie on different loops: not adjacent
    if embedded_entry(K, 1, non_clique, non_clique, penalty=A) != A:
        ok = False
    if embedded_entry(K, 1, non_clique, xb, penalty=A) != 0.0:
        ok = False
    check("15 embedded operator", ok, f"{clique_pairs} clique pairs, {time.perf_counter() - t0:.2f}s")
