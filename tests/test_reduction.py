import importlib.util
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homology_lab.complexes import clique_complex, factor_complexes
from homology_lab.errors import GraphFormatError, ScheduleError, UnsupportedStateError
from homology_lab.gadgets import IntegerState, basis_state_matrix, gadget, glue
from homology_lab.graph import (
    WeightedGraph,
    induced_subgraph,
    make_graph,
    qubit_graph,
    qubit_of,
    relabel,
)
from homology_lab.homology import betti, coboundary_rank, harmonic_basis
from homology_lab.reduction import (
    Hamiltonian,
    decide,
    pad,
    parse_hamiltonian,
    reduce_hamiltonian,
    schedule,
)

from conftest import built, positions
from reference import chain_vector, join, joined_loops, laplacian_up, simplices


def H_of(n, *terms):
    return Hamiltonian(
        n, tuple((tuple(sup), IntegerState.from_dict(len(sup), amps)) for sup, amps in terms)
    )


def test_parse_hamiltonian_examples():
    H = parse_hamiltonian('{"n":1,"terms":[{"support":[0],"amps":{"0":1}}]}')
    assert H.n == 1 and H.t == 1
    H2 = parse_hamiltonian(
        '{"n":2,"terms":[{"support":[0,1],"amps":{"00":1,"11":-1}}]}'
    )
    assert dict(H2.terms[0][1].amps) == {"00": 1, "11": -1}


@pytest.mark.parametrize(
    "text",
    [
        '{"n":1,"terms":[{"support":[0],"amps":{"0":0.5}}]}',
        '{"n":1,"terms":[{"support":[1],"amps":{"0":1}}]}',
        '{"n":2,"terms":[{"support":[0,0],"amps":{"00":1}}]}',
        '{"n":0,"terms":[]}',
        "garbage",
    ],
)
def test_parse_hamiltonian_rejects(text):
    with pytest.raises(GraphFormatError):
        parse_hamiltonian(text)


def test_schedule_values():
    s = schedule(1.0, 2, 1, 0.1)
    assert s.lam == pytest.approx(0.05)
    assert s.threshold == pytest.approx(0.05 * 0.05 ** 6)
    s2 = schedule(1.0, 1, 1, 0.2)
    assert s2.lam == pytest.approx(0.2)
    assert s2.threshold == pytest.approx(0.2 * 0.2 ** 6)


def test_schedule_rejects_bad_constants():
    with pytest.raises(ScheduleError):
        schedule(1.0, 1, 1, 0.0)
    with pytest.raises(ScheduleError):
        schedule(-1.0, 1, 1, 0.1)
    with pytest.raises(ScheduleError):
        schedule(20.0, 1, 1, 0.5)  # lambda >= 1


@pytest.mark.parametrize("g, t, m, c", [(1.0, 4, 2, 1e-60), (1e-300, 2, 1, 0.1)])
def test_schedule_rejects_an_underflowed_threshold(g, t, m, c):
    """lambda lies in (0, 1) but E = c lam^(4m+2) g / t rounds to 0.0, and
    every clipped lambda_min = 0 would pass lambda_min >= E."""
    assert 0 < c * g / t < 1
    with pytest.raises(ScheduleError, match="threshold E = 0.0, not positive"):
        schedule(g, t, m, c)


def test_pad_identity_at_full_support():
    g = gadget(IntegerState.from_dict(1, {"0": 1}))
    assert pad(g, 1) == g


def test_pad_adds_all_to_all_edges():
    g = gadget(IntegerState.from_dict(1, {"0": 1}))
    padded = pad(g, 2)
    new = padded.edges - g.edges
    # each of the 5 gadget vertices gains one edge per vertex of the other copy
    assert len(new) == 5 * 7
    assert all(any(v.startswith("q2.") for v in e) for e in new)
    assert all(padded.exponent(u) or padded.exponent(v) for u, v in new)


def test_pad_rejects_fewer_qubits_than_the_gadget():
    g = gadget(IntegerState.from_dict(2, {"00": 1}))
    with pytest.raises(GraphFormatError, match="cannot pad an m=2 gadget down to n=1"):
        pad(g, 1)


def test_reduce_builds_the_qubit_graph_once(monkeypatch):
    """Counted wherever a library module holds qubit_graph."""
    import sys

    calls = []

    def counting(n):
        calls.append(n)
        return qubit_graph(n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("homology_lab") and getattr(mod, "qubit_graph", None) is qubit_graph:
            monkeypatch.setattr(mod, "qubit_graph", counting)
    H = H_of(3, ([0], {"0": 1}), ([1, 2], {"00": 1, "11": -1}), ([0, 2], {"01": 1}))
    reduce_hamiltonian(H)
    assert calls == [3]


def test_reduce_builds_as_many_graphs_at_every_qubit_count(monkeypatch):
    """The qubit graph is joined in one pass: the graphs that the reduction
    of the same two terms builds do not grow in number with n."""
    counts = []
    real = WeightedGraph.__post_init__

    def counting(self):
        counts[-1] += 1
        real(self)

    monkeypatch.setattr(WeightedGraph, "__post_init__", counting)
    for n in (2, 10, 40):
        counts.append(0)
        reduce_hamiltonian(H_of(n, ([0], {"0": 1}), ([0], {"1": 1})))
    assert counts[0] == counts[1] == counts[2]


def test_reduce_single_term_graph():
    res = reduce_hamiltonian(H_of(1, ([0], {"0": 1})))
    assert res.graph.n_vertices == 12
    assert res.k == 1
    assert res.term_prefixes == ("t1.",)
    K = built(res.graph, 2)
    assert betti(K, 1) == 1


def test_reduce_two_terms_removes_all_homology():
    res = reduce_hamiltonian(H_of(1, ([0], {"0": 1}), ([0], {"1": 1})))
    K = built(res.graph, 2)
    assert betti(K, 1) == 0


def test_reduce_keeps_gadgets_disconnected():
    res = reduce_hamiltonian(H_of(1, ([0], {"0": 1}), ([0], {"1": 1})))
    t1 = {v for v in res.graph.vertices if v.startswith("t1.")}
    t2 = {v for v in res.graph.vertices if v.startswith("t2.")}
    assert t1 and t2
    for u, v in res.graph.edges:
        assert not (u in t1 and v in t2) and not (u in t2 and v in t1)


def test_chainspace_decomposition():
    res = reduce_hamiltonian(H_of(1, ([0], {"0": 1}), ([0], {"1": 1})))
    K = built(res.graph, res.k + 1)
    for s in simplices(K, res.k):
        touched = {p for p in res.term_prefixes if any(v.startswith(p) for v in s)}
        assert len(touched) <= 1


def test_padded_kernel_dimensions():
    # one basis-state gadget padded into a larger qubit graph
    for m, n in ((1, 1), (1, 2), (2, 2)):
        H = H_of(n, (list(range(m)), {"0" * m: 1}))
        res = reduce_hamiltonian(H)
        K = built(res.graph, res.k + 1)
        assert betti(K, res.k) == (2 ** m - 1) * 2 ** (n - m)


@st.composite
def native_hamiltonians(draw, max_qubits=4, max_terms=3, amps=(-2, -1, 1, 2)):
    """1 to max_qubits qubits, 1 to max_terms terms, each a 1- or 2-qubit
    state with amplitudes drawn from ``amps``: every state the native gadget
    constructions cover."""
    n = draw(st.integers(1, max_qubits))
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        m = draw(st.integers(1, min(2, n)))
        support = sorted(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True)))
        bits = draw(st.lists(st.sampled_from([format(i, f"0{m}b") for i in range(2**m)]),
                             min_size=1, unique=True))
        terms.append((support, {z: draw(st.sampled_from(amps)) for z in bits}))
    return H_of(n, *terms)


def assembled_reduction_graph(H):
    """The reduction graph from graph operations alone: the qubit graph united
    with each term's gadget, placed with its copy ``q{j}.`` on the j-th support
    qubit and its filling under ``t{i}.``, and its filling joined onto the
    qubit copies outside the support.  Labels are split here by hand, not by
    the library's helpers."""
    Q = qubit_graph(H.n)
    weights, edges = Q.weight_map(), set(Q.edges)
    for i, (support, state) in enumerate(H.terms, start=1):
        g = gadget(state)
        names = {}
        for v, e in zip(g.vertices, g.exponents):
            head, _, rest = v.partition(".")
            names[v] = f"t{i}.{v}" if e else f"q{support[int(head[1:]) - 1] + 1}.{rest}"
        placed = relabel(g, names)
        filling = induced_subgraph(placed, [v for v in placed.vertices if placed.exponent(v)])
        idle = [v for v in Q.vertices if int(v[1 : v.index(".")]) - 1 not in support]
        for part in (placed, join(filling, induced_subgraph(Q, idle))):
            weights |= part.weight_map()
            edges |= part.edges
    return make_graph(weights, edges)


@settings(max_examples=60, deadline=None)
@given(native_hamiltonians())
def test_reduction_graph_is_the_assembled_graph(H):
    assert reduce_hamiltonian(H).graph == assembled_reduction_graph(H)


@settings(max_examples=20, deadline=None)
@given(native_hamiltonians(max_qubits=12, max_terms=2))
@example(H_of(11, ([1, 9], {"00": 1, "11": -1}), ([10], {"1": 1})))
@example(H_of(11, ([1, 10], {"01": -1, "10": 2})))
@example(H_of(11, ([0, 10], {"01": 1}), ([1, 9], {"10": 1})))
def test_basis_cycles_match_the_label_oracle_on_every_factor(H):
    """basis_state_matrix on each join factor of a reduction, column by
    column and bit for bit, against the loops' label chains joined by the
    Künneth oracle and normalized.  The examples put q2 with q10 or q11 and
    q1 with q11 in one factor, where copies sort in another order by label
    than by number."""
    res = reduce_hamiltonian(H)
    for K in factor_complexes(res.graph, res.k):
        qubits = sorted({q for q, _v in filter(None, map(qubit_of, K.graph.vertices))})
        m = len(qubits)
        B = basis_state_matrix(K, qubits)
        for i in range(2 ** m):
            v = chain_vector(K, 2 * m - 1, joined_loops(K, qubits, format(i, f"0{m}b")))
            assert np.array_equal(B[:, i], v / np.linalg.norm(v))


def test_support_relabeling():
    H = H_of(2, ([1], {"0": 1}))
    res = reduce_hamiltonian(H)
    K = built(res.graph, res.k + 1)
    assert betti(K, res.k) == 2
    # the placed gadget's cycle, its exponent-0 vertices, sits on the second qubit copy
    g = res.gadgets[0]
    assert {v for v in g.vertices if not g.exponent(v)} == {"q2.x", "q2.a2", "q2.a3", "q2.a4"}


def test_up_laplacian_additivity():
    res = reduce_hamiltonian(H_of(1, ([0], {"0": 1}), ([0], {"1": 1})))
    K = built(res.graph, res.k + 1)
    lam = 0.25
    up_full = laplacian_up(K, res.k).evaluate_dense(lam)
    rng = np.random.default_rng(12)
    psi = rng.standard_normal(K.dim_size(res.k))
    total = 0.0
    for g in res.gadgets:
        g1 = glue(qubit_graph(1), g)
        K1 = built(g1, res.k + 1)
        up1 = laplacian_up(K1, res.k).evaluate_dense(lam)
        idx = positions(K, simplices(K1, res.k))
        psi1 = psi[idx]
        total += psi1 @ up1 @ psi1
    assert abs(psi @ up_full @ psi - total) < 1e-10


def test_padded_gadget_low_spectrum_structure():
    """First excited level of a padded gadget: 2^{n-m}-fold, ~lambda^{4m+2}, cycles."""
    import scipy.linalg

    from homology_lab.operators import coboundary, laplacian

    H = H_of(2, ([0], {"0": 1}))
    res = reduce_hamiltonian(H)
    K = built(res.graph, res.k + 1)
    L = laplacian(K, res.k)
    first = {}
    vecs = {}
    for lam in (0.2, 0.1):
        dense = L.evaluate_dense(lam)
        w, V = scipy.linalg.eigh((dense + dense.T) / 2)
        assert w[0] < 1e-12 and w[1] < 1e-12  # kernel dim 2
        assert abs(w[2] - w[3]) < 1e-12 + 1e-6 * w[3]  # 2-fold degenerate
        first[lam] = w[2]
        vecs[lam] = V[:, 2]
    slope = np.log(first[0.2] / first[0.1]) / np.log(0.2 / 0.1)
    assert abs(slope - 6.0) <= 0.5
    # the lifted states are cycles: the boundary annihilates them
    B = coboundary(K, res.k - 1).evaluate(0.1).T
    assert np.linalg.norm(B @ vecs[0.1]) <= 1e-6


def test_gadget_laplacian_is_psd_at_small_lambda():
    import numpy as np_

    from homology_lab.fixtures import gadget_graph
    from homology_lab.operators import laplacian

    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 2)
    dense = laplacian(K, 1).evaluate_dense(0.2)
    assert np_.allclose(dense, dense.T)
    assert np_.linalg.eigvalsh(dense).min() >= -1e-10


def test_decide_yes_on_satisfiable():
    dec = decide(H_of(1, ([0], {"0": 1})))
    assert dec.answer == "YES"
    assert dec.betti == 1


def test_decide_no_on_unsatisfiable():
    dec = decide(H_of(1, ([0], {"0": 1}), ([0], {"1": 1})), g=1.0, c=0.1)
    assert dec.answer == "NO"
    assert dec.lam_min is not None
    assert dec.lam_min >= dec.schedule.threshold


def test_decide_yes_on_superposition_projector():
    dec = decide(H_of(1, ([0], {"0": 1, "1": -1})))
    assert dec.answer == "YES"
    # the surviving harmonic state is the |+> combination: its projector has
    # equal positive Gram entries <z|P|w> for z, w in {0, 1}
    ov = dec.harmonic_overlaps
    assert ov is not None
    entries = [ov[z][w] for z in "01" for w in range(2)]
    assert min(entries) > 0
    assert max(entries) - min(entries) < 1e-6


def test_decide_inconclusive_when_threshold_too_optimistic():
    # an aggressive schedule puts E above the true smallest eigenvalue
    dec = decide(H_of(1, ([0], {"0": 1}), ([0], {"1": 1})), g=9.0, c=0.2)
    assert dec.answer == "INCONCLUSIVE"


ORACLES = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


@settings(max_examples=50, deadline=None)
@given(native_hamiltonians(max_qubits=3, amps=(-2, -1, 1, 3)))
def test_decide_finds_the_ground_space(H):
    """The reduction's claim: the harmonic cochains of the reduction graph in
    degree 2n - 1 are the ground space of H.  decide's betti is dim ker H,
    taken by the benchmark oracle from the padded term vectors by exact
    elimination; on a YES the overlap Gram matrix has rank betti, and every
    padded term vector lies in its kernel."""
    oracles = load_oracles()
    dec = decide(H)
    assert dec.betti == oracles.ground_dim(H)
    if dec.answer == "YES":
        assert dec.harmonic_overlaps is not None
        G = np.array([dec.harmonic_overlaps[z] for z in dec.harmonic_overlaps])
        assert np.linalg.matrix_rank(G, tol=1e-6) == dec.betti
        V = np.array(oracles.padded_vectors(H), dtype=float).reshape(-1, 2 ** H.n)
        assert abs(G @ V.T).max(initial=0.0) <= 1e-8


def test_decide_trivial_hamiltonian():
    dec = decide(Hamiltonian(1, ()))
    assert dec.answer == "YES"


def test_reduce_rejects_unsupported_locality():
    with pytest.raises(UnsupportedStateError):
        reduce_hamiltonian(H_of(3, ([0, 1, 2], {"000": 1, "111": 1})))


def test_three_local_basis_state_term_reduces():
    # |011><011| on three qubits leaves the other seven basis states
    dec = decide(H_of(3, ([0, 1, 2], {"011": 1})))
    assert dec.answer == "YES" and dec.betti == 7


def test_three_local_basis_state_term_in_an_unsatisfiable_sum():
    H = H_of(3, ([0, 1, 2], {"011": 1}), ([0], {"0": 1}), ([0], {"1": 1}))
    dec = decide(H)
    assert dec.answer == "NO"
    assert dec.lam_min >= dec.schedule.threshold


def test_mixed_locality_terms():
    # |00><00| plus |1><1| on qubit 0 leaves exactly the |01> state
    H = H_of(2, ([0, 1], {"00": 1}), ([0], {"1": 1}))
    dec = decide(H)
    assert dec.answer == "YES" and dec.betti == 1
    ov = dec.harmonic_overlaps
    best = max(ov, key=lambda z: ov[z][int(z, 2)])
    assert best == "01"


def eigenbasis_overlaps(H):
    """Gram rows <z|P|w> from an eigenbasis of the numeric kernel at 0.5.

    An independent reference for decide's least-squares projection: the
    harmonic basis comes from ``harmonic_basis`` (dense up to DENSE_EIG_CAP,
    shift-invert above it), and P = V V^T.
    """
    res = reduce_hamiltonian(H)
    K = clique_complex(res.graph, max_dim=res.k + 1)
    qubits = range(1, H.n + 1)
    overlap = basis_state_matrix(K, qubits).T @ harmonic_basis(K, res.k, lam=0.5).basis
    gram = overlap @ overlap.T
    return {format(i, f"0{H.n}b"): gram[i] for i in range(gram.shape[0])}


def assert_rows_match(rows, reference):
    assert sorted(rows) == sorted(reference)
    for z in reference:
        assert np.allclose(rows[z], reference[z], rtol=0, atol=1e-9), z


OVERLAP_CASES = {
    **{
        f"2q-{z1}-{z2}": H_of(2, ([0, 1], {z1: 1, z2: -1}))
        for z1, z2 in combinations(["00", "01", "10", "11"], 2)
    },
    # dim C^3 = 840
    "2q-2x00-plus-11": H_of(2, ([0, 1], {"00": 2, "11": 1})),
    "2q-00-and-1-on-q0": H_of(2, ([0, 1], {"00": 1}), ([0], {"1": 1})),
    # dim C^5 = 8,368, above DENSE_EIG_CAP: the reference is shift-invert
    "3q-0-on-q0-and-00-minus-11-on-q1q2": H_of(
        3, ([0], {"0": 1}), ([1, 2], {"00": 1, "11": -1})
    ),
}


@pytest.mark.parametrize("case", sorted(OVERLAP_CASES))
def test_overlaps_equal_an_eigenbasis_reference(case):
    H = OVERLAP_CASES[case]
    dec = decide(H)
    assert dec.answer == "YES"
    assert_rows_match(dec.harmonic_overlaps, eigenbasis_overlaps(H))


class NoStepLU:
    """A SuperLU factor whose every solve returns Y = 0."""

    def __init__(self, _A, **_kwargs):
        pass

    def solve(self, rhs):
        return np.zeros_like(rhs)


def no_step(A, b, **_kwargs):
    """lsqr stopping on y = 0 as if it had converged."""
    return np.zeros(A.shape[1]), 1


def refuse_eigenbases(monkeypatch):
    import homology_lab.homology as homology_mod
    import homology_lab.reduction as reduction_mod
    import homology_lab.spectra as spectra_mod

    def refuse(*_args, **_kwargs):
        raise AssertionError("eigenbasis solved for a failed projection")

    for module, name in ((reduction_mod, "harmonic_basis"), (homology_mod, "eigensolve"),
                         (spectra_mod, "eigensolve")):
        monkeypatch.setattr(module, name, refuse)


def test_overlaps_are_none_when_the_projection_fails_its_check(monkeypatch):
    """The direct solve returning Y = 0 leaves B itself, which d^k does not
    annihilate: the check fails, and no eigenbasis is solved in its place."""
    monkeypatch.setattr("scipy.sparse.linalg.splu", NoStepLU)
    refuse_eigenbases(monkeypatch)
    dec = decide(H_of(2, ([0, 1], {"00": 1, "11": -1})))
    assert (dec.answer, dec.betti) == ("YES", 3)
    assert dec.harmonic_overlaps is None


def test_overlaps_are_none_when_lsqr_fails_the_check_on_three_qubits(monkeypatch):
    """On a 3-qubit factor, lsqr's path: lsqr returning y = 0 leaves B
    itself, the check fails, and no eigenbasis is solved in its place."""
    monkeypatch.setattr("scipy.sparse.linalg.lsqr", no_step)
    refuse_eigenbases(monkeypatch)
    H = H_of(3, ([0, 1], {"00": 1}), ([1, 2], {"01": 1}))
    assert [K.graph.n_vertices for K in factor_complexes(reduce_hamiltonian(H).graph, 5)] == [39]
    dec = decide(H)
    assert (dec.answer, dec.betti) == ("YES", 5)
    assert dec.harmonic_overlaps is None


def test_yes_branch_runs_no_eigensolve(monkeypatch):
    import homology_lab.homology as homology_mod
    import homology_lab.spectra as spectra_mod

    def refuse(*_args, **_kwargs):
        raise AssertionError("eigensolve called on the YES branch")

    monkeypatch.setattr(homology_mod, "eigensolve", refuse)
    monkeypatch.setattr(spectra_mod, "eigensolve", refuse)
    dec = decide(H_of(2, ([0, 1], {"01": 1, "10": 1})))
    assert dec.answer == "YES"
    assert dec.harmonic_overlaps["00"] == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("n, projectors", [(1, ["0", "1"]), (2, ["00", "01", "10", "11"])])
def test_no_branch_ranks_each_coboundary_once(monkeypatch, n, projectors):
    """lambda_min's Betti check on a NO rung is answered from the rank cache:
    the degrees through k are ranked once each, bottom-up, each on the
    columns the pivots of the degree below left."""
    from homology_lab import rational

    received = []
    rank_int = rational.rank_int

    def counted(cols):
        received.append(len(cols))
        return rank_int(cols)

    monkeypatch.setattr(rational, "rank_int", counted)
    H = H_of(n, *((list(range(n)), {z: 1}) for z in projectors))
    dec = decide(H)
    assert dec.betti == 0 and dec.answer in ("NO", "INCONCLUSIVE")
    monkeypatch.undo()
    K = clique_complex(reduce_hamiltonian(H).graph, dec.k + 1)  # a fresh complex
    ks = [j for j in range(-1, dec.k + 1) if K.dim_size(j)]
    assert received == [K.dim_size(j) - coboundary_rank(K, j - 1) for j in ks]


def test_two_qubit_unsatisfiable_certifies_with_larger_c():
    # all four basis projectors; the default c puts E below double precision
    H = H_of(
        2,
        ([0, 1], {"00": 1}),
        ([0, 1], {"01": 1}),
        ([0, 1], {"10": 1}),
        ([0, 1], {"11": 1}),
    )
    weak = decide(H, g=1.0, c=0.1)
    assert weak.answer == "INCONCLUSIVE"
    strong = decide(H, g=1.0, c=0.5)
    assert strong.answer == "NO"
    assert strong.lam_min >= strong.schedule.threshold


def test_two_qubit_entangled_projector_is_satisfiable():
    H = H_of(2, ([0, 1], {"01": 1, "10": -1}))
    dec = decide(H)
    assert dec.answer == "YES" and dec.betti == 3
