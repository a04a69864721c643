"""Symmetry blocks of the factor Laplacians (``spectra._symmetry_blocks``).

The oracles: the blocks' dimensions add up to dim C^k; every kept generator
is a graph automorphism whose signed simplex permutation, built here from a
dict of the simplices, commutes with every coboundary slice in SciPy's
integer products; a completion that is not an automorphism raises; the
union of the block spectra, and the least block eigenvalue that
``lambda_min`` gives ``decide``, are the whole Laplacian's within
n eps ||L||_inf; and a graph without qubit loops keeps the whole solve, bit
for bit.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab import spectra
from homology_lab.complexes import clique_complex, factor_complexes
from homology_lab.errors import DimensionError, HomologyLabError
from homology_lab.fixtures import hexagon, named_fixtures
from homology_lab.gadgets import IntegerState
from homology_lab.graph import join_all, join_factors, parse_graph, qubit_vertex, unweighted
from homology_lab.homology import betti, eigensolve
from homology_lab.operators import coboundary, laplacian
from homology_lab.reduction import Hamiltonian, decide, parse_hamiltonian, reduce_hamiltonian
from homology_lab.spectra import DEFAULT_GRID, join_spectrum, spectrum, sweep

from conftest import seeded_graphs
from test_cli import HAMILTONIANS

EPS = np.finfo(float).eps
BITS = {1: ("0", "1"), 2: ("00", "01", "10", "11")}


def hamiltonian(n, terms):
    return Hamiltonian(n, tuple((s, IntegerState.from_dict(len(s), amps)) for s, amps in terms))


def reduction_factors(H):
    res = reduce_hamiltonian(H)
    return factor_complexes(res.graph, res.k), res.k


def degrees(K, k):
    return [i for i in range(-1, min(k, K.max_dim) + 1) if K.dim_size(i)]


def signed_permutation(K, j, p):
    """Reference: P e_s = (-1)^(inversions of p(s)) e_(sorted p(s)), from a
    dict of K's j-simplices, for the vertex map p."""
    rows = [tuple(r) for r in K.ids[j].tolist()]
    at = {r: i for i, r in enumerate(rows)}
    image, sign = [], []
    for r in rows:
        moved = [int(p[v]) for v in r]
        image.append(at[tuple(sorted(moved))])
        sign.append((-1) ** sum(a > b for a, b in combinations(moved, 2)))
    return scipy.sparse.csr_matrix((sign, (image, range(len(rows)))), shape=(len(rows),) * 2)


def generators(K):
    group = K._group
    return group[1 << np.arange(len(group).bit_length() - 1)]


def assert_blocks_hold(K, k):
    """The blocks of L_k add up to C^k; B has orthogonal integer columns of
    squared norm scale^-2; the slices B^T M_e B are exactly symmetric integers
    with nothing between characters; and every generator is an automorphism
    that commutes with each slice of d^{k-1}, d^k and L_k."""
    Bt, B, scale, sizes = spectra._symmetry_blocks(K, k)
    assert sizes.sum() == K.dim_size(k)
    g = K.graph
    for p in generators(K):
        assert (g.adjacency[np.ix_(p, p)] == g.adjacency).all()
        assert (np.array(g.exponents)[p] == g.exponents).all()
        for lo in (k - 1, k):
            d = coboundary(K, lo)
            if d.slices:
                P0, P1 = (signed_permutation(K, j, p) for j in (lo, lo + 1))
                assert all((P1 @ M - M @ P0).count_nonzero() == 0 for M in d.slices.values())
        P = signed_permutation(K, k, p)
        assert all((P @ M - M @ P).count_nonzero() == 0 for M in laplacian(K, k).slices.values())
    if Bt is None:
        return
    assert (abs(Bt).max() == 1) and (Bt != B.T).nnz == 0
    gram = (Bt @ B).toarray()
    assert np.array_equal(gram, np.diag(np.rint(scale ** -2.0)))
    character = np.repeat(np.arange(len(sizes)), sizes)
    for M in laplacian(K, k).slices.values():
        T = Bt @ M @ B
        assert np.issubdtype(T.dtype, np.integer) and (T != T.T).nnz == 0
        rows, cols = T.nonzero()
        assert (character[rows] == character[cols]).all()


def assert_union_is_whole(K, k, lam):
    """The union of the block spectra against the whole Laplacian's solve."""
    whole = laplacian(K, k).evaluate(lam)
    bound = K.dim_size(k) * EPS * float(abs(whole).sum(axis=1).max())
    got = join_spectrum([K], k, (lam,))[:, 0]
    assert np.abs(got - eigensolve(whole)).max() <= bound


# -- the groups and their blocks -----------------------------------------------------


@pytest.mark.parametrize("text,rank,sizes", [
    ('{"n":2,"terms":[{"support":[0,1],"amps":{"00":1,"11":-1}}]}', 2, [118, 142, 142, 166]),
    (HAMILTONIANS["h-2q-inconclusive"], 4, [36] * 4 + [104] * 4 + [272]),
])
def test_reduction_factor_blocks(text, rank, sizes):
    """The 2q YES and four-projector graphs split C^3 as measured."""
    (K,), k = reduction_factors(parse_hamiltonian(text))
    got = spectra._symmetry_blocks(K, k)[3]
    assert len(K._group) == 2**rank
    assert sorted(got[got > 0].tolist()) == sorted(sizes)
    assert_blocks_hold(K, k)
    for i in degrees(K, k)[1:]:
        assert_blocks_hold(K, i)


@pytest.mark.parametrize("name,k", [("gadget-0", 1), ("two-gadgets-1q", 2), ("qubit-2", 2),
                                    ("gadget-00-minus-11", 3), ("bowtie", 1)])
def test_fixture_blocks_hold_and_solve_as_the_whole(name, k):
    g = named_fixtures()[name]
    for F in factor_complexes(g, k):
        for i in degrees(F, k):
            assert_blocks_hold(F, i)
            for lam in (0.5, 0.1):
                assert_union_is_whole(F, i, lam)


def test_a_completion_that_is_no_automorphism_raises(monkeypatch):
    """A kept generator is checked on the graph: swapping the bowtie's x with
    a2 keeps neither the edges nor the exponents' pattern, and raises."""
    g = named_fixtures()["qubit-1"]
    x, a2 = g.ids([qubit_vertex(1, "x"), qubit_vertex(1, "a2")]).tolist()

    def wrong(graph, swap):
        p = np.arange(graph.n_vertices)
        p[[x, a2]] = a2, x
        return p

    monkeypatch.setattr(spectra, "_complete", wrong)
    with pytest.raises(HomologyLabError, match="non-automorphism"):
        spectrum(clique_complex(g, 2), 1, 0.5)


def test_a_generator_that_does_not_commute_raises(monkeypatch):
    """The exact commutation check on the coboundary slices is not skipped:
    signed images with one sign flipped fail it."""
    K = clique_complex(named_fixtures()["gadget-0"], 2)
    monkeypatch.setattr(spectra, "_signed_images", flipped_images(spectra._signed_images))
    for _ in range(2):  # nothing is memoized on the way to the error
        with pytest.raises(HomologyLabError, match="does not commute"):
            spectra._symmetry_blocks(K, 1)


def flipped_images(real):
    """``_signed_images`` with the sign of simplex 0's image flipped under
    every generator."""
    def flipped(K, j):
        idx, sign = real(K, j)
        sign = sign.copy()
        sign[:, 0] *= -1
        return idx, sign

    return flipped


def test_a_generator_that_does_not_commute_raises_on_the_decide_path(monkeypatch):
    """``decide``'s lambda_min splits the factor Laplacian through the same
    exact check, so the flipped sign raises there too."""
    monkeypatch.setattr(spectra, "_signed_images", flipped_images(spectra._signed_images))
    with pytest.raises(HomologyLabError, match="does not commute"):
        decide(parse_hamiltonian(HAMILTONIANS["h-1q-no"]))


def test_a_split_above_the_cap_is_neither_checked_nor_built(monkeypatch):
    """A block above DENSE_EIG_CAP is refused by the caller, so its split
    gets block sizes only: no commutation check and no B.  Gadget 0's C^1
    (24 simplices, a group of 4) has a block above 24 / 4."""
    g = named_fixtures()["gadget-0"]
    largest = spectra._symmetry_blocks(clique_complex(g, 2), 1)[3].max()
    K = clique_complex(g, 2)
    least = -(-K.dim_size(1) // 4)
    assert (K.dim_size(1), least) == (24, 6) and largest > least
    monkeypatch.setattr(spectra, "DENSE_EIG_CAP", least)
    monkeypatch.setattr(spectra, "_commutes", lambda *args: pytest.fail("checked"))
    Bt, B, scale, sizes = spectra._symmetry_blocks(K, 1)
    assert len(K._group) == 4 and Bt is None and B is None and scale is None
    assert sizes.max() == largest and sizes.sum() == K.dim_size(1)


def test_a_split_whose_least_largest_block_is_above_the_cap_takes_no_image(monkeypatch):
    """When dim C^k / |G| is above DENSE_EIG_CAP, no character's block can be
    below it: the split is refused before the simplices' images are taken,
    and the refusal names that bound."""
    K = clique_complex(named_fixtures()["gadget-0"], 2)
    monkeypatch.setattr(spectra, "DENSE_EIG_CAP", 5)
    monkeypatch.setattr(spectra, "_signed_images", lambda *args: pytest.fail("imaged"))
    assert spectra._symmetry_blocks(K, 1)[3].tolist() == [6]
    with pytest.raises(DimensionError, match="of dimension at least 6, above the dense cap"):
        spectrum(K, 1, 0.3)


def test_qubit_loop_ends_of_different_exponents_keep_the_whole_solve():
    """A swap of q0.a3 and q0.a4 is no automorphism when their exponents
    differ: refinement drops it, nothing raises, and spectrum is the whole
    solve's."""
    g = parse_graph('{"vertices":[{"id":"q0.a3","w":0},{"id":"q0.a4","w":1}],"edges":[]}')
    K = clique_complex(g, 1)
    assert len(spectra._loop_group(g)) == 1 and spectra._symmetry_blocks(K, 0)[0] is None
    rep = spectrum(K, 0, 0.5)
    assert np.array_equal(rep.eigenvalues, eigensolve(laplacian(K, 0).evaluate(0.5)))
    assert rep.eigenvalues.tolist() == [0.0, 1.25]


def test_graphs_without_qubit_loops_keep_the_whole_solve():
    """Hexagon and seeded label-free graphs: a trivial group, so spectrum and
    sweep are the whole solve's bits."""
    cases = [(hexagon(), 1)] + [(g, 1) for g in seeded_graphs(8, 9, wmax=1)]
    cases += [(named_fixtures()["octahedron-3"], 1)]  # q-labelled, but with no loops
    for g, k in cases:
        K = clique_complex(g, k + 1)
        Ks = spectra._join_complexes(K, k)
        assert all(spectra._symmetry_blocks(F, i)[0] is None for F in Ks for i in degrees(F, k))
        if len(join_factors(g)) > 1 or not K.dim_size(k):
            continue
        L = laplacian(K, k)
        assert np.array_equal(spectrum(K, k, 0.3).eigenvalues, eigensolve(L.evaluate(0.3)))
        whole = np.stack([eigensolve(L.evaluate(lam)) for lam in DEFAULT_GRID], axis=1)
        assert np.array_equal(sweep(K, k).trajectories, whole)


def test_only_equal_factors_share_a_solve():
    """Equal join factors (same exponents and adjacency) share one complex
    and one solve; a path and four points, with equal exponents, do not."""
    path = unweighted("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    points = unweighted("abcd")
    K = clique_complex(join_all([path, points, points]), 4)
    Ks = spectra._join_complexes(K, 3)
    assert len(Ks) == 3 and Ks[1] is Ks[2] and Ks[0] is not Ks[1]
    whole = laplacian(K, 3).evaluate(0.5)
    bound = K.dim_size(3) * EPS * float(abs(whole).sum(axis=1).max())
    assert np.abs(spectrum(K, 3, 0.5).eigenvalues - eigensolve(whole)).max() <= bound


# -- random reduction factors ------------------------------------------------------------


@st.composite
def flip_closed_projectors(draw):
    """2q basis projectors on (0, 1), a set closed under one bit-flip mask."""
    mask = draw(st.sampled_from((1, 2, 3)))
    orbits = {tuple(sorted((z, z ^ mask))) for z in range(4)}
    chosen = draw(st.lists(st.sampled_from(sorted(orbits)), min_size=1, max_size=2, unique=True))
    states = sorted({z for orbit in chosen for z in orbit})
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(states), max_size=len(states)))
    return hamiltonian(2, [((0, 1), {format(z, "02b"): s}) for z, s in zip(states, signs)])


@st.composite
def native_hamiltonians(draw):
    """1 or 2 qubits, 1 to 3 terms: 1q basis projectors and 2q terms of one
    or two amplitudes."""
    n = draw(st.sampled_from((1, 2)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from((1, 2) if n == 2 else (1,)))
        support = (draw(st.integers(0, n - 1)),) if m == 1 else (0, 1)
        zs = draw(st.lists(st.sampled_from(BITS[m]), min_size=1, max_size=m, unique=True))
        terms.append((support, {z: draw(st.sampled_from((1, -1, 2))) for z in zs}))
    return hamiltonian(n, terms)


def assert_factors_split_right(H):
    Ks, k = reduction_factors(H)
    for K in {id(K): K for K in Ks}.values():
        for i in degrees(K, k)[-2:]:
            assert_blocks_hold(K, i)
            assert_union_is_whole(K, i, 0.1)


@settings(max_examples=8)
@given(flip_closed_projectors())
def test_flip_closed_projectors_split_right(H):
    assert_factors_split_right(H)


@settings(max_examples=10)
@given(native_hamiltonians())
def test_native_reduction_factors_split_right(H):
    assert_factors_split_right(H)


# -- the unfactorable 3q NO ----------------------------------------------------------------


def test_unfactorable_3q_no_blocks_agree_with_the_shift_invert_lambda_min():
    """One join factor with dim C^5 = 7,344, above DENSE_EIG_CAP: its rank-6
    group splits C^5 into 27 blocks of at most 1,220, and the least of their
    eigenvalues at the scheduled lambda = 1/30 is decide's shift-invert
    lambda_min within n eps ||L||_inf."""
    H = parse_hamiltonian(HAMILTONIANS["h-3q-no-unfactorable"])
    res = reduce_hamiltonian(H)
    K = clique_complex(res.graph, res.k + 1)
    sizes = spectra._symmetry_blocks(K, res.k)[3]
    assert (res.k, K.dim_size(res.k), len(K._group)) == (5, 7344, 64)
    assert (np.count_nonzero(sizes), sizes.max()) == (27, 1220)
    decision = decide(H)
    assert decision.answer == "NO" and decision.schedule.lam == pytest.approx(1 / 30)
    lam = decision.schedule.lam
    norm = float(abs(laplacian(K, res.k).evaluate(lam)).sum(axis=1).max())
    got = spectrum(K, res.k, lam).lambda_min
    assert abs(got - decision.lam_min) <= K.dim_size(res.k) * EPS * norm


# -- lambda_min on the blocks ------------------------------------------------------------


def assert_asked_lambda_mins_are_whole(H):
    """H is not YES, and every factor lambda_min that ``decide`` asks (0.0
    where the factor's Betti number is positive) is the least eigenvalue of
    the whole evaluated Laplacian within n eps ||L||_inf; at least one of
    them is solved on blocks."""
    asked, real = [], spectra.lambda_min

    def recording(K, i, lam):
        asked.append((K, i, lam, real(K, i, lam)))
        return asked[-1][-1]

    with mock.patch.object(spectra, "lambda_min", recording):
        assert decide(H).answer != "YES"
    assert any(spectra._symmetry_blocks(K, i)[0] is not None for K, i, _, _ in asked)
    for K, i, lam, got in asked:
        if betti(K, i):
            assert got == 0.0
            continue
        whole = laplacian(K, i).evaluate(lam)
        bound = K.dim_size(i) * EPS * float(abs(whole).sum(axis=1).max())
        assert abs(got - eigensolve(whole, 1)[0]) <= bound, (K.graph.n_vertices, i, got)


@st.composite
def no_hamiltonians(draw):
    """1 or 2 qubits of native basis projectors that leave no basis state at
    energy 0, so never YES: on one qubit |0> and |1>; on two, at most two
    drawn 1q projectors, then 2q projectors on (0, 1) onto every basis
    state they leave and perhaps one more.  The 2q sets come out
    flip-closed (all four, or the two that one 1q projector leaves) or not."""
    amp = st.sampled_from((1, -1, 2))
    n = draw(st.sampled_from((1, 2)))
    if n == 1:
        return hamiltonian(1, [((0,), {z: draw(amp)}) for z in BITS[1]])
    ones = draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(BITS[1])),
                         max_size=2, unique=True))
    left = {z for z in BITS[2] if not any(z[q] == b for q, b in ones)}
    twos = sorted(left | set(draw(st.lists(st.sampled_from(BITS[2]), max_size=1))))
    terms = [((q,), {b: draw(amp)}) for q, b in ones] + [((0, 1), {z: draw(amp)}) for z in twos]
    return hamiltonian(2, terms)


@settings(max_examples=10, deadline=None)
@given(no_hamiltonians())
def test_block_lambda_min_is_the_whole_solve_on_random_no_hamiltonians(H):
    assert_asked_lambda_mins_are_whole(H)


@pytest.mark.parametrize("name", ["h-1q-no", "h-3q-no", "h-3q-no-unfactorable"])
def test_block_lambda_min_is_the_whole_solve_on_the_no_goldens(name):
    """The unfactorable factor's whole L_5 (7,344 rows) is solved by
    shift-invert, its blocks (at most 1,220) by shift-invert on the
    block-diagonal matrix."""
    assert_asked_lambda_mins_are_whole(parse_hamiltonian(HAMILTONIANS[name]))
