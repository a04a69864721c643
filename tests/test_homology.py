from fractions import Fraction

import numpy as np
import pytest

from homology_lab.complexes import clique_complex
from homology_lab.errors import DimensionError, NotACycleError
from homology_lab.fixtures import gadget_graph
from homology_lab.gadgets import IntegerState, basis_chain
from homology_lab.graph import (
    bowtie,
    complement,
    join,
    make_graph,
    octahedron,
    qubit_graph,
    relabel,
    thicken,
    unweighted,
    zero_weights,
)
from homology_lab.homology import (
    betti,
    betti_table,
    coboundary_rank,
    cycle_is_boundary,
    euler_characteristic,
    harmonic_basis,
    is_cycle,
    witten_index,
)
from homology_lab.operators import boundary, coboundary

from conftest import built, seeded_graphs

K3 = complement(unweighted(["a", "b", "c"]))


def float_rank_betti(K, k):
    """Independent oracle: numeric SVD ranks of the coboundary maps."""
    def rank(mat):
        if mat.rows == 0 or mat.cols == 0 or mat.is_zero():
            return 0
        return np.linalg.matrix_rank(mat.evaluate_dense(1.0))

    return K.dim_size(k) - rank(coboundary(K, k)) - rank(coboundary(K, k - 1))


def test_bowtie_betti():
    K = built(bowtie(), 2)
    assert betti(K, 1) == 2
    assert betti(K, 0) == 0


def test_octahedra_betti():
    for n in range(1, 6):
        K = built(octahedron(n), n)
        for k in range(-1, n):
            assert betti(K, k) == (1 if k == n - 1 else 0)


def test_qubit_graph_2_betti_and_chain_dim():
    K = built(qubit_graph(2), 4)
    assert K.dim_size(3) == 64
    assert betti(K, 3) == 4


def test_exact_ranks_match_float_oracle():
    for g in seeded_graphs(20, 8, wmax=1, seed=77):
        K = clique_complex(g, min(g.n_vertices, 6))
        for k in range(-1, K.max_dim):
            assert betti(K, k) == float_rank_betti(K, k)


def test_unreduced_betti_zero_dimension():
    g = unweighted(["a", "b"], [])
    K = built(g, 1)
    assert betti(K, 0, reduced=True) == 1  # two components, reduced
    assert betti(K, 0, reduced=False) == 2


def test_euler_characteristic_point():
    K = built(unweighted(["p"]), 1)
    chi = euler_characteristic(K)
    assert chi.unreduced == 1 and chi.reduced == 0


def test_euler_characteristic_octahedron_sphere():
    chi = euler_characteristic(built(octahedron(3), 4))
    assert chi.unreduced == 2


def test_euler_refuses_truncated_complex():
    K = built(octahedron(3), 2)  # has 2-simplices at the cap
    with pytest.raises(DimensionError):
        euler_characteristic(K)


def test_witten_index_of_single_gadget():
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    assert witten_index(built(g, 3)) == 1


def test_euler_rank_nullity_consistency():
    for g in seeded_graphs(10, 7, wmax=1, seed=3):
        K = clique_complex(g, g.n_vertices)
        chi = euler_characteristic(K)
        alt = sum((-1) ** k * betti(K, k) for k in range(0, K.max_dim))
        assert alt - betti(K, -1) == chi.reduced


def test_weights_do_not_change_betti():
    for g in seeded_graphs(10, 7, wmax=1, seed=13):
        K = clique_complex(g, min(g.n_vertices, 6))
        K0 = clique_complex(zero_weights(g), K.max_dim)
        for k in range(-1, K.max_dim):
            assert betti(K, k) == betti(K0, k)


def test_kunneth_betti_on_joins():
    pairs = [(bowtie(), bowtie()), (octahedron(2), octahedron(3)), (bowtie(), octahedron(2))]
    for a, b in pairs:
        ga = relabel(a, {v: f"L.{v}" for v in a.vertices})
        gb = relabel(b, {v: f"R.{v}" for v in b.vertices})
        KJ = clique_complex(join(ga, gb), 6)
        KA = clique_complex(ga, 4)
        KB = clique_complex(gb, 4)

        def bet(K, k):
            return betti(K, k) if -1 <= k < K.max_dim else 0

        for k in range(-1, 6):
            expect = sum(bet(KA, i) * bet(KB, k - 1 - i) for i in range(-1, k + 1))
            assert bet(KJ, k) == expect


def test_thicken_preserves_betti():
    cases = [octahedron(2), octahedron(3), bowtie()] + seeded_graphs(20, 8, seed=99)
    for g in cases:
        K = clique_complex(g, g.n_vertices)
        T = clique_complex(thicken(g), 2 * g.n_vertices)
        ks = range(-1, max(K.max_dim, T.max_dim))

        def bet(K_, k):
            return betti(K_, k) if k < K_.max_dim else 0

        for k in ks:
            assert bet(K, k) == bet(T, k)


def test_harmonic_basis_of_bowtie_spans_loops():
    K = built(qubit_graph(1), 2)
    hb = harmonic_basis(K, 1, lam=1.0)
    assert hb.dimension == 2
    loops = np.stack(
        [
            _chain_vec(K, 1, basis_chain(K, z))
            for z in ("0", "1")
        ],
        axis=1,
    )
    overlap = loops.T @ hb.basis
    assert np.linalg.matrix_rank(overlap, tol=1e-8) == 2


def _chain_vec(K, k, chain):
    v = np.zeros(K.dim_size(k))
    for s, c in chain.items():
        v[K.index[k][s]] = float(c)
    return v


def test_harmonic_basis_of_triangle_is_empty():
    assert harmonic_basis(built(K3, 2), 1).dimension == 0


def test_harmonic_count_matches_betti_on_randoms():
    for g in seeded_graphs(20, 7, wmax=1, seed=5):
        K = clique_complex(g, min(g.n_vertices, 5))
        for k in range(0, min(2, K.max_dim - 1) + 1):
            if K.dim_size(k) == 0:
                continue
            hb = harmonic_basis(K, k, lam=0.5)
            assert hb.dimension == betti(K, k)


def test_cycle_is_boundary_in_triangle():
    K = built(K3, 2)
    tri = K.simplices(2)[0]
    cyc = {}
    for i, v in enumerate(tri):
        face = tri[:i] + tri[i + 1 :]
        cyc[face] = Fraction((-1) ** i)
    ok, witness = cycle_is_boundary(K, cyc, 1)
    assert ok
    assert witness == {tri: Fraction(1)}


def test_bowtie_loop_is_not_boundary():
    K = built(qubit_graph(1), 2)
    ok, witness = cycle_is_boundary(K, basis_chain(K, "0"), 1)
    assert not ok and witness is None


def test_non_cycle_is_rejected():
    K = built(bowtie(), 2)
    edge = K.simplices(1)[0]
    with pytest.raises(NotACycleError):
        cycle_is_boundary(K, {edge: Fraction(1)}, 1)


def test_foreign_simplex_is_dimension_error():
    K = built(bowtie(), 2)
    foreign = {("zz", "a"): Fraction(1)}
    with pytest.raises(DimensionError):
        is_cycle(K, foreign, 1)
    with pytest.raises(DimensionError):
        cycle_is_boundary(K, foreign, 1)
    with pytest.raises(DimensionError):
        is_cycle(K, {("a2", "a3", "a4", "x"): Fraction(1)})  # above max_dim


def test_filled_loop_becomes_boundary_in_gadget_complex():
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 3)
    ok, witness = cycle_is_boundary(K, basis_chain(K, "0"), 1)
    assert ok and witness
    # the untouched basis cycle stays non-bounding
    ok1, _ = cycle_is_boundary(K, basis_chain(K, "1"), 1)
    assert not ok1
