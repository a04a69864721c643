from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homology_lab.complexes import clique_complex
from homology_lab.errors import DimensionError
from homology_lab.fixtures import gadget_graph
from homology_lab.gadgets import IntegerState
from homology_lab.graph import (
    bowtie,
    make_graph,
    octahedron,
    qubit_graph,
    relabel,
    thicken,
    unweighted,
)
from homology_lab.homology import (
    betti,
    betti_table,
    coboundary_pairs,
    coboundary_rank,
    eigensolve,
    euler_characteristic,
    exact_columns,
    harmonic_basis,
    join_betti,
)
from homology_lab.operators import coboundary

from conftest import (
    assert_builds_only_what_it_reads,
    boundary_side_pairs,
    boundary_side_rank,
    built,
    complete_graph,
    dense_rank,
    graphs,
    pair_list,
    seeded_graphs,
)
from reference import (
    NotACycleError,
    basis_chain,
    chain_vector,
    cycle_is_boundary,
    is_cycle,
    join,
    simplices,
)

K3 = complete_graph(["a", "b", "c"])


def float_rank_betti(K, k):
    """Independent oracle: numeric SVD ranks of the coboundary maps."""
    def rank(mat):
        if mat.rows == 0 or mat.cols == 0 or not mat.slices:
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


def _dict_columns(cols):
    return [cols[j] for j in range(len(cols))]


def test_coboundary_rank_reduces_the_columns_last_first(monkeypatch):
    """Ranking d^k ranks the degrees below it first, bottom-up, and the
    columns of d^k go to the shared pairing's reduction in descending
    (level, index), their rows the cofaces numbered in ascending (level,
    index), less the columns at the cofaces of d^{k-1}'s pairs."""
    import homology_lab.rational as rational

    seen = []
    real = rational.reduce_columns

    def spy(cols):
        seen.append(_dict_columns(cols))
        return real(cols)

    monkeypatch.setattr(rational, "reduce_columns", spy)
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1, "1": -1}))
    reordered = 0  # degrees whose level order is not their index order
    for k in range(-1, 2):
        K = clique_complex(g, 3)  # a fresh complex: no cached rank
        seen.clear()
        rank = coboundary_rank(K, k)
        rows = coboundary(K, k).int_rows_at_one()
        cols = [{} for _ in range(K.dim_size(k))]
        for r, row in rows.items():
            for c, v in row.items():
                cols[c][r] = v
        lo, hi = K.levels[k].tolist(), K.levels[k + 1].tolist()
        order = sorted(range(len(lo)), key=lambda c: (lo[c], c), reverse=True)
        number = {r: i for i, r in enumerate(sorted(range(len(hi)), key=lambda r: (hi[r], r)))}
        cleared = set(coboundary_pairs(K, k - 1)[1].tolist())
        assert len(seen) == k + 2 and len(cleared) == coboundary_rank(K, k - 1)
        reordered += order != sorted(order, reverse=True)
        want = [{number[r]: v for r, v in cols[c].items()} for c in order if c not in cleared]
        assert seen[-1] == want
        assert rank == dense_rank(rows.values()) > 0
    assert reordered


@pytest.fixture
def received(monkeypatch):
    """The number of columns each ``reduce_columns`` call receives, in order."""
    import homology_lab.rational as rational

    counts = []
    real = rational.reduce_columns

    def spy(cols):
        counts.append(len(cols))
        return real(cols)

    monkeypatch.setattr(rational, "reduce_columns", spy)
    return counts


CLEARING_CASES = [
    octahedron(3),
    gadget_graph(IntegerState.from_dict(1, {"0": 1, "1": -1})),
    *seeded_graphs(12, 8, seed=31),
]


def test_a_ranked_degree_clears_the_columns_of_the_next(received):
    """After d^{k-1} is ranked, d^k's reduction receives C^k - rank d^{k-1}
    columns: those at the k-simplices that d^{k-1}'s reduction took as
    pivots are left out."""
    cleared = 0
    for g in CLEARING_CASES:
        K = clique_complex(g, g.n_vertices)
        for k in range(0, K.max_dim):
            rank = coboundary_rank(K, k - 1)
            received.clear()
            coboundary_rank(K, k)
            assert received == ([K.dim_size(k) - rank] if K.dim_size(k) else [])
            cleared += rank
    assert cleared > 0


def test_betti_table_ranks_bottom_up_and_clears_each_degree(received):
    """betti_table hands each degree's reduction the columns the degree
    below left, and ranks each coboundary once."""
    for g in CLEARING_CASES:
        K = clique_complex(g, g.n_vertices)
        received.clear()
        table = betti_table([K])
        rank = dict(zip(table.ks, table.coboundary_ranks))
        want = [K.dim_size(k) - rank.get(k - 1, 0) for k in table.ks if K.dim_size(k)]
        assert received == want


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=8, wmax=2))
def test_ranks_and_pairs_equal_the_homology_direction_reference(g):
    """Cleared cohomology-direction ranks in every degree and the pairs of
    the filtration equal the uncleared homology-direction reference, whether
    the ranks are asked before a filtration of the complex or after it, or
    of a complex built only to k + 1, as ``decide`` builds its factors; the
    weights go up to 2, so level order is not index order.  Every reduction
    builds dicts only for columns that are not apparent and the apparent
    columns they collide with, and of those only for the ones an addition
    touches."""
    import homology_lab.rational as rational
    from homology_lab.specseq import filtration

    calls = []
    real = rational.reduce_columns

    def spy(cols):
        out = real(cols)
        calls.append((_dict_columns(cols), out[1]))
        return out

    K, L = (clique_complex(g, g.n_vertices - 1) for _ in range(2))
    ks = range(-1, K.max_dim)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rational, "reduce_columns", spy)
        table = betti_table([K])  # ranks first
        filtration(K)
        filtration(L)  # the filtration first
        later = betti_table([L])
        truncated = {k: clique_complex(g, k + 1) for k in ks}
        short = {k: (coboundary_rank(T, k), coboundary_pairs(T, k)) for k, T in truncated.items()}
    ranks = dict(zip(table.ks, table.coboundary_ranks))
    assert later == table
    for k in ks:
        want = boundary_side_pairs(K, k)
        assert ranks[k] == boundary_side_rank(K, k) == len(want), k
        assert set(pair_list(K, k)) == set(pair_list(L, k)) == want, k
        rank, (s, t) = short[k]
        assert rank == ranks[k] and set(zip(s.tolist(), t.tolist())) == want, k
    assert calls
    for cols, built_dicts in calls:
        assert_builds_only_what_it_reads(cols, built_dicts)


@settings(max_examples=80, deadline=None)
@given(graphs(max_vertices=8, wmax=2), st.data())
def test_facet_array_columns_are_the_transpose_of_the_coboundary_rows(g, data):
    """Both layouts of ``exact_columns`` hold the entries of
    ``coboundary(K, k).int_rows_at_one()``, an independent path through the
    exponent slices: the boundary layout is its rows, and the coboundary layout
    at the k-simplices in descending (level, index) is its columns, each
    coface numbered by its place in ascending (level, index).  On a
    truncated complex d^{max_dim} needs the degree above and raises, in
    both layouts and in the pairing."""
    max_dim = data.draw(st.integers(0, g.n_vertices), label="max_dim")
    K = clique_complex(g, max_dim)
    for k in range(-1, max_dim + 1):
        if k == max_dim and not K.complete:
            with pytest.raises(DimensionError):
                exact_columns(K, k)
            with pytest.raises(DimensionError):
                exact_columns(K, k, np.arange(K.dim_size(k)))
            with pytest.raises(DimensionError):
                coboundary_pairs(K, k)
            continue
        rows = coboundary(K, k).int_rows_at_one()
        m = K.dim_size(k + 1)
        got = exact_columns(K, k)
        assert [got[i] for i in range(len(got))] == [rows[i] for i in range(m)]
        key = {d: [(int(level), i) for i, level in enumerate(K.levels.get(d, ()))] for d in (k, k + 1)}
        down = sorted(range(K.dim_size(k)), key=key[k].__getitem__, reverse=True)
        number = {i: n for n, i in enumerate(sorted(range(m), key=key[k + 1].__getitem__))}
        want = [{} for _ in down]
        place = {j: c for c, j in enumerate(down)}
        for i, row in rows.items():
            for j, v in row.items():
                want[place[j]][number[i]] = v
        got = exact_columns(K, k, np.array(down, dtype=np.int64))
        assert [got[c] for c in range(len(got))] == want


@st.composite
def complexes_and_asks(draw):
    """A complex of a drawn graph and a shuffled list of (betti or rank, k) asks."""
    g = draw(graphs(max_vertices=8))
    ks = range(-1, g.n_vertices)
    asks = draw(st.permutations([(what, k) for what in ("betti", "rank") for k in ks]))
    return g, asks


@settings(max_examples=80, deadline=None)
@given(complexes_and_asks())
@example((octahedron(4), [("rank", k) for k in range(7, -2, -1)] + [("betti", 3)]))
def test_cleared_ranks_equal_uncleared_ranks_in_any_degree_order(case):
    """Whatever the complex has ranked before clears the next rank; each
    answer equals an uncleared rank (a fresh complex), the dense oracle, and
    the brute-force Betti number."""
    g, asks = case
    K = clique_complex(g, g.n_vertices)
    oracle = brute_force_betti(g)
    for what, k in asks:
        fresh = clique_complex(g, g.n_vertices)
        if what == "rank":
            rows = coboundary(fresh, k).int_rows_at_one().values()
            assert coboundary_rank(K, k) == coboundary_rank(fresh, k) == dense_rank(rows)
        else:
            assert betti(K, k) == oracle[k]


def brute_force_betti(g) -> dict[int, int]:
    """Reduced Betti numbers over Q from every vertex subset of the graph.

    An oracle that uses nothing from complexes, operators or rational: a
    clique is a vertex subset whose pairs are all edges, the boundary of a
    sorted clique drops each vertex in turn with sign (-1)^position, the
    empty clique is the one (-1)-simplex, and ranks come from dense_rank.
    """
    def is_clique(c):
        return all(e in g.edges for e in combinations(c, 2))

    dims = range(-1, g.n_vertices)
    cliques = {d: [c for c in combinations(g.vertices, d + 1) if is_clique(c)] for d in dims}
    index = {d: {c: i for i, c in enumerate(cs)} for d, cs in cliques.items()}

    def boundary_rank(d):  # of boundary: C_d -> C_{d-1}
        if d <= -1 or d >= g.n_vertices:
            return 0
        faces = index[d - 1]
        return dense_rank(
            {faces[c[:i] + c[i + 1 :]]: (-1) ** i for i in range(len(c))} for c in cliques[d]
        )

    return {d: len(cliques[d]) - boundary_rank(d) - boundary_rank(d + 1) for d in dims}


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=8))
@example(octahedron(3))  # betti_2 = 1
@example(octahedron(4))  # betti_3 = 1, 8 vertices
def test_betti_table_matches_brute_force(g):
    table = betti_table([clique_complex(g, g.n_vertices)])
    oracle = brute_force_betti(g)
    assert table.as_dict() == {k: oracle[k] for k in table.ks}
    assert all(b == 0 for k, b in oracle.items() if k not in table.ks)


def test_unreduced_betti_zero_dimension():
    g = unweighted(["a", "b"], [])
    K = built(g, 1)
    assert betti(K, 0) == join_betti([K], 0) == 1  # two components, reduced
    assert join_betti([K], 0, reduced=False) == 2


def test_euler_characteristic_point():
    K = built(unweighted(["p"]), 1)
    chi = euler_characteristic([K])
    assert chi.unreduced == 1 and chi.reduced == 0


def test_euler_characteristic_octahedron_sphere():
    chi = euler_characteristic([built(octahedron(3), 4)])
    assert chi.unreduced == 2


def test_euler_refuses_truncated_complex():
    K = built(octahedron(3), 2)  # has 2-simplices at the cap
    with pytest.raises(DimensionError):
        euler_characteristic([K])


def test_witten_index_of_single_gadget():
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    assert abs(euler_characteristic([built(g, 3)]).reduced) == 1


def test_euler_rank_nullity_consistency():
    for g in seeded_graphs(10, 7, wmax=1, seed=3):
        K = clique_complex(g, g.n_vertices)
        chi = euler_characteristic([K])
        alt = sum((-1) ** k * betti(K, k) for k in range(0, K.max_dim))
        assert alt - betti(K, -1) == chi.reduced


def test_weights_do_not_change_betti():
    for g in seeded_graphs(10, 7, wmax=1, seed=13):
        K = clique_complex(g, min(g.n_vertices, 6))
        K0 = clique_complex(make_graph({v: 0 for v in g.vertices}, g.edges), K.max_dim)
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
            chain_vector(K, 1, basis_chain(K, z))
            for z in ("0", "1")
        ],
        axis=1,
    )
    overlap = loops.T @ hb.basis
    assert np.linalg.matrix_rank(overlap, tol=1e-8) == 2


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
    tri = simplices(K, 2)[0]
    cyc = {}
    for i, v in enumerate(tri):
        face = tri[:i] + tri[i + 1 :]
        cyc[face] = Fraction((-1) ** i)
    ok, witness = cycle_is_boundary(K, cyc, 1)
    assert ok
    assert witness == {tri: Fraction(1)}
    # the empty chain is the boundary of the empty chain
    assert cycle_is_boundary(K, {}) == (True, {})


def test_cycle_is_boundary_follows_the_package_truncation_rule():
    # complete at degree 2: d^2 has no rows, and the zero chain bounds
    assert cycle_is_boundary(built(K3, 2), {("a", "b", "c"): 0}, 2) == (True, {})
    # the tetrahedron built to degree 2 is truncated below its 3-simplex
    tetra = ("a", "b", "c", "d")
    sphere = {tetra[:i] + tetra[i + 1 :]: (-1) ** i for i in range(4)}
    with pytest.raises(DimensionError, match="needs the complex built to 3"):
        cycle_is_boundary(built(complete_graph(tetra), 2), sphere, 2)
    assert cycle_is_boundary(built(complete_graph(tetra), 3), sphere, 2) == (True, {tetra: 1})


def test_bowtie_loop_is_not_boundary():
    K = built(qubit_graph(1), 2)
    ok, witness = cycle_is_boundary(K, basis_chain(K, "0"), 1)
    assert not ok and witness is None


def test_non_cycle_is_rejected():
    K = built(bowtie(), 2)
    edge = simplices(K, 1)[0]
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


def test_a_dense_eigensolve_holds_one_copy_of_the_matrix():
    """eigensolve hands LAPACK the dense block to overwrite: solving an
    800-row path Laplacian (one block) peaks near one n x n float buffer,
    two with eigenvectors, and gives what eigvalsh and eigh give on a copy."""
    import tracemalloc

    import scipy.linalg
    import scipy.sparse

    n = 800
    diagonal = np.full(n, 2.0)
    diagonal[[0, -1]] = 1.0
    off = -np.ones(n - 1)
    L = scipy.sparse.diags([off, diagonal, off], [-1, 0, 1], format="csr")
    eigensolve(L)  # imports and first-call set-up are not counted
    peaks = {}
    for vectors in (False, True):
        tracemalloc.start()
        eigensolve(L, vectors=vectors)
        peaks[vectors] = tracemalloc.get_traced_memory()[1] / (n * n * 8)
        tracemalloc.stop()
    assert 1 <= peaks[False] < 1.5 and 2 <= peaks[True] < 2.5
    dense = L.toarray()
    assert np.array_equal(eigensolve(L), np.clip(scipy.linalg.eigvalsh(dense.copy()), 0, None))
    vals, vecs = scipy.linalg.eigh(dense.copy())
    got = eigensolve(L, vectors=True)
    assert np.array_equal(got[0], np.clip(vals, 0, None)) and np.array_equal(got[1], vecs)
