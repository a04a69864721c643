from hypothesis import given, settings

from homology_lab.complexes import clique_complex
from homology_lab.fixtures import gadget_graph, hexagon, named_fixtures
from homology_lab.gadgets import IntegerState
from homology_lab.graph import bowtie, octahedron
from homology_lab.homology import betti, betti_table, coboundary_rank
from homology_lab.operators import coboundary
from homology_lab.specseq import filtration, forman_compare, page_dims, stabilized_dims

from conftest import (
    boundary_side_pairs,
    built,
    dense_rank,
    graphs,
    pair_list,
    reference_reduce,
    seeded_graphs,
)
from reference import simplices


def _exponent_sum(K, s):
    """A simplex's weight level, summed from the graph: the tests' oracle."""
    return sum(K.graph.exponent(v) for v in s)


def test_trivial_filtration_on_unweighted_complex():
    F = filtration(built(bowtie(), 3))
    page0 = page_dims(F, 0)
    for k in range(-1, 2):
        assert F.lmax[k] == 0
        assert page0.dims[(k, 0)] == F.K.dim_size(k)


def test_hexagon_filtration_truncation():
    K = built(hexagon(), 3)
    F = filtration(K)
    assert F.lmax[2] == 3  # central triangles carry three gadget vertices
    assert F.lmax[1] == 2
    assert F.lmax[0] == 1
    assert max(_exponent_sum(K, s) for s in simplices(K, 2)) == 3


def test_one_qubit_gadget_has_top_filtration_level():
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 3)
    F = filtration(K)
    # triangles on three gadget vertices exist (center + inner edge)
    assert any(_exponent_sum(K, s) >= 3 for s in simplices(K, 2))
    assert F.lmax[2] >= 3


def test_page0_counts_exact_exponents():
    for g in seeded_graphs(6, 6, wmax=1, seed=8):
        K = clique_complex(g, g.n_vertices)
        F = filtration(K)
        page0 = page_dims(F, 0)
        for k in range(-1, K.max_dim + 1):
            for l in range(0, F.lmax[k] + 1):
                exact = sum(1 for s in simplices(K, k) if _exponent_sum(K, s) == l)
                assert page0.dims.get((k, l), 0) == exact


HEX_PAGES = {
    0: {(-1, 0): 1, (0, 0): 6, (0, 1): 7, (1, 0): 6, (1, 1): 12, (1, 2): 12,
        (2, 1): 6, (2, 2): 6, (2, 3): 6},
    1: {(0, 1): 1, (1, 0): 1, (1, 2): 6, (2, 3): 6},
    2: {(1, 0): 1, (2, 3): 1},
    3: {(1, 0): 1, (2, 3): 1},
    4: {},
}


def test_hexagon_pages_match_published_tables():
    F = filtration(built(hexagon(), 3))
    for j, want in HEX_PAGES.items():
        page = page_dims(F, j)
        nonzero = {(k, l): d for (k, l), d in page.dims.items() if d}
        assert nonzero == want, f"page {j}"


def test_hexagon_page3_equals_page2_and_page4_empty():
    F = filtration(built(hexagon(), 3))
    p2 = {kl: d for kl, d in page_dims(F, 2).dims.items() if d}
    p3 = {kl: d for kl, d in page_dims(F, 3).dims.items() if d}
    p4 = {kl: d for kl, d in page_dims(F, 4).dims.items() if d}
    assert p2 == p3
    assert p4 == {}


def test_hexagon_stabilization():
    F = filtration(built(hexagon(), 3))
    rep = stabilized_dims(F, 1)
    assert rep.betti == 0
    assert rep.stabilization_page == 4
    assert rep.per_page[1] == 7
    assert rep.per_page[2] == 1
    assert rep.per_page[3] == 1
    assert rep.per_page[4] == 0


def test_zero_gadget_stabilization_follows_ladder():
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 3)
    F = filtration(K)
    rep = stabilized_dims(F, 1)
    # page 1 is homology plus bulk; pages 2..2m+1 the full qubit space;
    # from page 2m+2 = 4 only the unfilled state survives
    assert rep.per_page[1] == 2 + 4
    assert rep.per_page[2] == 2
    assert rep.per_page[3] == 2
    assert rep.per_page[4] == 1
    assert rep.stabilization_page == 4
    assert rep.betti == 1


def test_unweighted_complex_stabilizes_at_page_one():
    K = built(bowtie(), 3)
    rep = stabilized_dims(filtration(K), 1)
    assert rep.stabilization_page == 1
    assert rep.betti == 2


def searched_stabilization(F, k):
    """Reference: page totals run from page 0 until two consecutive ones
    equal the Betti number, within a bound on the pages; None past it."""
    target = betti(F.K, k)
    last = max(F.lmax.values(), default=0) + F.kmax + 3
    per_page, prev = {}, None
    for j in range(last + 1):
        per_page[j] = sum(F.e_dim(k, l, j) for l in range(F.lmax[k] + 1))
        if per_page[j] == prev == target:
            return per_page, j - 1, target
        prev = per_page[j]
    return None


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=7, wmax=2))
def test_stabilization_page_matches_the_page_search(g):
    F = filtration(clique_complex(g, g.n_vertices))
    for k in range(-1, F.kmax + 1):
        rep = stabilized_dims(F, k)
        assert (rep.per_page, rep.stabilization_page, rep.betti) == searched_stabilization(F, k)


def test_forman_on_hexagon():
    rep = forman_compare(built(hexagon(), 3), 1)
    assert rep.ok
    got = {r.j: (r.algebraic_dim, r.branch_count) for r in rep.rows}
    assert got[1] == (7, 7)
    assert got[2] == (1, 1)
    assert got[3] == (1, 1)
    assert got[4] == (0, 0)


def test_forman_on_one_qubit_gadgets():
    for amps in ({"0": 1}, {"0": 1, "1": -1}):
        g = gadget_graph(IntegerState.from_dict(1, amps))
        rep = forman_compare(built(g, 3), 1)
        assert rep.ok, amps
        # exactly one branch reaches the 4m+2 = 6 decay class
        assert rep.branch_table.count_class("6") == 1


def test_forman_trivial_on_unweighted():
    K = built(octahedron(2), 2)
    rep = forman_compare(K, 1)
    assert rep.ok
    for row in rep.rows:
        assert row.algebraic_dim == betti(K, 1) == 1


def _level(K, k, l):
    """Indices of U_l^k, read off the simplices' weight exponents."""
    if not -1 <= k <= K.max_dim:
        return frozenset()
    return frozenset(i for i, s in enumerate(simplices(K, k)) if _exponent_sum(K, s) >= l)


def _rank_formula_pages(K, j_max):
    """e_{j,l}^k from ranks of coordinate submatrices of d, with no pairing.

    z(k,l,j) = dim Z_{j,l}^k and b(k,l,j) = dim B_{j,l}^k, and for j >= 1
    e_{j,l}^k = z(k,l,j) - b(k,l,j-1) - z(k,l+1,j-1) + b(k,l+1,j).
    """
    d = {k: coboundary(K, k).int_rows_at_one() for k in range(-1, K.max_dim)}

    def rank(k, cols, rows_outside=None):
        if k not in d:
            return 0
        return dense_rank(
            {c: v for c, v in row.items() if c in cols}
            for r, row in d[k].items()
            if rows_outside is None or r not in rows_outside
        )

    def z(k, l, j):
        cols = _level(K, k, l)
        return len(cols) - rank(k, cols, _level(K, k + 1, l + j))

    def b(k, l, j):
        cols = _level(K, k - 1, l - j)
        return rank(k - 1, cols) - rank(k - 1, cols, _level(K, k, l))

    pages = {}
    for k in range(-1, K.max_dim + 1):
        lmax = max((_exponent_sum(K, s) for s in simplices(K, k)), default=-1)
        for l in range(0, lmax + 1):
            pages[(0, k, l)] = len(_level(K, k, l)) - len(_level(K, k, l + 1))
            for j in range(1, j_max + 1):
                pages[(j, k, l)] = (
                    z(k, l, j) - b(k, l, j - 1) - z(k, l + 1, j - 1) + b(k, l + 1, j)
                )
    return pages


def test_pages_match_rank_formula_oracle():
    """Pages 0-5 from the pairing equal the Z/B rank formula; one pair per rank."""
    graphs = [hexagon()] + seeded_graphs(25, 8, wmax=2, seed=21)
    for g in graphs:
        K = built(g, g.n_vertices)
        F = filtration(K)
        for k in range(-1, K.max_dim):
            pairs = pair_list(K, k)
            assert len(pairs) == dense_rank(coboundary(K, k).int_rows_at_one().values())
        got = {(j, k, l): d for j in range(6) for (k, l), d in page_dims(F, j).dims.items()}
        assert got == _rank_formula_pages(K, 5), g


def test_boundary_side_pairs_equal_the_coboundary_side():
    """Persistence duality: reducing the rows of d^k pairs the same simplices."""
    graphs = [*named_fixtures().values(), *seeded_graphs(25, 8, wmax=2, seed=21)]
    for g in graphs:
        K = built(g, g.n_vertices)
        filtration(K)
        for k in range(-1, K.max_dim):
            assert set(pair_list(K, k)) == boundary_side_pairs(K, k), (g, k)


def _uncleared_pairs(K, k):
    """Reference pairs of d^k from all of its columns, by the plain loop:
    k-simplices in descending (level, index), each column's pivot its coface
    first in ascending (level, index)."""
    lo = [_exponent_sum(K, s) for s in simplices(K, k)]
    hi = [_exponent_sum(K, s) for s in simplices(K, k + 1)]
    cols = {}
    for r, row in coboundary(K, k).int_rows_at_one().items():
        for c, v in row.items():
            cols.setdefault(c, {})[r] = v
    coface_at = sorted(range(len(hi)), key=lambda r: (hi[r], r))
    number = {r: i for i, r in enumerate(coface_at)}
    order = sorted(range(len(lo)), key=lambda c: (lo[c], c), reverse=True)
    reduced = reference_reduce({number[r]: v for r, v in cols.get(c, {}).items()} for c in order)
    pairs = sorted((min(col), c) for c, col in zip(order, reduced) if col)
    return [(c, coface_at[p]) for p, c in pairs]  # by ascending (level, index) of the coface


def _assert_pairs_uncleared(K):
    filtration(K)
    for k in range(-1, K.max_dim):
        assert pair_list(K, k) == _uncleared_pairs(K, k), k


@settings(max_examples=80, deadline=None)
@given(graphs(max_vertices=8, wmax=1))
def test_cleared_pairs_equal_uncleared_pairs(g):
    _assert_pairs_uncleared(clique_complex(g, g.n_vertices - 1))


def test_cleared_pairs_equal_uncleared_pairs_on_named_fixtures():
    for g in named_fixtures().values():
        _assert_pairs_uncleared(built(g, g.n_vertices - 1))


def test_filtration_clears_the_cofaces_of_the_pairs_below(monkeypatch):
    """The filtration reads the shared pairing (``coboundary_pairs``): d^k's
    reduction receives C^k - #pairs[k-1] columns, built from the facet
    arrays; columns into an empty chain group are never built, and the
    float-side coboundary is never assembled."""
    import homology_lab.homology as homology
    import homology_lab.rational as rational

    received, assembled, floats = [], [], []
    real_reduce, real_columns = rational.reduce_columns, homology.exact_columns

    def reduce_spy(cols):
        received.append(len(cols))
        return real_reduce(cols)

    def columns_spy(K, k, faces=None):
        assembled.append(k)
        return real_columns(K, k, faces)

    monkeypatch.setattr(rational, "reduce_columns", reduce_spy)
    monkeypatch.setattr(homology, "exact_columns", columns_spy)
    monkeypatch.setattr(homology, "coboundary", lambda K, k: floats.append(k))
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1, "1": -1}))
    K = clique_complex(g, g.n_vertices - 1)
    filtration(K)
    ks = [k for k in range(-1, K.max_dim) if K.dim_size(k + 1)]
    assert assembled == ks and K.max_dim - 1 not in ks
    assert floats == []
    below = {k: len(pair_list(K, k - 1)) for k in ks}
    assert received == [K.dim_size(k) - below[k] for k in ks]
    assert sum(below.values()) > 0


def test_pages_and_betti_numbers_share_one_elimination_per_degree(monkeypatch):
    """A filtration, a degree's page totals and the Betti table of one
    complex reduce each nonempty degree once, bottom-up, each on the
    columns the pairs of the degree below left."""
    import homology_lab.rational as rational

    received = []
    real = rational.reduce_columns

    def spy(cols):
        received.append(len(cols))
        return real(cols)

    # the gadget build runs exact checks of its own, so it comes before the spy
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1, "1": -1}))
    monkeypatch.setattr(rational, "reduce_columns", spy)
    K = clique_complex(g, g.n_vertices - 1)
    F = filtration(K)
    rep = stabilized_dims(F, 1)
    table = betti_table([K])
    monkeypatch.undo()
    ks = [k for k in range(-1, K.max_dim) if K.dim_size(k)]
    assert received == [K.dim_size(k) - coboundary_rank(K, k - 1) for k in ks]
    assert rep.betti == table.as_dict()[1] == 1


def test_bulk_page_identity_for_gadget():
    """Page-1 top diagonal of a gadget is the bulk chain space."""
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 3)
    F = filtration(K)
    center = "g.center"
    bulk_edges = sum(1 for s in simplices(K, 1) if center in s)
    assert F.e_dim(1, 2, 1) == bulk_edges
    # e_{2,k+1}^k = 0 for k < 2m (claim for the general gadget at m=1)
    assert F.e_dim(0, 1, 2) == 0
    assert F.e_dim(1, 2, 2) == 0
