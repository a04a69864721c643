from homology_lab.complexes import clique_complex
from homology_lab.fixtures import gadget_graph, hexagon
from homology_lab.gadgets import IntegerState
from homology_lab.graph import bowtie, octahedron
from homology_lab.homology import betti
from homology_lab.operators import coboundary
from homology_lab.specseq import filtration, forman_compare, page_dims, stabilized_dims

from conftest import built, dense_rank, seeded_graphs


def test_trivial_filtration_on_unweighted_complex():
    F = filtration(built(bowtie(), 3))
    for k in range(-1, 2):
        assert F.level(k, 1) == frozenset()
        assert len(F.level(k, 0)) == F.K.dim_size(k)


def test_hexagon_filtration_truncation():
    K = built(hexagon(), 3)
    F = filtration(K)
    assert F.lmax[2] == 3  # central triangles carry three gadget vertices
    assert F.lmax[1] == 2
    assert F.lmax[0] == 1
    assert F.level(2, 3) and not F.level(2, 4)


def test_one_qubit_gadget_has_top_filtration_level():
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 3)
    F = filtration(K)
    # triangles on three gadget vertices exist (center + inner edge)
    assert len(F.level(2, 3)) > 0


def test_page0_counts_exact_exponents():
    for g in seeded_graphs(6, 6, wmax=1, seed=8):
        K = clique_complex(g, g.n_vertices)
        F = filtration(K)
        page0 = page_dims(F, 0)
        for k in range(-1, K.max_dim + 1):
            for l in range(0, F.lmax[k] + 1):
                exact = sum(1 for e in F.exponents[k] if e == l)
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
    return frozenset(i for i, s in enumerate(K.simplices(k)) if K.weight_exponent(s) >= l)


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
        lmax = max((K.weight_exponent(s) for s in K.simplices(k)), default=-1)
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
        for k, pairs in F.pairs.items():
            assert len(pairs) == dense_rank(coboundary(K, k).int_rows_at_one().values())
        got = {(j, k, l): d for j in range(6) for (k, l), d in page_dims(F, j).dims.items()}
        assert got == _rank_formula_pages(K, 5), g


def test_bulk_page_identity_for_gadget():
    """Page-1 top diagonal of a gadget is the bulk chain space."""
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 3)
    F = filtration(K)
    center = "g.center"
    bulk_edges = sum(1 for s in K.simplices(1) if center in s)
    assert F.e_dim(1, 2, 1) == bulk_edges
    # e_{2,k+1}^k = 0 for k < 2m (claim for the general gadget at m=1)
    assert F.e_dim(0, 1, 2) == 0
    assert F.e_dim(1, 2, 2) == 0
