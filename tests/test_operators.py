import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from homology_lab.complexes import clique_complex, kunneth_embed
from homology_lab.errors import GraphFormatError
from homology_lab.graph import (
    bowtie,
    complement,
    join,
    make_graph,
    octahedron,
    qubit_graph,
    relabel,
    unweighted,
)
from homology_lab.operators import (
    MonomialMatrix,
    boundary,
    coboundary,
    embedded_entry,
    laplacian,
    laplacian_entry,
    laplacian_parts,
    write_coordinate_text,
)

from conftest import built, graphs, seeded_graphs

K3 = complement(unweighted(["a", "b", "c"]))


def test_augmentation_of_edge_graph():
    g = make_graph({"a": 0, "b": 0}, [("a", "b")])
    d = coboundary(built(g, 1), -1)
    assert d.rows == 2 and d.cols == 1
    assert d.entry(0, 0) == {0: 1}
    assert d.entry(1, 0) == {0: 1}


def test_weighted_augmentation():
    g = make_graph({"a": 1, "b": 0}, [])
    d = coboundary(built(g, 1), -1)
    assert d.entry(0, 0) == {1: 1}  # lam^1 on the weighted vertex
    assert d.entry(1, 0) == {0: 1}


def test_bowtie_top_coboundary_is_zero_map():
    d = coboundary(built(bowtie(), 2), 1)
    assert d.rows == 0 and d.cols == 8
    assert d.is_zero()


@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=7, weighted=True))
def test_chain_complex_law(g):
    K = clique_complex(g, min(g.n_vertices, 5))
    for k in range(-1, K.max_dim - 1):
        dd = coboundary(K, k + 1) @ coboundary(K, k)
        assert dd.is_zero()
        bb = boundary(K, k + 1) @ boundary(K, k + 2)
        assert bb.is_zero()


def test_boundary_of_vertex_is_weighted_empty_simplex():
    g = make_graph({"a": 1, "b": 0}, [])
    K = built(g, 1)
    b = boundary(K, 0)
    assert b.entry(0, K.index[0][("a",)]) == {1: 1}


def test_boundary_of_bowtie_loop_is_zero():
    K = built(bowtie(), 2)
    cols = boundary(K, 1).transpose().int_rows_at_one()
    loop = [("a3", "x"), ("a2", "a3"), ("a2", "a4"), ("a4", "x")]
    signs = [-1, -1, 1, 1]  # traversal x -> a3 -> a2 -> a4 -> x
    acc = {}
    for e, s in zip(loop, signs):
        for r, v in cols.get(K.index[1][e], {}).items():
            acc[r] = acc.get(r, 0) + s * v
    assert all(v == 0 for v in acc.values())


def test_triangle_laplacian_eigenvalues():
    # by hand, the edge Laplacian of the full triangle is exactly 3 I
    L = laplacian(built(K3, 2), 1).evaluate_dense(1.0)
    assert np.allclose(L, 3 * np.eye(3))


def test_square_laplacian_has_zero_mode():
    K = built(octahedron(2), 2)
    for lam in (1.0, 0.3):
        vals = np.linalg.eigvalsh(laplacian(K, 1).evaluate_dense(lam))
        assert min(abs(vals)) < 1e-12


def test_parts_sum_and_psd():
    K = built(qubit_graph(1), 2)
    down, up = laplacian_parts(K, 1)
    total = laplacian(K, 1)
    assert (down + up).entries == total.entries
    for part in (down, up):
        vals = np.linalg.eigvalsh(part.evaluate_dense(0.7))
        assert vals.min() > -1e-10


def test_energy_formula():
    rng = np.random.default_rng(0)
    for g in seeded_graphs(5, 7, wmax=1, seed=11):
        K = clique_complex(g, min(g.n_vertices, 5))
        for k in range(0, min(2, K.max_dim - 1) + 1):
            n = K.dim_size(k)
            if n == 0:
                continue
            lam = 0.4
            psi = rng.standard_normal(n)
            L = laplacian(K, k).evaluate_dense(lam)
            b = boundary(K, k).evaluate(lam)
            d = coboundary(K, k).evaluate(lam)
            lhs = psi @ L @ psi
            rhs = np.linalg.norm(b @ psi) ** 2 + np.linalg.norm(d @ psi) ** 2
            assert abs(lhs - rhs) < 1e-10


def test_laplacian_respects_join_splitting():
    rng = random.Random(3)
    g = join(
        relabel(bowtie(), {v: f"L.{v}" for v in bowtie().vertices}),
        relabel(octahedron(2), {v: f"R.{v}" for v in octahedron(2).vertices}),
    )
    K = built(g, 4)
    KL = built(relabel(bowtie(), {v: f"L.{v}" for v in bowtie().vertices}), 2)
    KR = built(relabel(octahedron(2), {v: f"R.{v}" for v in octahedron(2).vertices}), 2)
    lam = 1.0
    i, j = 1, 1
    psi = {s: Fraction(rng.randint(-2, 2)) for s in KL.simplices(i)}
    phi = {s: Fraction(rng.randint(-2, 2)) for s in KR.simplices(j)}
    emb = kunneth_embed(psi, phi, into=K)

    def as_vec(KK, k, ch):
        v = np.zeros(KK.dim_size(k))
        for s, c in ch.items():
            v[KK.index[k][s]] = float(c)
        return v

    k = i + j + 1
    lhs = laplacian(K, k).evaluate_dense(lam) @ as_vec(K, k, emb)
    Lpsi = laplacian(KL, i).evaluate_dense(lam) @ as_vec(KL, i, psi)
    Lphi = laplacian(KR, j).evaluate_dense(lam) @ as_vec(KR, j, phi)
    t1 = kunneth_embed(
        {s: Fraction(x).limit_denominator(10**12) for s, x in zip(KL.simplices(i), Lpsi)},
        phi,
        into=K,
    )
    t2 = kunneth_embed(
        psi,
        {s: Fraction(x).limit_denominator(10**12) for s, x in zip(KR.simplices(j), Lphi)},
        into=K,
    )
    rhs = as_vec(K, k, t1) + as_vec(K, k, t2)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_row_sparsity_bound():
    for g in seeded_graphs(5, 9, wmax=1, seed=21):
        K = clique_complex(g, min(g.n_vertices, 5))
        for k in range(0, K.max_dim):
            L = laplacian(K, k)
            assert L.row_nnz_max() <= (k + 2) * g.n_vertices + 1


def test_entrywise_formula_matches_assembly():
    for g in seeded_graphs(20, 9, wmax=1, seed=31):
        K = clique_complex(g, min(g.n_vertices, 6))
        for k in range(-1, K.max_dim):
            L = laplacian(K, k)
            sims = K.simplices(k)
            for a, s in enumerate(sims):
                for b, t in enumerate(sims):
                    assert laplacian_entry(K, k, s, t) == L.entry(a, b)


def test_upper_adjacent_entry_is_zero():
    K = built(K3, 2)
    assert laplacian_entry(K, 1, ("a", "b"), ("a", "c")) == {}


def test_disjoint_edges_in_path_give_zero():
    g = unweighted(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    K = built(g, 2)
    assert laplacian_entry(K, 1, ("a", "b"), ("c", "d")) == {}


def test_lower_adjacent_not_upper_entry():
    g = unweighted(["a", "b", "c"], [("a", "b"), ("b", "c")])  # path, no triangle
    K = built(g, 2)
    entry = laplacian_entry(K, 1, ("a", "b"), ("b", "c"))
    L = laplacian(K, 1)
    assert entry == L.entry(K.index[1][("a", "b")], K.index[1][("b", "c")])
    assert entry != {}


def test_evaluate_identity_and_arithmetic():
    m = MonomialMatrix(1, 1)
    m.add_monomial(0, 0, 3, 2)
    m.add_monomial(0, 0, -1, 0)
    assert m.entry(0, 0) == {2: 3, 0: -1}
    assert m.evaluate(1.0)[0, 0] == 2.0
    assert m.evaluate(0.5)[0, 0] == -0.25
    assert m.int_rows_at_one() == {0: {0: 2}}
    m.add_monomial(0, 0, 1, 0)
    assert m.entry(0, 0) == {2: 3}
    with pytest.raises(GraphFormatError):
        m.evaluate(0.0)
    with pytest.raises(GraphFormatError):
        m.evaluate(1.5)


def test_embedded_entry_cases():
    K = built(bowtie(), 3)
    n = K.graph.n_vertices
    # x = y not a 2-clique: the penalty
    bits = ["0"] * n
    bits[0] = bits[1] = "1"
    v0, v1 = K.graph.vertices[0], K.graph.vertices[1]
    x = "".join(bits)
    expected = 4.25 if K.graph.has_edge(v0, v1) else None
    if not K.graph.has_edge(v0, v1):
        assert embedded_entry(K, 1, x, x, penalty=4.25) == 4.25
    # x != y with x not a clique: zero
    y = "0" * (n - 2) + "11"
    assert embedded_entry(K, 1, "1" * n, y, penalty=4.25) == 0.0


def test_embedded_entry_matches_assembly_on_cliques():
    rng = random.Random(9)
    K = built(bowtie(), 3)
    g = K.graph
    n = g.n_vertices
    L = laplacian(K, 1).evaluate_dense(1.0)
    checked_clique_pairs = 0
    for _ in range(200):
        x = "".join(rng.choice("01") for _ in range(n))
        y = "".join(rng.choice("01") for _ in range(n))
        got = embedded_entry(K, 1, x, y, penalty=9.0)
        sx = tuple(v for v, b in zip(g.vertices, x) if b == "1")
        sy = tuple(v for v, b in zip(g.vertices, y) if b == "1")
        if K.has(sx) and len(sx) == 2 and K.has(sy) and len(sy) == 2:
            assert abs(got - L[K.index[1][sx], K.index[1][sy]]) < 1e-12
            checked_clique_pairs += 1
        elif x == y:
            assert got == 9.0
        else:
            assert got == 0.0
    assert checked_clique_pairs > 0


def test_embedded_entry_rejects_bad_length():
    K = built(bowtie(), 2)
    from homology_lab.errors import DimensionError

    with pytest.raises(DimensionError):
        embedded_entry(K, 1, "01", "01", penalty=1.0)


def test_coordinate_dump_format():
    m = MonomialMatrix(2, 2)
    m.add_monomial(0, 1, -1, 1)
    m.add_monomial(1, 0, 3, 0)
    buf = io.StringIO()
    write_coordinate_text(m, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "2 2 2"
    assert lines[1] == "0 1 -1 1 1"
    assert lines[2] == "1 0 3 1 0"
