from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab.complexes import (
    clique_complex,
    kunneth_embed,
    merge_sign,
    sort_with_sign,
)
from homology_lab.errors import CapExceededError
from homology_lab.gadgets import basis_chain
from homology_lab.graph import (
    bowtie,
    join,
    octahedron,
    qubit_graph,
    relabel,
    unweighted,
)
from homology_lab.homology import is_cycle

from conftest import built, complete_graph, graphs


def brute_force_counts(g, max_dim):
    """Independent oracle: enumerate cliques by brute force over subsets."""
    counts = {-1: 1}
    for k in range(0, max_dim + 1):
        c = 0
        for subset in combinations(g.vertices, k + 1):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                c += 1
        counts[k] = c
    return counts


def test_triangle_counts():
    K = built(complete_graph(["a", "b", "c"]), 2)
    assert K.counts() == {-1: 1, 0: 3, 1: 3, 2: 1}


def test_bowtie_has_no_triangles():
    K = built(bowtie(), 2)
    assert K.counts() == {-1: 1, 0: 7, 1: 8, 2: 0}


def test_octahedron_3_simplex_counts():
    K = built(octahedron(3), 3)
    assert len(K.simplices(2)) == 8
    assert len(K.simplices(3)) == 0


def test_octahedron_counts_are_binomial():
    for n in range(1, 6):
        K = built(octahedron(n), n)
        for k in range(0, n):
            assert len(K.simplices(k)) == comb(n, k + 1) * 2 ** (k + 1)


@settings(max_examples=10, deadline=None)
@given(graphs(max_vertices=7))
def test_counts_match_brute_force(g):
    K = clique_complex(g, min(g.n_vertices, 6))
    assert K.counts() == brute_force_counts(g, K.max_dim)


def test_independence_complex_of_triangle():
    # the clique complex of K3's complement, three isolated points
    K = clique_complex(unweighted(["a", "b", "c"]), 2)
    assert K.counts() == {-1: 1, 0: 3, 1: 0, 2: 0}


def test_independence_complex_of_empty_graph_is_full_simplex():
    K = clique_complex(complete_graph(["a", "b", "c"]), 2)
    assert len(K.simplices(2)) == 1


@settings(max_examples=10, deadline=None)
@given(graphs(max_vertices=7))
def test_face_closure(g):
    K = clique_complex(g, min(g.n_vertices, 5))
    for k in range(1, K.max_dim + 1):
        for sigma in K.simplices(k):
            for i in range(len(sigma)):
                assert K.has(sigma[:i] + sigma[i + 1 :])


def inversion_parity(vs) -> int:
    """Sign of the permutation sorting vs, from its inversion count."""
    return (-1) ** sum(1 for i, u in enumerate(vs) for w in vs[i + 1 :] if u > w)


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=8, wmax=1), st.randoms(use_true_random=False))
def test_canonical_order_is_label_order(g, rng):
    K = clique_complex(g, min(g.n_vertices, 5))
    for k in range(-1, K.max_dim + 1):
        sims = K.simplices(k)
        assert list(sims) == sorted(sims)
        for s in sims:
            assert all(u < w for u, w in zip(s, s[1:]))
            shuffled = rng.sample(s, len(s))
            assert sort_with_sign(shuffled) == (s, inversion_parity(shuffled))
            left = tuple(v for v in s if rng.random() < 0.5)
            right = tuple(v for v in s if v not in left)
            assert merge_sign(left, right) == (s, inversion_parity(left + right))
            if s:  # a repeated vertex collapses the simplex
                assert sort_with_sign(shuffled + [s[0]])[1] == 0
                assert merge_sign(s, s[:1])[1] == 0


def test_deterministic_enumeration():
    g = qubit_graph(2)
    a = clique_complex(g, 4)
    b = clique_complex(g, 4)
    assert a.by_dim == b.by_dim
    assert a.index == b.index


def test_cap_exceeded_reports_dimension():
    g = complete_graph([f"v{i}" for i in range(12)])  # K12
    with pytest.raises(CapExceededError) as err:
        clique_complex(g, 6, cap=100)  # 1 + 12 + 66 = 79 fit; the 220 triangles do not
    assert err.value.dimension == 2
    assert str(err.value) == "simplex cap 100 exceeded while enumerating dimension 2"
    total = sum(comb(12, k + 1) for k in range(-1, 7))
    assert sum(clique_complex(g, 6, cap=total).counts().values()) == total
    with pytest.raises(CapExceededError) as err:
        clique_complex(g, 6, cap=total - 1)
    assert err.value.dimension == 6
    assert str(err.value) == f"simplex cap {total - 1} exceeded while enumerating dimension 6"


def test_join_simplex_counts_follow_kunneth():
    a, b = bowtie(), octahedron(2)
    j = join(
        relabel(a, {v: f"L.{v}" for v in a.vertices}),
        relabel(b, {v: f"R.{v}" for v in b.vertices}),
    )
    KA, KB = built(a, 4), built(b, 4)
    KJ = built(j, 5)

    def size(K, k):
        return K.dim_size(k) if -1 <= k <= K.max_dim else 0

    for k in range(-1, 5):
        expect = sum(size(KA, i) * size(KB, k - 1 - i) for i in range(-1, k + 1))
        assert KJ.dim_size(k) == expect


def test_join_associativity_on_counts():
    gs = [bowtie(), octahedron(2), unweighted(["p", "q"])]
    left = join(
        relabel(join(relabel(gs[0], {v: f"a.{v}" for v in gs[0].vertices}),
                     relabel(gs[1], {v: f"b.{v}" for v in gs[1].vertices})),
                {}),
        relabel(gs[2], {v: f"c.{v}" for v in gs[2].vertices}),
    )
    right = join(
        relabel(gs[0], {v: f"a.{v}" for v in gs[0].vertices}),
        join(relabel(gs[1], {v: f"b.{v}" for v in gs[1].vertices}),
             relabel(gs[2], {v: f"c.{v}" for v in gs[2].vertices})),
    )
    KL, KR = clique_complex(left, 6), clique_complex(right, 6)
    assert KL.counts() == KR.counts()


# -- kunneth embedding ---------------------------------------------------------


def loop_chain(K, prefix, letter):
    verts = [f"{prefix}x", f"{prefix}{letter}3", f"{prefix}{letter}2", f"{prefix}{letter}4"]
    chain = {}
    for i in range(4):
        p, q = verts[i], verts[(i + 1) % 4]
        edge = (p, q) if p < q else (q, p)
        chain[edge] = Fraction(1 if p < q else -1)
    return chain


def test_embed_unit():
    K2 = built(qubit_graph(2), 4)
    phi = loop_chain(K2, "q2.", "a")
    out = kunneth_embed({(): Fraction(1)}, phi, into=K2)
    assert out == phi


def test_embed_of_two_loops_is_a_16_term_cycle():
    K2 = built(qubit_graph(2), 4)
    psi = loop_chain(K2, "q1.", "a")
    phi = loop_chain(K2, "q2.", "a")
    out = kunneth_embed(psi, phi, into=K2)
    assert len(out) == 16
    assert all(abs(c) == 1 for c in out.values())
    assert is_cycle(K2, out, 3)
    assert out == basis_chain(K2, "00")


def test_embed_preserves_norm():
    import random

    import numpy as np

    rng = random.Random(5)
    K2 = built(qubit_graph(2), 4)
    edges1 = [s for s in K2.simplices(1) if all(v.startswith("q1.") for v in s)]
    edges2 = [s for s in K2.simplices(1) if all(v.startswith("q2.") for v in s)]
    for _ in range(5):
        psi = {s: Fraction(rng.randint(-3, 3)) for s in edges1}
        phi = {s: Fraction(rng.randint(-3, 3)) for s in edges2}
        out = kunneth_embed(psi, phi, into=K2)
        norm = lambda ch: np.sqrt(float(sum(c * c for c in ch.values())))
        assert abs(norm(out) - norm(psi) * norm(phi)) < 1e-9
