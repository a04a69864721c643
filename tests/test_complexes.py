from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab import complexes, gadgets, reduction
from homology_lab.complexes import clique_complex
from homology_lab.errors import CapExceededError
from homology_lab.gadgets import IntegerState
from homology_lab.graph import (
    bowtie,
    join,
    make_graph,
    octahedron,
    qubit_graph,
    relabel,
    unweighted,
)
from homology_lab.homology import betti_table, exact_columns
from homology_lab.operators import coboundary
from homology_lab.specseq import filtration, page_dims

from conftest import built, complete_graph, graphs, monomials
from reference import basis_chain, cycle_is_boundary, is_cycle, kunneth_embed, sort_with_sign


def brute_force_counts(g, max_dim):
    """Independent oracle: enumerate cliques by brute force over subsets."""
    counts = {-1: 1}
    for k in range(0, max_dim + 1):
        c = 0
        for subset in combinations(g.vertices, k + 1):
            if all(e in g.edges for e in combinations(subset, 2)):
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
                assert K.locate([sigma[:i] + sigma[i + 1 :]])[0] >= 0


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
            assert sort_with_sign(left + right) == (s, inversion_parity(left + right))
            if s:  # a repeated vertex collapses the simplex
                assert sort_with_sign(shuffled + [s[0]])[1] == 0
                assert sort_with_sign(s + s[:1])[1] == 0


def test_deterministic_enumeration():
    g = qubit_graph(2)
    a = clique_complex(g, 4)
    b = clique_complex(g, 4)
    assert a.by_dim == b.by_dim
    for k, sims in b.by_dim.items():  # each label simplex is found where it is listed
        assert a.locate(sims).tolist() == list(range(len(sims)))


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


# -- integer simplices against a label reference --------------------------------


def label_enumeration(g, max_dim, cap):
    """Reference: the ordered DFS on label tuples.  Returns (simplices,
    levels) by degree; raises CapExceededError as the library must."""
    by_dim = {-1: [()], 0: [(v,) for v in g.vertices]}
    levels = {-1: [0], 0: list(g.exponents)}
    total = 1 + len(g.vertices)
    if total > cap:
        raise CapExceededError(0, cap)
    weight = g.weight_map()
    cands = [tuple(sorted(u for u in g.neighbors(v) if u > v)) for v in g.vertices]
    for k in range(1, max_dim + 1):
        simplices, level, new_cands = [], [], []
        for sigma, l, after in zip(by_dim[k - 1], levels[k - 1], cands):
            total += len(after)
            if total > cap:
                raise CapExceededError(k, cap)
            for i, w in enumerate(after):
                simplices.append(sigma + (w,))
                level.append(l + weight[w])
                new_cands.append(tuple(w2 for w2 in after[i + 1 :] if w2 in g.neighbors(w)))
        by_dim[k], levels[k], cands = simplices, level, new_cands
    return by_dim, levels


def label_coboundary_terms(by_dim, levels, k):
    """Reference: d^k's (row, col, coeff, exponent) terms, each facet found
    by slicing its coface's label tuple, sorted."""
    index = {s: i for i, s in enumerate(by_dim[k])}
    terms = []
    for i, (tau, level) in enumerate(zip(by_dim[k + 1], levels[k + 1])):
        for p in range(len(tau)):
            j = index[tau[:p] + tau[p + 1 :]]
            terms.append((i, j, (-1) ** p, level - levels[k][j]))
    return sorted(terms)


@st.composite
def labelled_graphs(draw):
    """Weighted graphs on labels whose sorted order is not their drawing order."""
    label = st.text("abc", min_size=1, max_size=3)
    vs = draw(st.lists(label, min_size=1, max_size=9, unique=True))
    pairs = list(combinations(sorted(vs), 2))
    density = 10 - draw(st.integers(0, 7))  # in tenths; small draws give deep complexes
    mask = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    ws = draw(st.lists(st.integers(0, 3), min_size=len(vs), max_size=len(vs)))
    return make_graph(dict(zip(vs, ws)), [e for e, x in zip(pairs, mask) if x < density])


@settings(max_examples=200, deadline=None)
@given(labelled_graphs(), st.data())
def test_integer_enumeration_and_assembly_match_the_label_reference(g, data):
    """Same simplices in the same order, same levels, same coboundary monomials
    and exact rows in every degree, and the cap raised in the same degree."""
    max_dim = g.n_vertices - data.draw(st.integers(0, g.n_vertices), label="below n")
    cap = 2 ** g.n_vertices  # every clique fits
    if data.draw(st.booleans(), label="capped"):
        # a cap at, or one below, the simplex count through a drawn degree
        sizes = [len(v) for v in label_enumeration(g, max_dim, cap)[0].values()]
        through = len(sizes) - data.draw(st.integers(0, len(sizes) - 1), label="degrees cut")
        cap = max(1, sum(sizes[:through]) - data.draw(st.integers(0, 1), label="short by"))
    try:
        by_dim, levels = label_enumeration(g, max_dim, cap)
    except CapExceededError as ref:
        with pytest.raises(CapExceededError) as err:
            clique_complex(g, max_dim, cap=cap)
        assert (err.value.dimension, str(err.value)) == (ref.dimension, str(ref))
        return
    K = clique_complex(g, max_dim, cap=cap)
    assert {k: list(K.simplices(k)) for k in by_dim} == by_dim
    assert {k: K.levels[k].tolist() for k in by_dim} == levels
    assert K.counts() == {k: len(v) for k, v in by_dim.items()}
    for k in range(-1, max_dim):
        d = coboundary(K, k)
        terms = label_coboundary_terms(by_dim, levels, k)
        assert monomials(d) == terms
        # the rows of d^k as boundary columns, each with its facets ascending
        rows = [{} for _ in by_dim[k + 1]]
        for i, j, coeff, _e in terms:
            rows[i][j] = coeff
        got = exact_columns(K, k)
        assert [list(got[i].items()) for i in range(len(got))] == [sorted(r.items()) for r in rows]
        # the columns of d^k at drawn k-simplices, in the drawn order, each
        # coface numbered by its place in ascending (level, index)
        up = sorted(range(len(by_dim[k + 1])), key=lambda i: (levels[k + 1][i], i))
        number = {i: n for n, i in enumerate(up)}
        cols = [{} for _ in by_dim[k]]
        for i, j, coeff, _e in terms:
            cols[j][number[i]] = coeff
        faces = data.draw(st.permutations(range(len(cols))), label=f"faces of d^{k}")
        faces = faces[: data.draw(st.integers(0, len(faces)), label="kept")]
        got = exact_columns(K, k, np.array(faces, dtype=np.int64))
        assert [list(got[j].items()) for j in range(len(got))] == [
            sorted(cols[j].items()) for j in faces
        ]


@settings(max_examples=60, deadline=None)
@given(labelled_graphs(), st.data())
def test_locate_finds_exactly_the_simplices(g, data):
    """Every simplex at its index; -1 for a repeated, unsorted or unknown
    vertex, a non-clique, and anything above max_dim."""
    max_dim = data.draw(st.integers(0, g.n_vertices), label="max_dim")
    K = clique_complex(g, max_dim)
    where = {s: i for k in range(-1, max_dim + 1) for i, s in enumerate(K.simplices(k))}
    vertices = st.sampled_from([*g.vertices, "z"])
    asked = data.draw(st.lists(st.lists(vertices, max_size=6).map(tuple), max_size=30))
    asked += list(where)
    assert K.locate(asked).tolist() == [where.get(s, -1) for s in asked]


def test_labels_stay_at_the_io_edge(monkeypatch):
    """Ranks, filtration pages, decide and gadget builds read the integer
    rows only, and an exact witness labels only the rows it returns: the
    lazy label view of every complex involved stays unbuilt."""

    def labels_built(K):
        return {"by_dim"} & vars(K).keys()

    K = clique_complex(qubit_graph(1), 6)
    betti_table([K])
    F = filtration(clique_complex(octahedron(3), 5))
    for j in range(5):
        page_dims(F, j)
    assert labels_built(K) == set() and labels_built(F.K) == set()
    built_by_decide = []

    def recording(*args, **kwargs):
        built_by_decide.append(clique_complex(*args, **kwargs))
        return built_by_decide[-1]

    monkeypatch.setattr(complexes, "clique_complex", recording)
    four = ",".join(f'{{"support":[0,1],"amps":{{"{z}":1}}}}' for z in ("00", "01", "10", "11"))
    dec = reduction.decide(reduction.parse_hamiltonian(f'{{"n":2,"terms":[{four}]}}'), c=0.5)
    assert dec.answer == "NO" and built_by_decide
    assert [labels_built(factor) for factor in built_by_decide] == [set()] * len(built_by_decide)
    built_by_gadget = []

    def recording_gadget(*args, **kwargs):
        built_by_gadget.append(clique_complex(*args, **kwargs))
        return built_by_gadget[-1]

    monkeypatch.setattr(gadgets, "clique_complex", recording_gadget)
    gadgets.gadget(IntegerState.from_dict(1, {"0": 1, "1": -1}))  # a fundamental cycle
    assert built_by_gadget
    assert [labels_built(G) for G in built_by_gadget] == [set()] * len(built_by_gadget)
    T = clique_complex(complete_graph(["a", "b", "c"]), 2)
    filled, witness = cycle_is_boundary(T, {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): -1})
    assert filled and witness == {("a", "b", "c"): 1} and labels_built(T) == set()
    K.simplices(1)  # a label read builds the view, so the check above can fail
    assert labels_built(K) == {"by_dim"}


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
