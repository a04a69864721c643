from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab import gadgets
from homology_lab.complexes import clique_complex
from homology_lab.errors import (
    GraphFormatError,
    HomologyLabError,
    OrientationAlignmentError,
    UnsupportedStateError,
)
from homology_lab.fixtures import cycle_graph, gadget_graph, hexagon
from homology_lab.gadgets import (
    CENTER,
    MAX_AMPLITUDE_SUM,
    IntegerState,
    apply_f,
    basis_cycle,
    build_K,
    catalog,
    fill_cycle,
    fundamental_cycle,
    gadget,
    glue,
    target_cycle_graph,
)
from homology_lab.graph import induced_subgraph, make_graph, qubit_graph, relabel
from homology_lab.homology import betti, betti_table, euler_characteristic, harmonic_basis

from conftest import built, complete_graph, graphs
from reference import (
    basis_chain,
    chain_vector,
    cycle_is_boundary,
    kunneth_embed,
    locate,
    orthogonal_cycle_span,
    push_chain,
    simplices,
    target_chain,
)


# -- integer states and the catalog ---------------------------------------------


def test_state_validation():
    with pytest.raises(GraphFormatError):
        IntegerState.from_dict(1, {})
    with pytest.raises(GraphFormatError):
        IntegerState.from_dict(1, {"00": 1})
    with pytest.raises(GraphFormatError):
        IntegerState.from_dict(1, {"0": 0})


def test_state_gcd_reduction():
    st = IntegerState.from_dict(1, {"0": 2, "1": -4})
    assert dict(st.amps) == {"0": 1, "1": -2}


def test_amplitude_sum_is_bounded_after_gcd_reduction():
    IntegerState.from_dict(1, {"0": MAX_AMPLITUDE_SUM - 1, "1": -1})
    big = 10**23
    assert dict(IntegerState.from_dict(1, {"0": big, "1": -big}).amps) == {"0": 1, "1": -1}
    for amps in ({"0": MAX_AMPLITUDE_SUM, "1": 1}, {"0": big, "1": 1}):
        with pytest.raises(GraphFormatError, match="amplitude sum"):
            IntegerState.from_dict(1, amps)


def test_catalog_contents():
    cat = catalog()
    assert len(cat) == 13
    assert dict(cat["Hclock1"].amps) == {"00": 1}
    assert dict(cat["Hclock2"].amps) == {"11": 1}
    assert dict(cat["Pyth1"].amps) == {"011": -5, "100": 4, "101": 3}
    assert dict(cat["HinHout"].amps) == {"011": 1}
    assert dict(cat["Hclock3456"].amps) == {"1100": 1}
    for name, st in cat.items():
        g = 0
        for _z, a in st.amps:
            assert isinstance(a, int) and a != 0
            g = gcd(g, abs(a))
        assert g == 1, name


# -- basis cycles ----------------------------------------------------------------


def test_basis_cycle_single_qubit():
    c0 = basis_cycle(1, "0")
    assert c0.vertices == ("q1.a2", "q1.a3", "q1.a4", "q1.x")
    assert c0.n_edges == 4 and (c0.adjacency.sum(axis=1) == 2).all()
    assert ("q1.a2", "q1.x") not in c0.edges  # the loop is x-a3-a2-a4
    c1 = basis_cycle(1, "1")
    assert c1.vertices == ("q1.b2", "q1.b3", "q1.b4", "q1.x")


def test_basis_cycle_two_qubit_is_g4():
    c = basis_cycle(2, "00")
    assert c.n_vertices == 8
    K = built(c, 4)
    assert len(simplices(K, 3)) == 16  # 2^4 maximal simplices of the 16-cell
    assert len(simplices(K, 4)) == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_basis_cycle_is_the_induced_qubit_subgraph(m):
    q = qubit_graph(m)
    for i in range(2 ** m):
        c = basis_cycle(m, format(i, f"0{m}b"))
        assert c == induced_subgraph(q, c.vertices)


def test_basis_chain_properties():
    K = built(qubit_graph(2), 4)
    ch = basis_chain(K, "01")
    assert len(ch) == 16
    assert all(abs(c) == 1 for c in ch.values())


# -- build_K and apply_f ---------------------------------------------------------


def test_build_K_basis_state_is_identity():
    kg, rel, order = build_K(IntegerState.from_dict(1, {"0": 1}))
    assert kg == basis_cycle(1, "0")
    assert rel == {v: v for v in kg.vertices}
    assert order is None


def test_build_K_minus_state_is_octagon():
    kg, rel, _ = build_K(IntegerState.from_dict(1, {"0": 1, "1": -1}))
    assert kg.n_vertices == 8
    assert "x1" in kg.vertices
    assert (kg.adjacency.sum(axis=1) == 2).all()  # a single cycle
    assert rel["x1"] == "q1.x"
    assert all(rel[v] == v for v in kg.vertices if v != "x1")


def test_build_K_two_qubit_singlet_like():
    kg, rel, _ = build_K(IntegerState.from_dict(2, {"00": 1, "11": -1}))
    assert kg.n_vertices == 18
    dummies = [v for v in kg.vertices if v.startswith("x")]
    assert sorted(dummies) == ["x1", "x2", "x3", "x4"]
    assert all(rel[d] == "q1.x" for d in dummies)
    K = built(kg, 5)
    assert betti_table([K]).as_dict() == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 1, 4: 0}


def test_build_K_spheres_for_many_states():
    cases = [
        (1, {"0": 1, "1": 2}),
        (2, {"00": 1, "11": 2}),
        (2, {"00": 1, "11": 3}),
        (2, {"00": 1, "01": 1, "10": 1, "11": 1}),
    ]
    for m, amps in cases:
        kg, rel, _ = build_K(IntegerState.from_dict(m, amps))
        K = built(kg, 2 * m + 2)
        table = betti_table([K]).as_dict()
        assert all(
            v == (1 if k == 2 * m - 1 else 0) for k, v in table.items()
        ), (amps, table)


def test_unsupported_locality_is_reported():
    with pytest.raises(UnsupportedStateError):
        build_K(IntegerState.from_dict(3, {"000": 1, "111": -1}))


def test_apply_f_identity_is_noop():
    kg, rel, _ = build_K(IntegerState.from_dict(1, {"0": 1}))
    K = built(kg, 2)
    assert apply_f(K, rel).graph == kg


def test_apply_f_on_octagon_gives_cycle_simplices():
    st = IntegerState.from_dict(1, {"0": 1, "1": -1})
    kg, rel, _ = build_K(st)
    K = built(kg, 2)
    expect = clique_complex(target_cycle_graph(st), 2)
    Q = apply_f(K, rel)
    assert {k: simplices(Q, k) for k in Q.ids} == {k: simplices(expect, k) for k in expect.ids}


def test_quotient_that_breaks_2_determinedness_is_rejected():
    """Identifying near vertices of a 5-cycle creates an unwitnessed triangle."""
    from homology_lab.errors import HomologyLabError
    from homology_lab.graph import make_graph

    g = make_graph(
        {"a": 0, "a2": 0, "b": 0, "c": 0, "d": 0},
        [("a", "b"), ("b", "c"), ("c", "a2"), ("a", "d"), ("d", "a2")],
    )
    K = built(g, 2)
    rel = {"a": "a", "a2": "a", "b": "b", "c": "c", "d": "d"}
    with pytest.raises(HomologyLabError):
        apply_f(K, rel)


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=7), st.data())
def test_every_simplex_maps_onto_a_simplex_of_the_quotient(g, data):
    """The quotient graph's edges are the images of K's uncollapsed edges and
    its complex is built at least as deep as K, so every simplex of K maps
    onto one of its simplices: apply_f checks only that each is hit."""
    targets = data.draw(st.lists(st.integers(0, 3), min_size=g.n_vertices, max_size=g.n_vertices))
    relation = {v: f"t{t}" for v, t in zip(g.vertices, targets)}
    K = clique_complex(g, data.draw(st.integers(0, g.n_vertices - 1)))
    edges = {tuple(sorted((relation[u], relation[v]))) for u, v in g.edges}
    quotient = make_graph(dict.fromkeys(relation.values(), 0), {(u, v) for u, v in edges if u != v})
    Q = clique_complex(quotient, max(K.max_dim, 1))
    for k in range(K.max_dim + 1):
        for s in simplices(K, k):
            assert locate(Q, [tuple(sorted({relation[v] for v in s}))])[0] >= 0
    try:
        image = apply_f(K, relation)
    except HomologyLabError as err:
        assert str(err).startswith("quotient is not 2-determined: extra=[(")
    else:
        assert image.graph == quotient


def test_fundamental_cycle_of_octahedron():
    # the whole bowtie complex is not a sphere; use a basis cycle instead
    Kc = built(basis_cycle(1, "0"), 2)
    fc = fundamental_cycle(Kc)
    assert len(fc) == 4
    assert all(abs(v) == 1 for v in fc.values())
    vec = np.zeros(Kc.dim_size(1))
    vec[list(fc)] = list(fc.values())
    tgt = chain_vector(Kc, 1, basis_chain(Kc, "0"))
    assert np.array_equal(vec, tgt) or np.array_equal(vec, -tgt)


def test_library_chains_carry_integers():
    def integer(chain):
        return chain and all(type(c) is int for c in chain.values())

    K2 = built(qubit_graph(2), 4)
    assert integer(basis_chain(K2, "01"))
    state = IntegerState.from_dict(2, {"00": 1, "11": -1})
    assert integer(target_chain(state, built(target_cycle_graph(state), 4)))
    c = basis_cycle(1, "0")
    Kc = built(c, 2)
    fc = fundamental_cycle(Kc)
    assert integer(fc)
    assert integer(push_chain(dict(zip(simplices(Kc, 1, list(fc)), fc.values())),
                              {v: v for v in c.vertices}))
    q1 = basis_chain(built(qubit_graph(1), 2), "0")
    q2 = {tuple(v.replace("q1.", "q2.") for v in s): x for s, x in q1.items()}
    joined = kunneth_embed(q1, q2, into=K2)
    assert integer(joined) and joined == basis_chain(K2, "00")
    # the exact witness stays rational
    K3 = built(complete_graph(["a", "b", "c"]), 2)
    ok, witness = cycle_is_boundary(K3, {("b", "c"): 1, ("a", "c"): -1, ("a", "b"): 1}, 1)
    assert ok and witness == {("a", "b", "c"): 1}
    assert all(type(v) is Fraction for v in witness.values())


@st.composite
def native_states(draw):
    """A 1- or 2-qubit state with amplitudes in {-2, -1, 1, 2}: every
    superposition build_K covers."""
    m = draw(st.integers(1, 2))
    bits = draw(st.lists(st.sampled_from([format(i, f"0{m}b") for i in range(2**m)]),
                         min_size=1, unique=True))
    return IntegerState.from_dict(m, {z: draw(st.sampled_from([-2, -1, 1, 2])) for z in bits})


@settings(max_examples=20, deadline=None)
@given(native_states(), st.data())
def test_orientation_check_vectors_match_the_label_oracle(state, data):
    """The two sides of fill_cycle's orientation check, against label
    chains: K's fundamental cycle pushed through the relation, and the
    amplitudes times their basis cycles on the quotient J.  K's vertices
    are renamed in a random order, so that pushing a simplex permutes its
    vertices (the native relations keep every simplex's order)."""
    k_graph, relation, _order = build_K(state)
    names = [f"k{i:03d}" for i in range(k_graph.n_vertices)]
    rename = dict(zip(k_graph.vertices, data.draw(st.permutations(names))))
    k_graph = relabel(k_graph, rename)
    relation = {rename[v]: t for v, t in relation.items()}
    K = clique_complex(k_graph, k_graph.n_vertices - 1)
    J = apply_f(K, relation)
    top = K.top_dimension()
    cycle = fundamental_cycle(K)
    pushed = gadgets._pushed_cycle(K, J, relation)
    labelled = dict(zip(simplices(K, top, list(cycle)), cycle.values()))
    assert np.array_equal(pushed, chain_vector(J, top, push_chain(labelled, relation)))
    qubits = range(1, state.m + 1)
    target = sum(a * gadgets._cycle_vector(J, qubits, z) for z, a in state.amps)
    assert np.array_equal(target, chain_vector(J, top, target_chain(state, J)))
    assert np.array_equal(pushed, target) or np.array_equal(pushed, -target)


def test_push_alignment_failure_is_reported():
    """The |0> - |1> sphere pushed onto the cycle is not the |0> + |1> chain."""
    kg, rel, order = build_K(IntegerState.from_dict(1, {"0": 1, "1": -1}))
    plus = IntegerState.from_dict(1, {"0": 1, "1": 1})
    with pytest.raises(OrientationAlignmentError):
        fill_cycle(target_cycle_graph(plus), kg, rel, state=plus, order=order)


def test_fill_cycle_rejects_non_surjective_relation():
    st = IntegerState.from_dict(1, {"0": 1})
    kg, rel, _ = build_K(st)
    bad = dict(rel)
    bad["q1.a2"] = "q1.a3"
    with pytest.raises(GraphFormatError):
        fill_cycle(target_cycle_graph(st), kg, bad)


def _misses_an_edge():
    """A 6-path onto the hexagon: the edge h6-h1 has no preimage."""
    ring = cycle_graph(6)
    ks = [f"k{i}" for i in range(1, 7)]
    path = make_graph({k: 0 for k in ks}, [(ks[i], ks[i + 1]) for i in range(5)])
    return ring, path, {f"k{i}": f"h{i}" for i in range(1, 7)}


def _adds_an_edge():
    """An 8-cycle onto the hexagon whose last two edges both land on h1-h4."""
    ring = cycle_graph(6)
    ks = [f"k{i}" for i in range(1, 9)]
    octagon = make_graph({k: 0 for k in ks}, [(ks[i], ks[(i + 1) % 8]) for i in range(8)])
    relation = {f"k{i}": f"h{i}" for i in range(1, 7)} | {"k7": "h1", "k8": "h4"}
    return ring, octagon, relation


@pytest.mark.parametrize("case", [_misses_an_edge, _adds_an_edge], ids=["misses", "adds"])
def test_fill_cycle_rejects_an_image_other_than_the_cycle(case):
    ring, kg, relation = case()
    with pytest.raises(HomologyLabError, match="does not reproduce the target cycle"):
        fill_cycle(ring, kg, relation)


# -- full gadgets -----------------------------------------------------------------


def added_vertices(g):
    return {v for v in g.vertices if g.exponent(v)}


def test_zero_gadget_graph():
    g = gadget(IntegerState.from_dict(1, {"0": 1}))
    added = added_vertices(g)
    assert len(added) == 5  # four inner vertices plus the center
    assert CENTER in added
    assert set(g.vertices) - added == {"q1.x", "q1.a2", "q1.a3", "q1.a4"}
    assert set(g.exponents) == {0, 1}


@pytest.mark.parametrize(
    "m,amps", [(1, {"0": 1, "1": -1}), (2, {"00": 1})], ids=["1q-two-amplitude", "2q-basis"]
)
def test_gadget_enumerates_four_clique_complexes(monkeypatch, m, amps):
    """K, its quotient J (which also carries the target chain), the coned
    shell and its quotient: one enumeration each."""
    import homology_lab.gadgets as gadgets

    calls = []

    def counting(g, max_dim):
        calls.append(g.n_vertices)
        return clique_complex(g, max_dim)

    monkeypatch.setattr(gadgets, "clique_complex", counting)
    gadget(IntegerState.from_dict(m, amps))
    assert len(calls) == 4


def test_two_qubit_basis_gadget_graph():
    g = gadget(IntegerState.from_dict(2, {"00": 1}))
    assert len(added_vertices(g)) == 9  # thickened shell interior + center


GADGET_CASES = [
    (1, {"0": 1}),
    (1, {"1": 1}),
    (1, {"0": 1, "1": -1}),
    (1, {"0": 1, "1": 2}),
    (2, {"00": 1}),
    (2, {"11": 1}),
    (2, {"00": 1, "11": -1}),
    (2, {"00": 1, "11": 2}),
]


@pytest.mark.parametrize("m,amps", GADGET_CASES)
def test_glued_gadget_homology(m, amps):
    st = IntegerState.from_dict(m, amps)
    g = glue(qubit_graph(m), gadget(st))
    K = built(g, 2 * m + 4)
    table = betti_table([K]).as_dict()
    want = 2 ** m - 1
    assert all(v == (want if k == 2 * m - 1 else 0) for k, v in table.items()), table
    assert abs(euler_characteristic([K]).reduced) == want


def test_glue_validations():
    bp = gadget(IntegerState.from_dict(1, {"0": 1}))
    with pytest.raises(GraphFormatError):
        glue(basis_cycle(1, "1"), bp)  # missing boundary vertices
    from homology_lab.graph import make_graph

    reweighted = qubit_graph(1)
    weights = reweighted.weight_map()
    weights["q1.x"] = 1
    with pytest.raises(GraphFormatError):
        glue(make_graph(weights, reweighted.edges), bp)


def test_glue_rejects_a_base_without_the_cycle_edges():
    bp = gadget(IntegerState.from_dict(1, {"0": 1}))
    base = qubit_graph(1)
    cut = make_graph(base.weight_map(), base.edges - {("q1.a2", "q1.a3")})
    with pytest.raises(GraphFormatError, match="missing cycle edges"):
        glue(cut, bp)


def test_glue_rejects_an_added_vertex_already_in_the_base():
    bp = gadget(IntegerState.from_dict(1, {"0": 1}))
    base = qubit_graph(1)
    crowded = make_graph(base.weight_map() | {"g.center": 1}, base.edges)
    with pytest.raises(GraphFormatError, match="collides with base graph"):
        glue(crowded, bp)


def test_filled_cycle_bounds_and_others_do_not():
    st = IntegerState.from_dict(1, {"0": 1, "1": -1})
    g = glue(qubit_graph(1), gadget(st))
    K = built(g, 3)
    target = target_chain(st, K)
    ok, witness = cycle_is_boundary(K, target, 1)
    assert ok and witness
    # the witness's boundary, from the face rule, is the target chain exactly
    bd = {}
    for tau, c in witness.items():
        for i in range(len(tau)):
            face = tau[:i] + tau[i + 1 :]
            bd[face] = bd.get(face, 0) + (-1) ** i * c
    assert {s: v for s, v in bd.items() if v} == target
    # the orthogonal combination |0> + |1> stays non-bounding
    plus = target_chain(IntegerState.from_dict(1, {"0": 1, "1": 1}), K)
    ok2, _ = cycle_is_boundary(K, plus, 1)
    assert not ok2


def test_hexagon_fixture_shape():
    hx = hexagon()
    assert hx.n_vertices == 13
    K = built(hx, 3)
    assert K.counts() == {-1: 1, 0: 13, 1: 30, 2: 18, 3: 0}
    gadget_vertices = [v for v in hx.vertices if hx.exponent(v) == 1]
    assert len(gadget_vertices) == 7
    assert betti(K, 1) == 0  # the hexagon is filled


def test_hexagon_is_gadget_pipeline_output():
    ring = cycle_graph(6)
    g = fill_cycle(ring, ring, {v: v for v in ring.vertices})
    assert len(added_vertices(g)) == 7


def test_harmonic_angle_decays_linearly():
    st = IntegerState.from_dict(1, {"0": 1, "1": -1})
    g = gadget_graph(st)
    K = built(g, 3)
    span = orthogonal_cycle_span(K, st)
    angles = {}
    for lam in (0.2, 0.1):
        hb = harmonic_basis(K, 1, lam)
        angles[lam] = float(np.max(scipy.linalg.subspace_angles(hb.basis, span)))
    ratio = angles[0.1] / angles[0.2]
    assert 1 / 2.6 <= ratio <= 1 / 1.4


def test_basis_gadget_kernel_is_exactly_aligned():
    st = IntegerState.from_dict(1, {"0": 1})
    K = built(gadget_graph(st), 3)
    span = orthogonal_cycle_span(K, st)
    hb = harmonic_basis(K, 1, 0.2)
    angle = float(np.max(scipy.linalg.subspace_angles(hb.basis, span)))
    assert angle < 1e-9
