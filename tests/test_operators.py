import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings

from homology_lab.complexes import CliqueComplex, clique_complex, factor_complexes
from homology_lab.errors import GraphFormatError, HomologyLabError
from homology_lab.fixtures import gadget_graph, named_fixtures
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
from homology_lab.operators import MonomialMatrix, coboundary, laplacian
from homology_lab.reduction import decide, parse_hamiltonian, reduce_hamiltonian
from homology_lab.spectra import DEFAULT_GRID, join_lambda_min, spectrum, sweep

from conftest import built, complete_graph, graphs, positions, seeded_graphs
from reference import (
    chain_vector,
    embedded_entry,
    kunneth_embed,
    laplacian_down,
    laplacian_entry,
    laplacian_up,
    poly_eval_float,
)
from test_cli import HAMILTONIANS

K3 = complete_graph(["a", "b", "c"])


def test_augmentation_of_edge_graph():
    g = make_graph({"a": 0, "b": 0}, [("a", "b")])
    d = coboundary(built(g, 1), -1)
    assert d.rows == 2 and d.cols == 1
    assert d.entries.get((0, 0), {}) == {0: 1}
    assert d.entries.get((1, 0), {}) == {0: 1}


def test_weighted_augmentation():
    g = make_graph({"a": 1, "b": 0}, [])
    d = coboundary(built(g, 1), -1)
    assert d.entries.get((0, 0), {}) == {1: 1}  # lam^1 on the weighted vertex
    assert d.entries.get((1, 0), {}) == {0: 1}


def test_bowtie_top_coboundary_is_zero_map():
    d = coboundary(built(bowtie(), 2), 1)
    assert d.rows == 0 and d.cols == 8
    assert not d.slices and d.entries == {}


@settings(max_examples=20, deadline=None)
@given(graphs(max_vertices=7, wmax=1))
def test_chain_complex_law(g):
    """d^{k+1} d^k = 0 and its transpose, the boundary square, = 0.

    Every term of entry (rho, sigma) of d^{k+1} d^k carries the exponent
    level(rho) - level(sigma), so the entry is c * lam**e with one integer c,
    and its value at lam = 1, an exact sum of +-1 products, is c.
    """
    K = clique_complex(g, min(g.n_vertices, 5))
    for k in range(-1, K.max_dim - 1):
        d0, d1 = coboundary(K, k).evaluate(1.0), coboundary(K, k + 1).evaluate(1.0)
        assert (d1 @ d0).count_nonzero() == 0
        assert (d0.T @ d1.T).count_nonzero() == 0


def assert_stored_form(M):
    """Read-only slices, exponents ascending, each an integer CSR matrix of
    M's shape with no stored zero and no (row, col) stored twice."""
    assert isinstance(M.slices, MappingProxyType)
    assert list(M.slices) == sorted(M.slices)
    for S in M.slices.values():
        assert S.format == "csr" and S.shape == (M.rows, M.cols)
        assert np.issubdtype(S.dtype, np.integer) and S.data.all()
        C = S.tocoo()
        assert len(set(zip(C.row.tolist(), C.col.tolist()))) == S.nnz


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=7, wmax=3))
def test_operators_are_built_in_stored_form(g):
    """The constructor checks only format, shape and dtype, so every builder
    must hand its slices over without stored zeros or repeated cells."""
    K = clique_complex(g, g.n_vertices - 1)
    for k in range(-2, K.max_dim + 1):
        assert_stored_form(coboundary(K, k))
        assert_stored_form(laplacian(K, k))


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=7, wmax=3))
def test_levels_and_coboundary_exponents_are_vertex_exponent_sums(g):
    """Each recorded level is its simplex's exponent sum, and each coboundary
    entry is one monomial with the exponent of the vertex its row adds to its
    column."""
    K = clique_complex(g, g.n_vertices - 1)
    for k in range(-1, K.max_dim + 1):
        assert K.levels[k].tolist() == [sum(map(g.exponent, s)) for s in K.simplices(k)]
    for k in range(-1, K.max_dim):
        rows, cols = K.simplices(k + 1), K.simplices(k)
        for (r, c), poly in coboundary(K, k).entries.items():
            (v,) = set(rows[r]) - set(cols[c])
            assert set(cols[c]) < set(rows[r]) and list(poly) == [g.exponent(v)]


def test_boundary_of_vertex_is_weighted_empty_simplex():
    g = make_graph({"a": 1, "b": 0}, [])
    K = built(g, 1)
    b = coboundary(K, -1).evaluate(0.5).T
    assert b[0, positions(K, [("a",)])[0]] == 0.5  # lam^1 on the weighted vertex
    assert b[0, positions(K, [("b",)])[0]] == 1.0


def test_boundary_of_bowtie_loop_is_zero():
    K = built(bowtie(), 2)
    cols = coboundary(K, 0).int_rows_at_one()  # the columns of the boundary
    loop = [("a3", "x"), ("a2", "a3"), ("a2", "a4"), ("a4", "x")]
    signs = [-1, -1, 1, 1]  # traversal x -> a3 -> a2 -> a4 -> x
    acc = {}
    for e, s in zip(loop, signs):
        for r, v in cols.get(positions(K, [e])[0], {}).items():
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
    """laplacian's slices are exactly those of the sum of the reference's
    down and up parts, which take every ordered pair of coboundary slices
    instead of laplacian's half of the pairs and their transposes; both
    parts are positive semidefinite."""
    for g in [*named_fixtures().values(), *seeded_graphs(12, 8, wmax=2, seed=51)]:
        K = built(g, g.n_vertices)  # complete
        for k in range(-1, K.top_dimension() + 1):
            L, down, up = laplacian(K, k), laplacian_down(K, k), laplacian_up(K, k)
            parts = MonomialMatrix(L.rows, L.cols, [*down.slices.items(), *up.slices.items()])
            assert list(L.slices) == list(parts.slices)
            assert all((L.slices[e] != parts.slices[e]).nnz == 0 for e in L.slices)
    K = built(qubit_graph(1), 2)
    for k in (0, 1):
        for part in (laplacian_down(K, k), laplacian_up(K, k)):
            vals = np.linalg.eigvalsh(part.evaluate_dense(0.7))
            assert vals.min() > -1e-10


def test_every_assembled_laplacian_is_exactly_symmetric():
    """eigensolve solves L as given, so L must equal L^T bit for bit."""
    cases = list(named_fixtures().values()) + [
        reduce_hamiltonian(parse_hamiltonian(text)).graph
        for name, text in HAMILTONIANS.items()
        if name.startswith("h-2q")
    ]
    for g in cases:
        K = built(g, g.n_vertices)  # complete
        for k in range(-1, K.top_dimension() + 1):
            M = laplacian(K, k)
            for lam in (1.0, 0.5, 0.1):
                L = M.evaluate(lam)
                assert (L != L.T).nnz == 0, (g.n_vertices, k, lam)


@pytest.mark.parametrize("g", [bowtie(), gadget_graph(IntegerState.from_dict(1, {"0": 1}))])
def test_laplacians_below_degree_zero(g):
    K = built(g, 2)
    down = laplacian_down(K, -1)
    assert (down.rows, down.cols) == (1, 1) and not down.slices
    assert laplacian(K, -1).entries == laplacian_up(K, -1).entries
    for part in (laplacian, laplacian_up, laplacian_down):
        M = part(K, -2)
        assert (M.rows, M.cols) == (0, 0) and not M.slices


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
            b = coboundary(K, k - 1).evaluate(lam).T
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

    k = i + j + 1
    lhs = laplacian(K, k).evaluate_dense(lam) @ chain_vector(K, k, emb)
    Lpsi = laplacian(KL, i).evaluate_dense(lam) @ chain_vector(KL, i, psi)
    Lphi = laplacian(KR, j).evaluate_dense(lam) @ chain_vector(KR, j, phi)
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
    rhs = chain_vector(K, k, t1) + chain_vector(K, k, t2)
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_row_sparsity_bound():
    # the (row, col) cells of the symbolic entries, not those of an
    # evaluation, where a cancellation would hide one
    for g in seeded_graphs(5, 9, wmax=1, seed=21):
        K = clique_complex(g, min(g.n_vertices, 5))
        for k in range(0, K.max_dim):
            L = laplacian(K, k)
            per_row = Counter(r for r, _c in L.entries)
            assert max(per_row.values(), default=0) <= (k + 2) * g.n_vertices + 1


def test_entrywise_formula_matches_assembly():
    for g in seeded_graphs(20, 9, wmax=1, seed=31):
        K = clique_complex(g, min(g.n_vertices, 6))
        for k in range(-1, K.max_dim):
            L = laplacian(K, k)
            sims = K.simplices(k)
            for a, s in enumerate(sims):
                for b, t in enumerate(sims):
                    assert laplacian_entry(K, k, s, t) == L.entries.get((a, b), {})


def _entrywise_polys(K, k):
    sims = K.simplices(k)
    return [[laplacian_entry(K, k, s, t) for t in sims] for s in sims]


@pytest.mark.parametrize("wmax", [1, 2])
def test_evaluation_matches_entrywise_sum(wmax):
    """evaluate(lam) is the matrix of sum c * lam**e, bit for bit at wmax = 1.

    With exponents in {0, 1} an entry has at most two monomials, so the
    order of its float sum cannot matter; at wmax = 2 a diagonal entry has
    three, and the sums may differ in the last bits.
    """
    for g in seeded_graphs(12, 8, wmax=wmax, seed=41):
        K = clique_complex(g, min(g.n_vertices, 5))
        for k in range(-1, K.max_dim):
            polys = _entrywise_polys(K, k)
            L = laplacian(K, k)
            for lam in (*DEFAULT_GRID, 1.0):
                n = len(polys)
                want = np.array([[poly_eval_float(p, lam) for p in row] for row in polys])
                want = want.reshape(n, n)
                got = L.evaluate(lam).toarray()
                if wmax == 1:
                    assert np.array_equal(got, want)
                else:
                    norm = np.abs(want).sum(axis=1).max(initial=0.0)
                    assert np.abs(got - want).max(initial=0.0) <= 8 * np.finfo(float).eps * norm


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
    assert entry == L.entries.get(tuple(positions(K, [("a", "b"), ("b", "c")])), {})
    assert entry != {}


def csr(rows, dtype=np.int64):
    return scipy.sparse.csr_matrix(np.array(rows, dtype=dtype))


def test_evaluate_identity_and_arithmetic():
    m = MonomialMatrix(1, 1, [(2, csr([[3]])), (0, csr([[-1]]))])
    assert list(m.slices) == [0, 2]
    assert m.entries.get((0, 0), {}) == {2: 3, 0: -1}
    assert m.evaluate(1.0)[0, 0] == 2.0
    assert m.evaluate(0.5)[0, 0] == -0.25
    assert m.int_rows_at_one() == {0: {0: 2}}
    # the monomials cancel at lam := 1
    assert MonomialMatrix(1, 1, [(0, csr([[-1]])), (2, csr([[1]]))]).int_rows_at_one() == {}
    # slices of one exponent are summed
    assert MonomialMatrix(1, 1, [(1, csr([[2]])), (1, csr([[5]]))]).entries == {(0, 0): {1: 7}}
    m2 = MonomialMatrix(2, 2, [(1, csr([[0, -1], [0, 0]])), (0, csr([[0, 0], [3, 0]]))])
    assert (m2.rows, m2.cols) == (2, 2) and m2.entries == {(0, 1): {1: -1}, (1, 0): {0: 3}}
    assert m2.int_rows_at_one() == {0: {1: -1}, 1: {0: 3}}
    with pytest.raises(TypeError):
        m2.slices[2] = csr([[1, 0], [0, 1]])
    with pytest.raises(GraphFormatError):
        m.evaluate(0.0)
    with pytest.raises(GraphFormatError):
        m.evaluate(1.5)


@pytest.mark.parametrize(
    "shape, pairs",
    [
        ((2, 2), [(0, csr([[1, 0]]))]),
        ((1, 1), [(0, csr([[1, 0]]))]),
        ((2, 1), [(0, csr([[1, 0]]))]),
        ((1, 1), [(0, csr([[1]])), (1, csr([[1, 0]]))]),
        ((1, 1), [(0, csr([[0.5]], np.float64))]),
        ((1, 1), [(0, csr([[1]])), (0, csr([[1.0]], np.float64))]),
        ((1, 1), [(0, csr([[True]], np.bool_))]),
        ((1, 1), [(0, np.array([[1]]))]),
    ],
    ids=["rows-short", "cols-long", "transposed", "second-slice", "float", "float-summand", "bool",
         "dense"],
)
def test_monomial_matrix_refuses_a_slice_not_an_integer_csr_matrix_of_its_shape(shape, pairs):
    """A slice of another shape or format, or with float coefficients, would
    make ``evaluate`` fail or disagree with ``entries``."""
    with pytest.raises(HomologyLabError):
        MonomialMatrix(*shape, pairs)


def test_the_float_path_never_builds_the_entries_view(monkeypatch):
    """spectrum, sweep, join_lambda_min and decide read only the slices, so
    every coboundary they leave cached still has ``entries`` unbuilt.  The
    benchmark's tracer wraps or reads the other views, which stay."""
    assert {"entries", "int_rows_at_one", "evaluate", "evaluate_dense"} <= set(vars(MonomialMatrix))
    built_ = []
    init = CliqueComplex.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built_.append(self)

    monkeypatch.setattr(CliqueComplex, "__init__", recording_init)
    fixtures = named_fixtures()
    for name, k in (("bowtie", 1), ("gadget-0", 1), ("two-gadgets-1q", 2)):
        K = clique_complex(fixtures[name], k + 1)
        spectrum(K, k, 0.5)
        sweep(K, k)
        join_lambda_min(factor_complexes(fixtures[name], k), k, 0.3)
    for name in ("h-1q-no", "h-2q-yes", "h-3q-no"):
        decide(parse_hamiltonian(HAMILTONIANS[name]))
    cached = [M for K in built_ for M in K._coboundaries.values()]
    assert len(cached) > 10 and all(M._entries is None for M in cached)


def test_embedded_entry_cases():
    K = built(bowtie(), 3)
    n = K.graph.n_vertices
    # x = y not a 2-clique: the penalty
    bits = ["0"] * n
    bits[0] = bits[1] = "1"
    v0, v1 = K.graph.vertices[0], K.graph.vertices[1]
    x = "".join(bits)
    expected = 4.25 if v1 in K.graph.neighbors(v0) else None
    if v1 not in K.graph.neighbors(v0):
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
        if len(sx) == len(sy) == 2 and min(K.locate([sx, sy])) >= 0:
            assert abs(got - L[tuple(positions(K, [sx, sy]))]) < 1e-12
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
