"""Join factorization against the whole complex.

The clique complex of a join is the join of the factors' complexes, so the
factors' exact Betti numbers give the join's by Kunneth, the factors'
smallest Laplacian eigenvalues give the join's as a minimum of sums, and the
factors' Gram matrices of basis cycles give the join's as a product.  The
whole complex is the oracle: Betti numbers must agree exactly, lambda_min
within LAMBDA_MIN_ULPS * eps * ||L||, ||L|| the whole Laplacian's largest
absolute row sum, and the rounded overlap rows exactly.
"""

import os
import subprocess
import sys
import time
from itertools import combinations, product
from math import prod
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homology_lab import complexes, homology, reduction, spectra
from homology_lab.complexes import clique_complex, factor_complexes
from homology_lab.errors import DimensionError, GapAmbiguityError, HomologyLabError
from homology_lab.graph import (
    bowtie,
    join_all,
    join_factors,
    make_graph,
    qubit_graph,
    unweighted,
)
from homology_lab.homology import (
    EulerCharacteristic,
    betti,
    betti_table,
    coboundary_rank,
    euler_characteristic,
    join_betti,
    join_series,
)
from homology_lab.operators import coboundary, laplacian
from homology_lab.reduction import decide, parse_hamiltonian, reduce_hamiltonian
from homology_lab.spectra import (
    DEFAULT_GRID,
    join_lambda_min,
    join_spectrum,
    lambda_min,
    spectrum,
    sweep,
)

from conftest import graphs
from reference import simplices
from test_cli import HAMILTONIANS
from test_reduction import H_of

LAMBDA_MIN_ULPS = 16
# a whole dense solve of dimension 1,801 (the 3q-no graph in degree 2) is
# itself off by more than 16 eps ||L||: LAPACK's evd and evr drivers differ
# on it by up to 25 eps ||L||, and the factor spectrum is within 31 of evr
SWEEP_ULPS = 64
EPS = np.finfo(float).eps


def complete(g):
    return clique_complex(g, max_dim=g.n_vertices - 1)


def whole_row_sum(K, k, lam):
    L = laplacian(K, k).evaluate(lam)
    return float(abs(L).sum(axis=1).max()) if L.nnz else 0.0


def assert_join_matches_whole(splits, K, k, lam):
    """Each factor list in ``splits`` against the whole complex K in degree k:
    the convolved chain dimensions, the Betti number and lambda_min."""
    whole = lambda_min(K, k, lam)
    bound = LAMBDA_MIN_ULPS * EPS * whole_row_sum(K, k, lam)
    joined = []
    for Ks in splits:
        dims = (prod(Kj.dim_size(i) for Kj, i in zip(Ks, s)) for s in product_splits(Ks, k))
        assert sum(dims) == K.dim_size(k)
        assert join_betti(Ks, k) == betti(K, k)
        joined.append(join_lambda_min(Ks, k, lam))
        assert abs(joined[-1] - whole) <= bound, (k, whole, joined[-1], bound)
    return whole, joined


# -- join_factors ----------------------------------------------------------------


def test_join_factors_of_the_qubit_graph_are_its_bowties():
    factors = join_factors(qubit_graph(3))
    assert [f.n_vertices for f in factors] == [7, 7, 7]
    assert [f.vertices[0] for f in factors] == ["q1.a2", "q2.a2", "q3.a2"]
    assert all(len(join_factors(f)) == 1 for f in factors)


def test_join_factors_of_a_non_join_is_the_graph_itself():
    g = bowtie()
    assert join_factors(g) == (g,)


def test_join_factors_split_off_a_cone_point():
    # a triangle is the join of three points; the 4-cycle is the join of two pairs
    g = make_graph({"a": 1, "b": 0, "c": 0, "d": 0, "e": 0},
                   [("a", x) for x in "bcde"] + [("b", "c"), ("c", "d"), ("d", "e"), ("e", "b")])
    factors = join_factors(g)
    assert [f.vertices for f in factors] == [("a",), ("b", "d"), ("c", "e")]
    assert factors[0].exponents == (1,)
    assert all(f.n_edges == 0 for f in factors)


def complement_walk_factors(g):
    """Reference: the complement's edges listed pair by pair, its components
    walked from each vertex in order, each induced on g by filtering g's
    label edges."""
    co = {v: set() for v in g.vertices}
    for u, v in combinations(g.vertices, 2):
        if (u, v) not in g.edges:
            co[u].add(v)
            co[v].add(u)
    seen, parts = set(), []
    for v in g.vertices:
        if v not in seen:
            part, stack = {v}, [v]
            while stack:
                new = co[stack.pop()] - part
                part |= new
                stack += new
            seen |= part
            parts.append(part)
    if len(parts) <= 1:
        return (g,)
    weight = g.weight_map()
    return tuple(make_graph({v: weight[v] for v in p}, [e for e in g.edges if set(e) <= p])
                 for p in parts)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    graphs(max_vertices=9, wmax=1),
    st.lists(graphs(max_vertices=4, wmax=1), min_size=1, max_size=4).map(join_all),
))
def test_join_factors_match_a_walk_of_the_non_edges(g):
    assert join_factors(g) == complement_walk_factors(g)


# -- the product over the factors ------------------------------------------------


def product_splits(Ks, k):
    """Reference: every tuple of nonempty factor degrees summing to
    k - (f - 1), taken from the product of the factors' degree lists one
    factor at a time; a prefix is dropped once the factors after it cannot
    complete it, so that many idle bowties stay enumerable."""
    degrees = [[i for i in range(-1, k + 1) if K.dim_size(i)] for K in Ks]
    target, splits = k - len(Ks) + 1, [()]
    for j, ds in enumerate(degrees):
        rest = degrees[j + 1 :]
        lo, hi = -len(rest), sum(max(d, default=-1) for d in rest)
        splits = [s + (i,) for s in splits for i in ds if lo <= target - sum(s) - i <= hi]
    return splits


def unpruned_splits(Ks, k):
    """``product_splits`` without pruning: the whole product of the degree
    lists, each tuple kept when it sums to k - (f - 1)."""
    degrees = [[i for i in range(-1, k + 1) if K.dim_size(i)] for K in Ks]
    return [s for s in product(*degrees) if sum(s) == k - len(Ks) + 1]


def outcome(f, *args):
    try:
        return f(*args)
    except HomologyLabError as exc:
        return type(exc), str(exc)


@st.composite
def built_factors(draw):
    """1-5 factor complexes and a degree k >= -1; each factor complete, built
    to k, or built to k - 1 (too shallow unless it is complete anyway)."""
    k = draw(st.integers(-1, 8))
    factors = draw(st.lists(graphs(max_vertices=4), min_size=1, max_size=5))
    depths = draw(st.lists(st.sampled_from(["complete", "k", "k - 1"]),
                           min_size=len(factors), max_size=len(factors)))
    top = {"complete": lambda g: g.n_vertices - 1, "k": lambda g: k, "k - 1": lambda g: k - 1}
    return [clique_complex(g, max(top[d](g), 0)) for g, d in zip(factors, depths)], k


def split_sums(Ks, k, lam):
    """Reference join_betti and join_lambda_min: the sum over
    ``product_splits`` of the products of factor Betti numbers, and the
    minimum over them of the factors' lambda_min added left to right."""
    splits = product_splits(Ks, k)
    b = sum(prod(betti(Kj, i) for Kj, i in zip(Ks, s)) for s in splits)
    lm = min((sum(lambda_min(Kj, i, lam) for Kj, i in zip(Ks, s)) for s in splits), default=0.0)
    return b, lm


@settings(max_examples=300, deadline=None)
@given(built_factors())
def test_the_product_over_the_factors_matches_the_sums_over_the_splits(case):
    """join_betti and join_lambda_min, bit for bit, and on complete factors
    every chain dim of the Betti table, equal the sums over the splits, or
    refuse with the same error; the pruned splits are the whole product's."""
    Ks, k = case
    assert outcome(product_splits, Ks, k) == outcome(unpruned_splits, Ks, k)
    joined = outcome(lambda: (join_betti(Ks, k), join_lambda_min(Ks, k, 0.3)))
    assert joined == outcome(split_sums, Ks, k, 0.3)
    if all(K.complete for K in Ks):
        table = betti_table(Ks)
        for row, dim in zip(table.ks, table.chain_dims):
            assert dim == sum(prod(Kj.dim_size(i) for Kj, i in zip(Ks, s))
                              for s in product_splits(Ks, row))


def asked_pairs(monkeypatch, Ks, k):
    """The (factor, degree) pairs ``join_lambda_min`` solves, in call order."""
    asked, real = [], spectra.lambda_min
    index = {id(K): j for j, K in reversed(list(enumerate(Ks)))}  # the first of repeats

    def counted(K, i, lam):
        asked.append((index[id(K)], i))
        return real(K, i, lam)

    with monkeypatch.context() as m:
        m.setattr(spectra, "lambda_min", counted)
        join_lambda_min(Ks, k, 0.05)
    return asked


def first_equal(Ks):
    """Each factor's index of the first factor of the same graph (exponents
    and adjacency) and depth."""
    def same(F, K):
        return (F.max_dim == K.max_dim and F.graph.exponents == K.graph.exponents
                and np.array_equal(F.graph.adjacency, K.graph.adjacency))

    return [next(j for j, F in enumerate(Ks) if same(F, K)) for K in Ks]


@pytest.mark.parametrize("case", ["3q-no", "bowties-39", "bowties-38"])
def test_join_lambda_min_solves_each_pair_some_split_uses_once(monkeypatch, case):
    """Twenty bowties in degree 2 * 20 - 1 have one split, each at its top
    degree 1, and in degree 2 * 20 - 2 twenty: the product asks only their
    pairs, where the product of the degree lists has 3^20 tuples, and equal
    factors (all twenty bowties, or the 3q NO's two idle ones) as one."""
    if case == "3q-no":
        Ks, _, k = reduction_complexes(HAMILTONIANS["h-3q-no"])
    else:
        Ks, k = [complete(bowtie()) for _ in range(20)], int(case[-2:])
    asked, first = asked_pairs(monkeypatch, Ks, k), first_equal(Ks)
    expected = {(first[j], i) for s in product_splits(Ks, k) for j, i in enumerate(s)}
    assert sorted(asked) == sorted(expected)
    assert len(product_splits(Ks, k)) == {"3q-no": 3, "bowties-39": 1, "bowties-38": 20}[case]
    assert first == {"3q-no": [0, 1, 1]}.get(case, [0] * 20)


def test_equal_factors_ask_lambda_min_once_per_degree(monkeypatch):
    """Two equal idle bowties are one factor to ``join_lambda_min``; a path
    and four points, of equal exponents, are not, nor one graph built to two
    depths; the value is the sums over the splits either way."""
    bowties = [complete(bowtie()), complete(bowtie())]
    path = complete(unweighted("abcd", [("a", "b"), ("b", "c"), ("c", "d")]))
    points = [complete(unweighted("abcd")) for _ in range(2)]
    for Ks, k, first in ((bowties, 2, [0, 0]), ([path, *points], 3, [0, 1, 1])):
        asked = asked_pairs(monkeypatch, Ks, k)
        assert first_equal(Ks) == first and len(asked) == len(set(asked))
        assert set(asked) == {(first[j], i) for s in product_splits(Ks, k) for j, i in enumerate(s)}
        assert join_lambda_min(Ks, k, 0.05) == split_sums(Ks, k, 0.05)[1]
    # the same path built to 1 is another factor: it still refuses degree 2
    shallow = [path, clique_complex(path.graph, 1)]
    assert first_equal(shallow) == [0, 1]
    with pytest.raises(DimensionError):
        join_lambda_min(shallow, 2, 0.05)


def test_join_series_forms_only_partial_sums_that_can_still_reach_the_degree():
    """Twenty bowties, each adding at most 2 to the degree sum: every
    product the fold forms leaves the factors after it able to reach k + 1."""
    Ks, formed = [complete(bowtie())] * 20, []

    def times(a, b):  # (factors folded, degree sum, dim)
        formed.append((a[0] + b[0], a[1] + b[1]))
        return a[0] + b[0], a[1] + b[1], a[2] * b[2]

    def plus(a, b):
        return a[0], a[1], a[2] + b[2]

    for k, dim in ((39, 8**20), (38, 20 * 7 * 8**19)):
        formed.clear()
        coef = join_series(Ks, k, lambda j, i: (1, i + 1, Ks[j].dim_size(i)), times, plus)
        assert coef == (20, k + 1, dim)
        assert formed and all(e + 2 * (20 - f) >= k + 1 and e <= k + 1 for f, e in formed)


# -- the split against the whole complex ---------------------------------------


@st.composite
def factor_lists(draw):
    """Two graphs of at most 6 vertices or three of at most 4, weight
    exponents 0-1; a single vertex or a vertex adjacent to all others is a
    cone point.  At most 12 vertices in all keep the whole complex small."""
    count = draw(st.sampled_from([2, 3]))
    return draw(st.lists(graphs(max_vertices=6 if count == 2 else 4, wmax=1),
                         min_size=count, max_size=count))


@settings(max_examples=40, deadline=None)
@given(factor_lists())
def test_join_betti_and_lambda_min_match_the_whole_complex(factors):
    g = join_all(factors)
    K = complete(g)
    splits = ([complete(f) for f in factors], [complete(f) for f in join_factors(g)])
    for k in range(-1, g.n_vertices + 1):
        assert_join_matches_whole(splits, K, k, 0.3)


@settings(max_examples=40, deadline=None)
@given(factor_lists())
def test_join_spectrum_matches_the_whole_dense_spectrum(factors):
    g = join_all(factors)
    K = complete(g)
    splits = ([complete(f) for f in factors], [complete(f) for f in join_factors(g)])
    for k in range(-1, g.n_vertices + 1):
        whole = np.linalg.eigvalsh(laplacian(K, k).evaluate(0.3).toarray())
        bound = LAMBDA_MIN_ULPS * EPS * whole_row_sum(K, k, 0.3)
        for Ks in splits:
            joined = join_spectrum(Ks, k, (0.3,))[:, 0]
            assert joined.shape == whole.shape
            assert np.all(np.abs(joined - whole) <= bound), (k, np.abs(joined - whole).max(), bound)


def whole_table(K, reduced):
    """The Betti table of the whole complex K, read off its own ranks: rows
    (k, dim C^k, rank d^k, beta_k) below max_dim and through the top degree,
    which reaches max_dim on a complete graph; unreduced, degree 0 has no
    d^{-1} to quotient by and degree -1 no row."""
    last = max(K.max_dim - 1, K.top_dimension())
    rank = {k: coboundary_rank(K, k) for k in range(-2, last + 1)}
    return [
        (k, K.dim_size(k), rank[k],
         K.dim_size(k) - rank[k] - (rank[k - 1] if reduced or k else 0))
        for k in range(-1 if reduced else 0, last + 1)
    ]


@settings(max_examples=40, deadline=None)
@given(factor_lists())
def test_betti_table_and_euler_from_the_factors_match_the_whole_complex(factors):
    """Every row of the Kunneth table, reduced and unreduced, the Euler
    characteristic from simplex counts and the unreduced ``join_betti``
    equal the whole complex's."""
    g = join_all(factors)
    K = complete(g)
    chi = sum((-1) ** k * c for k, c in K.counts().items() if k >= 0)
    unreduced = {k: b for k, _, _, b in whole_table(K, False)}
    splits = ([complete(f) for f in factors], factor_complexes(g, g.n_vertices - 2))
    for Ks in splits:
        for reduced in (True, False):
            table = betti_table(Ks, reduced)
            rows = list(zip(table.ks, table.chain_dims, table.coboundary_ranks, table.betti))
            assert rows == whole_table(K, reduced)
        assert euler_characteristic(Ks) == EulerCharacteristic(chi, chi - 1)
        for k in range(-2, g.n_vertices + 1):
            assert join_betti(Ks, k, reduced=False) == unreduced.get(k, 0), k


def test_betti_table_of_the_padded_20q_no_from_its_twenty_factors():
    """Factors of 17 vertices and 19 bowties: the middle rows alone have
    3^19 degree splits, and the largest dim C^k is above 2^63.  The dims
    are exact ints, their alternating sum is the Euler characteristic from
    simplex counts, and every row is acyclic."""
    g = reduce_hamiltonian(H_of(20, ([0], {"0": 1}), ([0], {"1": 1}))).graph
    Ks = factor_complexes(g, g.n_vertices - 2)
    assert [K.graph.n_vertices for K in Ks] == [17] + [7] * 19
    table = betti_table(Ks)
    assert all(type(d) is int for d in table.chain_dims) and max(table.chain_dims) > 2**63
    assert sum((-1) ** (k % 2) * d for k, d in zip(table.ks, table.chain_dims)) == (
        euler_characteristic(Ks).reduced
    )
    assert min(table.coboundary_ranks) >= 0 and table.coboundary_ranks[-1] == 0
    assert set(table.betti) == {0}


def reduction_complexes(text):
    res = reduce_hamiltonian(parse_hamiltonian(text))
    return factor_complexes(res.graph, res.k), clique_complex(res.graph, max_dim=res.k + 1), res.k


PADDED_2Q_NO = '{"n":2,"terms":[{"support":[0],"amps":{"0":1}},{"support":[0],"amps":{"1":1}}]}'
PADDED_4Q_NO = PADDED_2Q_NO.replace('"n":2', '"n":4')


@pytest.mark.parametrize("text,sizes,lam", [
    (HAMILTONIANS["h-3q-no"], [17, 7, 7], 0.05),
    (HAMILTONIANS["h-3q-mixed-support"], [45], 0.05),
    (PADDED_2Q_NO, [17, 7], 0.05),
], ids=["3q-no", "3q-mixed-support", "2q-padded-no"])
def test_reduction_graphs_split_as_the_whole_complex(text, sizes, lam):
    Ks, K, k = reduction_complexes(text)
    assert [Kj.graph.n_vertices for Kj in Ks] == sizes
    assert_join_matches_whole([Ks], K, k, lam)


def test_3q_no_whole_matrix_value_lies_within_the_bound():
    """The whole-matrix eigensolve's 1.555664243e-08, the whole complex's
    symmetry blocks' 1.555664208e-08 (``lambda_min``) and the factors'
    1.555664228e-08 differ by at most 4e-16, inside 16 eps ||L||; a 40-digit
    solve of the 1q factor's L_1 gives 1.5556642445e-08."""
    Ks, K, k = reduction_complexes(HAMILTONIANS["h-3q-no"])
    blocks, [joined] = assert_join_matches_whole([Ks], K, k, 0.05)
    whole = homology.eigensolve(laplacian(K, k).evaluate(0.05), 1)[0]
    assert abs(whole - joined) <= LAMBDA_MIN_ULPS * EPS * whole_row_sum(K, k, 0.05)
    assert [f"{x:.10g}" for x in (whole, blocks, joined)] == [
        "1.555664243e-08", "1.555664208e-08", "1.555664228e-08"
    ]


def whole_sweep(monkeypatch, K, k):
    """``sweep`` with the graph taken as a single factor: the whole-matrix solve."""
    with monkeypatch.context() as m:
        m.setattr(spectra, "join_factors", lambda g: (g,))
        return sweep(K, k)


@pytest.mark.parametrize("text,k", [
    (HAMILTONIANS["h-3q-no"], 2),
    (PADDED_2Q_NO, 3),
], ids=["3q-no-k2", "2q-padded-no-k3"])
def test_sweep_on_the_factors_matches_the_whole_matrix_sweep(monkeypatch, text, k):
    res = reduce_hamiltonian(parse_hamiltonian(text))
    K = clique_complex(res.graph, max_dim=k + 1)
    assert len(join_factors(res.graph)) > 1
    joined, whole = sweep(K, k), whole_sweep(monkeypatch, K, k)
    bound = SWEEP_ULPS * EPS * max(whole_row_sum(K, k, lam) for lam in DEFAULT_GRID)
    assert joined.classes == whole.classes
    assert np.abs(joined.trajectories - whole.trajectories).max() <= bound


class CallLog:
    """Records the Laplacians ``spectra`` assembles, the complexes it builds,
    the eigensolves it runs and the graphs it splits into join factors,
    through the module-level names it reads."""

    def __init__(self, monkeypatch):
        self.laplacians, self.built, self.solves, self.walks = [], [], 0, 0
        real_laplacian, real_build = spectra.laplacian, complexes.clique_complex
        real_solve = spectra.eigensolve

        def laplacian_(K, k):
            self.laplacians.append((K, k))
            return real_laplacian(K, k)

        def build(g, *args, **kwargs):
            self.built.append(g.n_vertices)
            return real_build(g, *args, **kwargs)

        def solve(L, *args, **kwargs):
            self.solves += 1
            return real_solve(L, *args, **kwargs)

        def walk(g, _real=join_factors):
            self.walks += 1
            return _real(g)

        for module in (spectra, complexes):
            monkeypatch.setattr(module, "join_factors", walk)
        monkeypatch.setattr(spectra, "laplacian", laplacian_)
        monkeypatch.setattr(complexes, "clique_complex", build)
        monkeypatch.setattr(spectra, "eigensolve", solve)


def test_one_factor_sweep_assembles_the_given_laplacian_once(monkeypatch):
    g = reduce_hamiltonian(parse_hamiltonian(HAMILTONIANS["h-1q-no"])).graph
    assert join_factors(g) == (g,)
    K = clique_complex(g, max_dim=2)
    log = CallLog(monkeypatch)
    sweep(K, 1)
    assert log.laplacians == [(K, 1)]
    assert log.solves == len(DEFAULT_GRID)
    assert log.built == [] and log.walks == 1


def test_3q_no_sweep_never_assembles_the_whole_laplacian(monkeypatch):
    res = reduce_hamiltonian(parse_hamiltonian(HAMILTONIANS["h-3q-no"]))
    K = clique_complex(res.graph, max_dim=3)
    log = CallLog(monkeypatch)
    sweep(K, 2)
    assert log.built == [17, 7, 7]
    assert log.laplacians and all(Kj is not K for Kj, _k in log.laplacians)
    # each (factor, degree) Laplacian once, solved once per lambda
    assert len(set(log.laplacians)) == len(log.laplacians)
    assert log.solves == len(log.laplacians) * len(DEFAULT_GRID)
    assert log.walks == 1


def test_spectrum_answers_on_the_padded_4q_no_above_the_dense_cap():
    Ks, K, k = reduction_complexes(PADDED_4Q_NO)
    assert [Kj.graph.n_vertices for Kj in Ks] == [17, 7, 7, 7]
    assert (k, K.dim_size(k)) == (7, 52736) and K.dim_size(k) > homology.DENSE_EIG_CAP
    rep = spectrum(K, k, 0.05)
    assert rep.eigenvalues.size == K.dim_size(k)
    # the Kronecker sum's largest absolute row sum is the sum of the factors'
    norm = max(
        sum(whole_row_sum(Kj, i, 0.05) for Kj, i in zip(Ks, s)) for s in product_splits(Ks, k)
    )
    assert abs(rep.lambda_min - join_lambda_min(Ks, k, 0.05)) <= LAMBDA_MIN_ULPS * EPS * norm


def test_a_truncated_join_still_refuses_a_degree_it_does_not_reach():
    res = reduce_hamiltonian(parse_hamiltonian(HAMILTONIANS["h-3q-no"]))
    K = clique_complex(res.graph, max_dim=2)  # truncated: degree 2 needs 3
    assert not K.complete and len(join_factors(res.graph)) == 3
    with pytest.raises(DimensionError):
        sweep(K, 2)
    with pytest.raises(DimensionError):
        spectrum(K, 2, 0.3)
    with pytest.raises(DimensionError):
        spectrum(K, 3, 0.3)


# -- decide on the factors -------------------------------------------------------


def test_padded_4q_no_has_the_3q_lambda_min():
    terms = (([0], {"0": 1}), ([0], {"1": 1}))
    four, three = decide(H_of(4, *terms)), decide(H_of(3, *terms))
    assert [f.n_vertices for f in join_factors(reduce_hamiltonian(H_of(4, *terms)).graph)] == [
        17, 7, 7, 7
    ]
    assert (four.answer, four.k, four.betti) == ("NO", 7, 0)
    assert four.lam_min == three.lam_min


def test_padded_16q_no_has_the_3q_lambda_min():
    """Fifteen idle bowtie factors: λ_min is the coefficient of x^{k+1} in a
    (min, +) product over the factors, whose partial coefficients are kept
    only while the factors after them can still reach the degree, so the
    work grows with the factor count, not with the splits."""
    terms = (([0], {"0": 1}), ([0], {"1": 1}))
    sixteen, three = decide(H_of(16, *terms)), decide(H_of(3, *terms))
    assert (sixteen.answer, sixteen.k, sixteen.betti) == ("NO", 31, 0)
    assert sixteen.lam_min == three.lam_min


def test_padded_16q_yes_answers_in_under_a_second():
    """Fifteen idle bowtie factors: the YES keeps each factor's 2 x 2 Gram
    matrix, not 4^16 overlap entries, and forms a row when it is read."""
    start = time.perf_counter()
    dec = decide(H_of(16, ([0], {"0": 1})))
    assert time.perf_counter() - start < 1.0
    assert (dec.answer, dec.k, dec.betti) == ("YES", 31, 2 ** 15)
    qubits = sorted(qubits for qubits, _gram in dec.harmonic_overlaps.factors)
    assert qubits == [(i,) for i in range(1, 17)]
    assert dec.harmonic_overlaps["0" * 16] == [0.0] * 2 ** 16


# decide on the padded 12q YES in a process whose address space is capped
CAPPED_DECIDE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (700 * 2 ** 20, 700 * 2 ** 20))
from homology_lab.gadgets import IntegerState
from homology_lab.reduction import Hamiltonian, decide
dec = decide(Hamiltonian(12, (((0,), IntegerState.from_dict(1, {"0": 1})),)))
print(dec.answer, dec.betti, len(dec.harmonic_overlaps["0" * 12]))
"""


def test_padded_12q_yes_answers_under_a_700_mb_address_space():
    """The dense 4^n overlap rows ended in a MemoryError here; the factored
    rows need each factor's Gram matrix and one row.  The limit is set in
    the child only."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_DECIDE],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["YES", "2048", "4096"]


def test_one_factor_asks_betti_and_lambda_min_once(monkeypatch):
    calls = []
    for module, name in ((homology, "betti"), (spectra, "lambda_min")):
        original = getattr(module, name)

        def counted(K, k, *args, _name=name, _original=original):
            calls.append((_name, K.graph.n_vertices, k))
            return _original(K, k, *args)

        monkeypatch.setattr(module, name, counted)
    dec = decide(H_of(1, ([0], {"0": 1}), ([0], {"1": 1})))
    assert dec.answer == "NO"
    # lambda_min's own betti check reads spectra's name, not homology's
    assert calls == [("betti", 17, 1), ("lambda_min", 17, 1)]


def test_join_betti_asks_each_factors_degrees_bottom_up(monkeypatch):
    """Each factor's degrees go to ``betti`` once each, lowest first, so
    each factor's ranks clear the degree above."""
    asked = []
    original = homology.betti

    def counted(K, k):
        asked.append((K, k))
        return original(K, k)

    monkeypatch.setattr(homology, "betti", counted)
    res = reduce_hamiltonian(parse_hamiltonian(HAMILTONIANS["h-3q-no"]))
    Ks = [complete(f) for f in join_factors(res.graph)]
    assert join_betti(Ks, res.k) == 0
    for K in Ks:
        degrees = [i for Kj, i in asked if Kj is K]
        assert degrees == sorted(set(degrees))
    assert {i for _, i in asked} == {0, 1, 2}


# -- YES overlap rows from the factors -------------------------------------------


def _idle_3q_yes(idle):
    """The decide-ladder's 3q-yes shape with the 1-local term inside the pair."""
    pair = [q for q in range(3) if q != idle]
    return H_of(3, ([pair[1]], {"1": 1}), (pair, {"01": 1, "10": -1}))


YES_CASES = {
    # q2 idle: the 33-vertex factor holds q1 and q3
    "3q-yes-padded": (parse_hamiltonian(HAMILTONIANS["h-3q-yes-padded"]), [33, 7]),
    "3q-yes-idle-q1": (_idle_3q_yes(0), [7, 38]),
    "3q-yes-idle-q2": (_idle_3q_yes(1), [38, 7]),
    "3q-yes-idle-q3": (_idle_3q_yes(2), [38, 7]),
    "4q-yes-padded": (H_of(4, ([0], {"0": 1})), [12, 7, 7, 7]),
}


def whole_overlaps(H):
    """decide's overlap rows from the complex of the whole reduction graph,
    taken as a single factor."""
    res = reduce_hamiltonian(H)
    return reduction._kernel_overlaps([clique_complex(res.graph, max_dim=res.k + 1)], H.n)


def dense_overlaps(H):
    """The overlap rows as one dense 2^n x 2^n product of the factors' Gram
    matrices, each factor multiplied in over np.ix_ in factor order and the
    product rounded once: the rows decide formed before they were kept
    factored."""
    res = reduce_hamiltonian(H)
    zs = [format(i, f"0{H.n}b") for i in range(2 ** H.n)]
    gram = np.ones((2 ** H.n, 2 ** H.n))
    for K in factor_complexes(res.graph, res.k):
        qubits = sorted({int(v[1 : v.index(".")]) for v in K.graph.vertices if v[0] == "q"})
        rows = [int("".join(z[q - 1] for q in qubits), 2) for z in zs]
        gram *= reduction._factor_gram(K, qubits)[np.ix_(rows, rows)]
    return {z: [round(float(x), 10) + 0.0 for x in gram[i]] for i, z in enumerate(zs)}


@st.composite
def yes_hamiltonians(draw):
    """One or two 1- or 2-local terms, each a basis state or a signed
    two-state superposition, on up to three of the qubits; the other zero
    to three qubits are idle."""
    active = draw(st.integers(1, 3))
    n = active + draw(st.integers(0, 3))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=active, max_size=active, unique=True))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(1, min(2, active)))
        support = sorted(draw(st.permutations(qubits))[:m])
        states = draw(st.lists(st.sampled_from(["".join(b) for b in product("01", repeat=m)]),
                               min_size=1, max_size=2, unique=True))
        signs = [1] + draw(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=1))
        terms.append((support, dict(zip(states, signs))))
    return H_of(n, *terms)


@settings(max_examples=40, deadline=None)
@given(yes_hamiltonians())
def test_overlap_rows_are_the_dense_factor_product_bit_for_bit(H):
    """Each row formed when read has the bits of the dense product, and the
    rows behave as the dict they replace: 2^n n-bit keys, ascending, and a
    KeyError for any other key."""
    dec = decide(H)
    assume(dec.answer == "YES")
    rows, oracle = dec.harmonic_overlaps, dense_overlaps(H)
    zs = [format(i, f"0{H.n}b") for i in range(2 ** H.n)]
    assert len(rows) == 2 ** H.n and list(rows) == zs == list(oracle)
    for z in zs:
        assert np.array(rows[z]).tobytes() == np.array(oracle[z]).tobytes(), z
    assert rows == oracle and dict(rows.items()) == oracle
    for key in ("0" * (H.n + 1), "0" * (H.n - 1), "2" * H.n, " " * H.n, 0, None):
        assert key not in rows
        with pytest.raises(KeyError):
            rows[key]


def per_element_row(rows, z):
    """Row z formed element by element: every factor's columns recomputed
    from the bits of w, and one Python round per element."""
    w = np.arange(2 ** rows.n)
    row = np.ones(2 ** rows.n)
    for qubits, gram in rows.factors:  # w|Q_j: the bits of w on Q_j, the last lowest
        cols = sum(((w >> (rows.n - q)) & 1) << t for t, q in enumerate(reversed(qubits)))
        row *= gram[int("".join(z[q - 1] for q in qubits), 2)][cols]
    return [round(x, 10) + 0.0 for x in row.tolist()]


@pytest.mark.parametrize("term", [([0], {"0": 1}), ([0, 2], {"00": 1, "01": -1})],
                         ids=["0-on-q1", "00-minus-01-on-q1q3"])
@pytest.mark.parametrize("n", range(3, 9))
def test_overlap_rows_are_the_per_element_rows_on_padded_yes(n, term):
    """Rows through the Kronecker product and one rounding per distinct
    product are the per-element rows, float for float; decide builds no
    column map, and the first read does."""
    rows = decide(H_of(n, term)).harmonic_overlaps
    assert "_columns" not in vars(rows)
    for z in rows:
        assert [x.hex() for x in rows[z]] == [x.hex() for x in per_element_row(rows, z)], z
    assert "_columns" in vars(rows)


@pytest.mark.parametrize("case", sorted(YES_CASES))
def test_yes_overlap_rows_from_the_factors_equal_the_whole_complex(case):
    H, sizes = YES_CASES[case]
    assert [f.n_vertices for f in join_factors(reduce_hamiltonian(H).graph)] == sizes
    dec = decide(H)
    assert dec.answer == "YES"
    assert dec.harmonic_overlaps == whole_overlaps(H)


def test_factored_yes_builds_no_whole_complex(monkeypatch):
    H = YES_CASES["3q-yes-padded"][0]
    built = []
    real = complexes.clique_complex

    def recorded(g, *args, **kwargs):
        built.append(g.n_vertices)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(complexes, "clique_complex", recorded)
    assert decide(H).answer == "YES"
    assert reduce_hamiltonian(H).graph.n_vertices == 40
    assert built == [33, 7]


def stop_code_7(A, b, **_kwargs):
    """lsqr giving up on its iteration limit."""
    return np.zeros(A.shape[1]), 7


def singular(_A, **_kwargs):
    """SuperLU finding the normal matrix singular."""
    raise RuntimeError("Factor is exactly singular")


def refuse(*_args, **_kwargs):
    raise AssertionError("eigenbasis solved for the YES overlaps")


def test_failed_projection_leaves_no_overlaps_and_solves_no_eigenbasis(monkeypatch):
    """There is no eigenbasis fallback: a factor whose direct solve finds its
    normal matrix singular has no Gram matrix, and the YES keeps its exact
    Betti number with no rows, without solving any eigenbasis in place of
    the projection."""
    monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
    monkeypatch.setattr(reduction, "harmonic_basis", refuse)
    monkeypatch.setattr(homology, "eigensolve", refuse)
    monkeypatch.setattr(spectra, "eigensolve", refuse)
    dec = decide(YES_CASES["3q-yes-padded"][0])
    assert (dec.answer, dec.betti) == ("YES", 6)
    assert dec.harmonic_overlaps is None


def test_gap_ambiguity_in_one_factor_leaves_no_overlaps(monkeypatch):
    """Only the idle bowtie's projection fails, and its eigenbasis would be
    gap-ambiguous: the 33-vertex factor's checked projection still runs, the
    bowtie is never solved, and one factor without a Gram matrix leaves the
    YES with no rows."""
    real, solved = scipy.sparse.linalg.splu, []

    def singular_on_the_bowtie(A, **kwargs):
        solved.append(A.shape)
        # the bowtie factor in degree 1: d^1 has no rows, so D_R D_R^T is empty
        return singular(A) if A.shape == (0, 0) else real(A, **kwargs)

    def ambiguous_bowtie(K, k, **kwargs):
        if K.graph.n_vertices == 7:
            raise GapAmbiguityError("forced")
        refuse()

    monkeypatch.setattr("scipy.sparse.linalg.splu", singular_on_the_bowtie)
    monkeypatch.setattr(reduction, "harmonic_basis", ambiguous_bowtie)
    monkeypatch.setattr(homology, "eigensolve", refuse)
    monkeypatch.setattr(spectra, "eigensolve", refuse)
    dec = decide(YES_CASES["3q-yes-padded"][0])
    assert (dec.answer, dec.betti) == ("YES", 6)
    assert dec.harmonic_overlaps is None
    # the 2-qubit factor: d^3 has 208 rows, all of them independent
    assert sorted(set(solved)) == [(0, 0), (208, 208)]


def test_factors_up_to_two_qubits_take_the_direct_solve_and_larger_ones_lsqr(monkeypatch):
    """The 3-qubit factor of |00> on q0q1 plus |01> on q1q2 runs one lsqr
    per basis cycle on d^{5*}, with unchanged arguments, and no LU; a
    2-qubit factor runs one LU of D_R D_R^T and no lsqr."""
    calls = []
    real_lsqr, real_splu = scipy.sparse.linalg.lsqr, scipy.sparse.linalg.splu

    def lsqr(A, b, **kwargs):
        calls.append(("lsqr", A.shape, kwargs))
        return real_lsqr(A, b, **kwargs)

    def splu(A, **kwargs):
        calls.append(("splu", A.shape, kwargs))
        return real_splu(A, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.lsqr", lsqr)
    monkeypatch.setattr("scipy.sparse.linalg.splu", splu)
    assert reduction.DIRECT_GRAM_QUBITS == 2
    H = H_of(3, ([0, 1], {"00": 1}), ([1, 2], {"01": 1}))
    Ks = factor_complexes(reduce_hamiltonian(H).graph, 5)
    assert len(Ks) == 1 and len(homology.coboundary_pairs(Ks[0], 5)[1]) == 1279
    assert decide(H).harmonic_overlaps is not None
    shape = (Ks[0].dim_size(5), Ks[0].dim_size(6))
    assert calls == [("lsqr", shape, {"atol": 1e-15, "btol": 1e-15})] * 8
    calls.clear()
    assert decide(H_of(2, ([0, 1], {"00": 1, "11": -1}))).harmonic_overlaps is not None
    assert calls == [("splu", (208, 208), {})]


@settings(max_examples=25, deadline=None)
@given(yes_hamiltonians())
def test_direct_and_lsqr_projections_give_the_same_gram_matrices(H):
    """Each path forced on every factor: the Gram matrices agree to 1e-12."""
    res = reduce_hamiltonian(H)
    Ks = factor_complexes(res.graph, res.k)
    assume(join_betti(Ks, res.k) >= 1)
    for K in Ks:
        qubits = tuple(sorted({int(v[1 : v.index(".")])
                               for v in K.graph.vertices if v[0] == "q"}))
        grams = []
        for cap in (len(qubits), len(qubits) - 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reduction, "DIRECT_GRAM_QUBITS", cap)
                grams.append(reduction._factor_gram(K, qubits))
        assert grams[0] is not None and grams[1] is not None
        assert np.allclose(grams[0], grams[1], rtol=0, atol=1e-12), qubits


# -- complete complexes above their top degree ----------------------------------


def test_complete_complex_answers_above_its_top_degree():
    K = complete(bowtie())  # 7 vertices, built to 6: complete, top degree 1
    assert K.complete and simplices(K, 9) == ()
    assert betti(K, 6) == betti(K, 7) == 0
    assert coboundary_rank(K, 6) == coboundary_rank(K, 7) == 0
    assert (coboundary(K, 6).rows, coboundary(K, 6).cols) == (0, 0)
    assert lambda_min(K, 7, 0.5) == 0.0
    assert spectrum(K, 7, 0.5).eigenvalues.size == 0
    assert join_betti([K, K], 3) == 4  # beta_1 * beta_1 of two bowties


def test_truncated_complex_still_refuses_above_max_dim():
    K = clique_complex(bowtie(), max_dim=1)  # has edges at 1, so it may be truncated
    assert not K.complete
    with pytest.raises(DimensionError):
        betti(K, 1)
    with pytest.raises(DimensionError):
        coboundary(K, 1)
    with pytest.raises(DimensionError):
        join_betti([K], 2)
