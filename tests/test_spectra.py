import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

from homology_lab import homology, spectra
from homology_lab.complexes import clique_complex
from homology_lab.errors import (
    BranchMatchingError,
    DimensionError,
    GapAmbiguityError,
    GraphFormatError,
    HomologyLabError,
)
from homology_lab.fixtures import gadget_graph, hexagon, named_fixtures
from homology_lab.gadgets import IntegerState
from homology_lab.graph import (
    bowtie,
    join_factors,
    make_graph,
    octahedron,
    qubit_graph,
    relabel,
)
from homology_lab.homology import betti, eigensolve, harmonic_basis
from homology_lab.operators import laplacian
from homology_lab.reduction import Hamiltonian, reduce_hamiltonian
from homology_lab.spectra import DEFAULT_GRID, KERNEL_FLOOR, SLOPE_TOL, lambda_min, spectrum, sweep

from conftest import built, complete_graph, seeded_graphs
from reference import pairing_check

K3 = complete_graph(["a", "b", "c"])


def test_triangle_spectrum():
    rep = spectrum(built(K3, 2), 1, 1.0)
    assert np.allclose(rep.eigenvalues, [3.0, 3.0, 3.0])
    assert rep.near_zero_multiplicity == 0


def test_square_spectrum_has_single_zero():
    rep = spectrum(built(octahedron(2), 2), 1, 1.0)
    assert rep.near_zero_multiplicity == 1


def test_spectrum_invariant_under_relabeling():
    g = bowtie()
    h = relabel(g, {v: f"zz.{v}" for v in g.vertices})
    a = spectrum(built(g, 2), 1, 0.8).eigenvalues
    b = spectrum(built(h, 2), 1, 0.8).eigenvalues
    assert np.allclose(a, b, atol=1e-10)


def test_lambda_min_values():
    assert lambda_min(built(bowtie(), 2), 1, 1.0) == 0.0
    assert lambda_min(built(K3, 2), 1, 1.0) == pytest.approx(3.0)
    g0 = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    assert lambda_min(built(g0, 3), 1, 0.2) == 0.0  # exact zero via betti


def test_sweep_grid_validation():
    K = built(K3, 2)
    with pytest.raises(GraphFormatError):
        sweep(K, 1, (0.3, 0.2, 0.1))  # too few points
    with pytest.raises(GraphFormatError):
        sweep(K, 1, (0.9, 0.3, 0.2, 0.1))  # outside (0, 0.5]
    with pytest.raises(GraphFormatError):
        sweep(K, 1, (0.1, 0.2, 0.3, 0.4))  # not decreasing


def test_sweep_classes_on_zero_gadget():
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    K = built(g, 2)
    table = sweep(K, 1, DEFAULT_GRID)
    assert table.count_class("kernel") == 1
    assert table.count_class("6") == 1
    assert table.count_class("2") == 4
    assert table.count_class("0") == table.n_branches - 6
    # every fitted slope lies within tolerance of an even integer
    for s, c in zip(table.slopes, table.classes):
        if c not in ("kernel",):
            assert abs(s - int(c)) <= SLOPE_TOL
    lines = table.csv_lines()
    assert lines[0].startswith("branch,lam=0.3")
    assert len(lines) == table.n_branches + 1


def test_sweep_kernel_count_matches_betti():
    from homology_lab.homology import betti

    for amps in ({"0": 1}, {"0": 1, "1": -1}):
        g = gadget_graph(IntegerState.from_dict(1, amps))
        K = built(g, 2)
        assert sweep(K, 1).count_class("kernel") == betti(K, 1)


def _one_branch_fit(lams, vals):
    logx, logy = np.log(lams), np.log(vals)
    A = np.vstack([logx, np.ones_like(logx)]).T
    coef, *_ = np.linalg.lstsq(A, logy, rcond=None)
    return float(coef[0])


def test_sweep_slopes_match_one_fit_per_branch():
    """The fit of all branches in one solve gives each its own fit's bits."""
    lams = np.array(DEFAULT_GRID)
    for name, k in [("gadget-0", 1), ("qubit-2", 2), ("two-gadgets-1q", 2), ("octahedron-4", 2)]:
        table = sweep(built(named_fixtures()[name], k + 1), k)
        for vals, slope in zip(table.trajectories, table.slopes):
            if slope is None:
                continue
            want = _one_branch_fit(lams, vals)
            assert slope == want, (name, slope, want)
    # the same solve on arbitrary columns, far from any even slope
    vals = np.exp(np.random.default_rng(0).uniform(-30, 0, size=(5, 50)))
    slopes = spectra._fit_slopes(lams, np.log(vals))
    for j in range(vals.shape[1]):
        assert slopes[j] == _one_branch_fit(lams, vals[:, j])


def classified_branch_by_branch(traj, grid):
    """Slopes and classes of the trajectories, one branch at a time: the
    reference for sweep's array classification; raises the same error."""
    low = traj < KERNEL_FLOOR
    fit = np.full(len(traj), np.nan)
    fit[~low.any(axis=1)] = spectra._fit_slopes(np.array(grid), np.log(traj[~low.any(axis=1)]).T)
    slopes, classes, problems = [], [], []
    for i in range(len(traj)):
        s = None if low[i].any() else float(fit[i])
        slopes.append(s)
        even = 0 if s is None else round(s / 2.0) * 2
        if low[i].all():
            classes.append("kernel")
        elif s is None:
            problems.append(
                f"branch {i}: eigenvalue underflows at part of the grid: {traj[i].tolist()}"
            )
        elif abs(s - even) <= SLOPE_TOL and even >= 0:
            classes.append(str(int(even)))
        else:
            problems.append(f"branch {i}: fitted slope {s:.3f} is not near an even integer")
    if problems:
        raise BranchMatchingError("; ".join(problems))
    return tuple(slopes), tuple(classes)


@pytest.mark.parametrize("with_problems", [False, True])
def test_sweep_classifies_as_branch_by_branch(monkeypatch, with_problems):
    """Power laws with slopes near and away from even exponents and below
    zero, kernel rows and part-underflowing rows."""
    rng = np.random.default_rng(3)
    lams = np.array(DEFAULT_GRID)
    if with_problems:
        exps = rng.uniform(-3, 9, size=60)
    else:
        exps = rng.choice([0, 2, 4, 6], size=60) + rng.uniform(-SLOPE_TOL, SLOPE_TOL, size=60)
    traj = rng.uniform(0.5, 2, size=(60, 1)) * lams[None] ** exps[:, None]
    traj[[5, 17]] = 0.0
    if with_problems:
        traj[[8, 40], 3:] = 1e-20
    monkeypatch.setattr(spectra, "_join_complexes", lambda K, k: [K])
    monkeypatch.setattr(spectra, "join_spectrum", lambda Ks, k, grid: traj)
    K = clique_complex(make_graph({str(i): 0 for i in range(60)}, []), max_dim=0)
    if with_problems:
        with pytest.raises(BranchMatchingError) as want:
            classified_branch_by_branch(traj, DEFAULT_GRID)
        with pytest.raises(BranchMatchingError) as got:
            sweep(K, 0)
        assert str(got.value) == str(want.value)
        assert "underflows" in str(got.value) and "not near" in str(got.value)
    else:
        table = sweep(K, 0)
        assert (table.slopes, table.classes) == classified_branch_by_branch(traj, DEFAULT_GRID)
        assert table.count_class("kernel") == 2 and len(set(table.classes)) == 5


def test_pairing_on_fixtures():
    fixtures = [
        built(bowtie(), 3),
        built(K3, 3),
        built(hexagon(), 3),
        built(gadget_graph(IntegerState.from_dict(1, {"0": 1})), 3),
    ]
    for K in fixtures:
        for lam in (1.0, 0.25):
            rep = pairing_check(K, lam)
            assert rep.paired, (K.graph.n_vertices, lam, rep.max_mismatch)


def test_pairing_includes_empty_level():
    rep = pairing_check(built(K3, 3), 1.0)
    assert -1 in rep.counts
    assert rep.counts[-1] >= 1  # the augmentation pairs with vertex modes


def test_shift_invert_branch_agrees_with_dense(monkeypatch):
    """Above the dense cap, lambda_min and harmonic_basis use shift-invert."""
    H = Hamiltonian(1, tuple(((0,), IntegerState.from_dict(1, {z: 1})) for z in "01"))
    no = built(reduce_hamiltonian(H).graph, 2)  # betti_1 = 0: nonsingular
    yes = built(gadget_graph(IntegerState.from_dict(1, {"0": 1})), 2)  # betti_1 = 1
    dense_min = lambda_min(no, 1, 0.5)
    dense_hb = harmonic_basis(yes, 1, 0.5)

    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs["sigma"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    monkeypatch.setattr(homology, "DENSE_EIG_CAP", 10)
    assert min(no.dim_size(1), yes.dim_size(1)) > 10
    assert lambda_min(no, 1, 0.5) == pytest.approx(dense_min, rel=1e-8)
    hb = harmonic_basis(yes, 1, 0.5)
    assert calls == [0.0, -hb.tol]  # the harmonic solve shifts off the kernel
    assert hb.dimension == dense_hb.dimension == 1
    assert scipy.linalg.subspace_angles(hb.basis, dense_hb.basis).max() < 1e-6


def test_shift_invert_is_reproducible(monkeypatch):
    """A fixed start vector gives the same bits on every call."""
    H = Hamiltonian(1, tuple(((0,), IntegerState.from_dict(1, {z: 1})) for z in "01"))
    no = built(reduce_hamiltonian(H).graph, 2)
    monkeypatch.setattr(homology, "DENSE_EIG_CAP", 10)
    first = lambda_min(no, 1, 0.5)
    assert lambda_min(no, 1, 0.5) == first


def test_sweep_refuses_a_factor_laplacian_above_the_dense_cap(monkeypatch):
    """sweep applies spectrum's cap to the largest symmetry block of each
    factor Laplacian, before any solve."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("eigensolve called above the dense cap")

    K = built(gadget_graph(IntegerState.from_dict(1, {"0": 1})), 2)
    assert len(join_factors(K.graph)) == 1
    largest = int(spectra._symmetry_blocks(K, 1)[3].max())
    assert largest < K.dim_size(1)
    monkeypatch.setattr(spectra, "DENSE_EIG_CAP", largest - 1)
    monkeypatch.setattr(spectra, "eigensolve", refuse)
    with pytest.raises(DimensionError, match="above the dense cap"):
        sweep(K, 1)
    with pytest.raises(DimensionError, match="above the dense cap"):
        spectrum(K, 1, 0.3)


def test_the_cap_bounds_the_largest_symmetry_block_not_the_factor(monkeypatch):
    """A factor Laplacian above the cap sweeps when its blocks are below it."""
    K = built(gadget_graph(IntegerState.from_dict(1, {"0": 1})), 2)
    want = sweep(K, 1)
    largest = int(spectra._symmetry_blocks(K, 1)[3].max())
    monkeypatch.setattr(spectra, "DENSE_EIG_CAP", largest)
    assert largest < K.dim_size(1) and sweep(K, 1).classes == want.classes


def test_sweep_caps_the_factors_not_the_whole_chain_group(monkeypatch):
    """A join above the cap sweeps when every factor Laplacian is below it."""
    g, k = qubit_graph(2), 2
    K = built(g, k + 1)
    want = sweep(K, k)
    factors = [clique_complex(f, f.n_vertices - 1) for f in join_factors(g)]
    block = max(F.dim_size(i) for F in factors for i in range(-1, F.max_dim + 1))
    assert len(factors) > 1 and K.dim_size(k) > block
    monkeypatch.setattr(spectra, "DENSE_EIG_CAP", block)
    assert sweep(K, k).classes == want.classes


def test_singular_shift_invert_factor_is_a_library_error(monkeypatch):
    """sigma = 0 cannot factor a Laplacian with a kernel; say so, not SciPy."""
    g = seeded_graphs(40, 9, wmax=2)[0]
    K = clique_complex(g, 5)
    assert betti(K, 1) == 1 and K.dim_size(1) > 10
    monkeypatch.setattr(homology, "DENSE_EIG_CAP", 10)
    with pytest.raises(HomologyLabError, match="has a kernel"):
        eigensolve(laplacian(K, 1).evaluate(1.0), 9, vectors=True)
    assert harmonic_basis(K, 1, lam=1.0).dimension == 1


def test_harmonic_basis_above_the_cap_shifts_off_the_kernel(monkeypatch):
    """Shift-invert at sigma = -tol factors every Laplacian with a kernel."""
    monkeypatch.setattr(homology, "DENSE_EIG_CAP", 10)
    shift_inverted = 0
    for g in seeded_graphs(40, 9, wmax=2):
        K = clique_complex(g, 3)
        for k in (0, 1):
            b = betti(K, k)
            if b == 0:
                continue
            try:
                hb = harmonic_basis(K, k, lam=1.0)
            except GapAmbiguityError:
                continue
            assert hb.dimension == b
            shift_inverted += K.dim_size(k) > 10
    assert shift_inverted >= 6


# -- dense spectra, solved per connected block ----------------------------------


def _fixture_blocks():
    """Evaluated Laplacians of fixtures, each one connected block."""
    cases = [
        (bowtie(), 1, 0.5),
        (gadget_graph(IntegerState.from_dict(1, {"0": 1})), 2, 0.3),
        (hexagon(), 1, 1.0),
        (octahedron(1), 0, 0.7),
        (bowtie(), -1, 1.0),
        (hexagon(), -1, 0.5),
    ]
    parts = [laplacian(built(g, k + 1), k).evaluate(lam) for g, k, lam in cases]
    for part in parts:
        assert scipy.sparse.csgraph.connected_components(part)[0] == 1
    return parts


def _shuffled_direct_sum(parts, seed=0):
    """The direct sum of the parts, rows and columns permuted alike."""
    S = sp.block_diag(parts, format="csr")
    perm = np.random.default_rng(seed).permutation(S.shape[0])
    return S[perm][:, perm]


def _dense_sym(S):
    A = S.toarray()
    return (A + A.T) / 2.0


def test_dense_solve_runs_once_per_block(monkeypatch):
    parts = _fixture_blocks()
    S = _shuffled_direct_sum(parts)
    sizes = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(scipy.linalg, name)

        def spy(a, *args, _real=real, **kwargs):
            sizes.append(a.shape)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, spy)
    eigensolve(S)
    eigensolve(S, vectors=True)
    # one call per block of size >= 2, and one for all 1x1 blocks together
    singles = sum(p.shape[0] == 1 for p in parts)
    want = [p.shape[0] for p in parts if p.shape[0] > 1] + [singles]
    assert singles >= 2
    assert sorted(sizes) == sorted([(m, m) for m in want] * 2)


def test_block_spectrum_matches_whole_matrix():
    S = _shuffled_direct_sum(_fixture_blocks())
    A = _dense_sym(S)
    scale = max(1.0, np.linalg.norm(A, 2))
    whole = np.clip(scipy.linalg.eigvalsh(A), 0.0, None)
    assert np.abs(eigensolve(S) - whole).max() <= 1e-12 * scale
    vals, X = eigensolve(S, vectors=True)
    assert np.abs(vals - whole).max() <= 1e-12 * scale
    assert np.abs(X.T @ X - np.eye(len(vals))).max() <= 1e-10
    assert np.linalg.norm(A @ X - X * vals, 2) <= 1e-10 * scale


def test_empty_and_diagonal_matrices():
    empty = sp.csr_matrix((0, 0))
    assert eigensolve(empty).shape == (0,)
    vals, X = eigensolve(empty, vectors=True)
    assert vals.shape == (0,) and X.shape == (0, 0)
    D = sp.diags([3.0, 0.0, 1.5, 2.0]).tocsr()
    assert eigensolve(D).tolist() == [0.0, 1.5, 2.0, 3.0]
    vals, X = eigensolve(D, vectors=True)
    assert vals.tolist() == [0.0, 1.5, 2.0, 3.0]
    assert np.array_equal(X, np.eye(4)[:, [1, 2, 3, 0]])


def test_harmonic_basis_of_disjoint_union_adds_betti():
    parts = [bowtie(), octahedron(2), gadget_graph(IntegerState.from_dict(1, {"0": 1}))]
    weights, edges = {}, []
    for i, g in enumerate(parts):
        h = relabel(g, {v: f"p{i}.{v}" for v in g.vertices})
        weights.update(h.weight_map())
        edges.extend(h.edges)
    K = built(make_graph(weights, edges), 2)
    L = laplacian(K, 1).evaluate(0.5)
    assert scipy.sparse.csgraph.connected_components(L)[0] >= len(parts)
    hb = harmonic_basis(K, 1, 0.5)
    assert hb.dimension == sum(betti(built(g, 2), 1) for g in parts) == 4
    assert np.linalg.norm(L @ hb.basis) <= hb.tol


# fixture Laplacians of several connected blocks: every spectrum CLI run whose
# output moved in the last digits when dense solves went block by block
MULTI_BLOCK_CASES = [
    ("octahedron-3", 1),
    ("octahedron-4", 1),
    ("octahedron-4", 2),
    ("qubit-2", 1),
    ("qubit-2", 2),
    ("two-gadgets-1q", 2),
]


@pytest.mark.parametrize("name,k", MULTI_BLOCK_CASES)
def test_multi_block_fixtures_agree_with_whole_matrix(monkeypatch, name, k):
    K = built(named_fixtures()[name], k + 1)
    blocks = sweep(K, k)
    L = laplacian(K, k)
    scale = max([1.0] + [np.linalg.norm(_dense_sym(L.evaluate(x)), 2) for x in DEFAULT_GRID])
    # one factor, no symmetry blocks and one component seen everywhere: the
    # whole-matrix solve
    monkeypatch.setattr(spectra, "join_factors", lambda g: (g,))
    monkeypatch.setattr(spectra, "_loop_group", lambda g: np.arange(g.n_vertices)[None])
    monkeypatch.setattr(
        scipy.sparse.csgraph,
        "connected_components",
        lambda S, **_: (1, np.zeros(S.shape[0], dtype=np.int32)),
    )
    whole = sweep(clique_complex(K.graph, k + 1), k)  # nothing memoized on it
    assert blocks.classes == whole.classes
    assert np.abs(blocks.trajectories - whole.trajectories).max() <= 1e-12 * scale
