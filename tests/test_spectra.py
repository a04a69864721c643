import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from homology_lab import homology
from homology_lab.errors import GraphFormatError
from homology_lab.fixtures import gadget_graph, hexagon
from homology_lab.gadgets import IntegerState
from homology_lab.graph import bowtie, complement, octahedron, relabel, unweighted
from homology_lab.homology import harmonic_basis
from homology_lab.reduction import Hamiltonian, reduce_hamiltonian
from homology_lab.spectra import (
    DEFAULT_GRID,
    lambda_min,
    pairing_check,
    spectrum,
    sweep,
)

from conftest import built

K3 = complement(unweighted(["a", "b", "c"]))


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
            assert abs(s - int(c)) <= table.slope_tol
    lines = table.csv_lines()
    assert lines[0].startswith("branch,lam=0.3")
    assert len(lines) == table.n_branches + 1


def test_sweep_kernel_count_matches_betti():
    from homology_lab.homology import betti

    for amps in ({"0": 1}, {"0": 1, "1": -1}):
        g = gadget_graph(IntegerState.from_dict(1, amps))
        K = built(g, 2)
        assert sweep(K, 1).count_class("kernel") == betti(K, 1)


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
    dense_min = lambda_min(no, 1, 0.5, exact_zero=False)
    dense_hb = harmonic_basis(yes, 1, 0.5)

    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs["sigma"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    monkeypatch.setattr(homology, "DENSE_EIG_CAP", 10)
    assert min(no.dim_size(1), yes.dim_size(1)) > 10
    assert lambda_min(no, 1, 0.5, exact_zero=False) == pytest.approx(dense_min, rel=1e-8)
    hb = harmonic_basis(yes, 1, 0.5)
    assert calls == [0.0, 0.0]
    assert hb.dimension == dense_hb.dimension == 1
    assert scipy.linalg.subspace_angles(hb.basis, dense_hb.basis).max() < 1e-6
