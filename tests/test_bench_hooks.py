"""The benchmark's tracer wraps library functions by module-level name.

``bench/tracing.py`` replaces each entry of its ``BOUNDARIES`` table in the
named module's (or class's) namespace, and its counters read
``MonomialMatrix.entries``; moving or renaming one of those functions, or
changing what ``entries`` holds, breaks traced benchmark runs, so both are
pinned here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import scipy.sparse.linalg

from homology_lab import complexes, homology, reduction, spectra
from homology_lab.complexes import CliqueComplex, clique_complex
from homology_lab.fixtures import gadget_graph
from homology_lab.gadgets import IntegerState
from homology_lab.graph import join_factors
from homology_lab.operators import laplacian

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_boundary_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = []
    for module, owner, attr, _name, _count in tracing.BOUNDARIES:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        if attr not in vars(target):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert tracing.BOUNDARIES
    assert missing == []


def bound_functions(tracing):
    out = []
    for module, owner, attr, _name, _count in tracing.BOUNDARIES:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        out.append(vars(target)[attr])
    return out + [scipy.sparse.linalg.eigsh]


def cells(M):
    """The (row, col) cells that some exponent slice of M stores."""
    return {rc for S in M.slices.values() for rc in zip(*S.nonzero())}


def expected_counts(complexes, laplacians):
    """Coboundary (row, col) cells and Laplacian monomials, counted on the
    exponent slices rather than on the ``entries`` view the tracer reads.

    Every coboundary a call builds is cached on its complex, and the tracer
    counts each once; it counts the terms of every Laplacian built through a
    traced name, here each recorded (complex, degree) call.
    """
    nnz = sum(len(cells(M)) for K in complexes for M in K._coboundaries.values())
    terms = sum(S.nnz for K, k in laplacians for S in laplacian(K, k).slices.values())
    return nnz, terms


def test_traced_runs_count_terms_and_restore_boundaries(monkeypatch):
    tracing = load_tracing(monkeypatch)
    built = []
    init = CliqueComplex.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(CliqueComplex, "__init__", recording_init)
    asked = []

    def recording_laplacian(K, k):
        asked.append((K, k))
        return laplacian(K, k)

    for module in (homology, spectra):  # the names the tracer wraps
        monkeypatch.setattr(module, "laplacian", recording_laplacian)
    before = bound_functions(tracing)
    g = gadget_graph(IntegerState.from_dict(1, {"0": 1}))
    H = reduction.Hamiltonian(1, tuple(((0,), IntegerState.from_dict(1, {z: 1})) for z in "01"))
    runs = {
        "sweep": lambda: spectra.sweep(clique_complex(g, 2), 1),
        "decide": lambda: reduction.decide(H),
    }
    for name, run in runs.items():
        built.clear()
        asked.clear()
        rec = tracing.Recorder()
        with tracing.traced(rec):
            with rec.call(name):
                run()
        assert bound_functions(tracing) == before
        metrics = tracing.pass_metrics(rec.spans)
        nnz, terms = expected_counts(built, asked)
        assert nnz > 0 and terms > 0
        assert metrics["operators.coboundary_nnz"] == nnz, name
        assert metrics["operators.laplacian_terms"] == terms, name


def test_traced_sweep_counts_the_factor_enumeration(monkeypatch):
    """A spectrum-sweep call on a join enumerates the whole complex and then
    each factor's through ``complexes.clique_complex``, which the tracer
    wraps, so complexes.enum_s and complexes.simplices cover both."""
    tracing = load_tracing(monkeypatch)
    H = reduction.Hamiltonian(3, tuple(((0,), IntegerState.from_dict(1, {z: 1})) for z in "01"))
    g = reduction.reduce_hamiltonian(H).graph
    factors = join_factors(g)
    assert [f.n_vertices for f in factors] == [17, 7, 7]
    rec = tracing.Recorder()
    with tracing.traced(rec):
        with rec.call("sweep"):
            spectra.sweep(complexes.clique_complex(g, max_dim=3), 2)
    built = [s for s in rec.spans if s.name == "complexes.clique_complex"]
    expected = [clique_complex(g, 3)] + [clique_complex(f, min(3, f.n_vertices - 1)) for f in factors]
    assert [s.count for s in built] == [sum(K.counts().values()) for K in expected]
    metrics = tracing.pass_metrics(rec.spans)
    assert metrics["complexes.simplices"] == sum(s.count for s in built)
    assert metrics["complexes.enum_s"] >= sum(s.end - s.start for s in built[1:])
