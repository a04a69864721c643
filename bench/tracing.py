"""Spans around the library's layer boundaries, for traced runs only.

``traced(recorder)`` replaces each boundary function where its caller looks
it up (a module global, a class attribute, or the SciPy eigen entry points)
with a wrapper that records one span per call, and puts every original back
when the block ends.  Spans stay in memory; ``layer_metrics`` folds them
into per-layer self times and counts.  A span's self time is its duration
minus the time its child spans cover; the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's spans, -1 for a root
    call: int  # index of the recorder's timed call the span belongs to
    count: float | None = None  # size read from the arguments or return value


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._call = -1
        self._seen: dict[int, Any] = {}

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self._call)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def call(self, name: str):
        """Root span of one timed call; spans opened inside share its id."""
        self._call += 1
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self._seen.clear()

    def first_sight(self, obj) -> bool:
        """True once per object within a call (cached results count once)."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj  # holding it keeps the id from being reused
        return True

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.count = count(self, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper


# -- counters, read at the boundary after the span closes ----------------------


def _simplices(_rec, _args, _kwargs, K):
    return sum(K.counts().values())


def _rows(_rec, args, _kwargs, _out):
    return len(args[0])


def _nnz(rec, _args, _kwargs, M):
    return len(M.entries) if rec.first_sight(M) else 0


def _terms(_rec, _args, _kwargs, M):
    return sum(len(p) for p in M.entries.values())


def _dense_dim(_rec, _args, _kwargs, out):
    vals = out[0] if isinstance(out, tuple) else out
    return len(vals)


def _sparse_dim(_rec, args, _kwargs, _out):
    return args[0].shape[0]


# (module, owner attribute or None, function, span name, counter): the
# function is replaced in that module's namespace, or on the named class.
BOUNDARIES = [
    ("homology_lab.reduction", None, "decide", "reduction.decide", None),
    ("homology_lab.reduction", None, "reduce_hamiltonian", "reduction.reduce_hamiltonian", None),
    ("homology_lab.reduction", None, "gadget", "gadgets.gadget", None),
    ("homology_lab.reduction", None, "clique_complex", "complexes.clique_complex", _simplices),
    ("homology_lab.reduction", None, "betti", "homology.betti", None),
    ("homology_lab.reduction", None, "harmonic_basis", "homology.harmonic_basis", None),
    ("homology_lab.reduction", None, "lambda_min", "spectra.lambda_min", None),
    ("homology_lab.gadgets", None, "clique_complex", "complexes.clique_complex", _simplices),
    ("homology_lab.complexes", None, "clique_complex", "complexes.clique_complex", _simplices),
    ("homology_lab.homology", None, "coboundary_rank", "homology.coboundary_rank", None),
    ("homology_lab.homology", None, "betti", "homology.betti", None),
    ("homology_lab.homology", None, "coboundary", "operators.coboundary", _nnz),
    ("homology_lab.homology", None, "laplacian", "operators.laplacian", _terms),
    ("homology_lab.rational", None, "rank_int", "rational.rank_int", _rows),
    ("homology_lab.rational", None, "nullspace", "rational.nullspace", None),
    ("homology_lab.rational", None, "rank_fraction", "rational.rank_fraction", None),
    ("homology_lab.rational", None, "solve", "rational.solve", None),
    ("homology_lab.operators", None, "coboundary", "operators.coboundary", _nnz),
    ("homology_lab.operators", "MonomialMatrix", "int_rows_at_one", "operators.int_rows_at_one", None),
    ("homology_lab.operators", "MonomialMatrix", "evaluate", "operators.evaluate", None),
    ("homology_lab.operators", "MonomialMatrix", "evaluate_dense", "operators.evaluate", None),
    ("homology_lab.spectra", None, "sweep", "spectra.sweep", None),
    ("homology_lab.spectra", None, "spectrum", "spectra.spectrum", None),
    ("homology_lab.spectra", None, "lambda_min", "spectra.lambda_min", None),
    ("homology_lab.spectra", None, "betti", "homology.betti", None),
    ("homology_lab.spectra", None, "laplacian", "operators.laplacian", _terms),
    ("homology_lab.specseq", None, "filtration", "specseq.filtration", None),
    ("homology_lab.specseq", None, "page_dims", "specseq.page_dims", None),
    ("homology_lab.specseq", "Filtration", "e_dim", "specseq.e_dim", None),
    ("homology_lab.specseq", None, "coboundary", "operators.coboundary", _nnz),
    ("homology_lab.specseq", None, "betti", "homology.betti", None),
    ("scipy.linalg", None, "eigvalsh", "spectra.eig_dense", _dense_dim),
    ("scipy.linalg", None, "eigh", "spectra.eig_dense", _dense_dim),
]


def _eigsh_wrapper(rec: Recorder, fn: Callable) -> Callable:
    """eigsh's span name depends on whether it is called with a shift."""

    def wrapper(*args, **kwargs):
        shifted = kwargs.get("sigma") is not None
        name = "spectra.eig_shift_invert" if shifted else "spectra.eig_sparse"
        return rec.wrap(name, fn, _sparse_dim)(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def traced(rec: Recorder):
    """Wrap every boundary for the block; restore the originals afterwards."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module, owner, attr, name, count in BOUNDARIES:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = vars(target)[attr]
            setattr(target, attr, rec.wrap(name, original, count))
            saved.append((target, attr, original))
        sparse = importlib.import_module("scipy.sparse.linalg")
        saved.append((sparse, "eigsh", sparse.eigsh))
        sparse.eigsh = _eigsh_wrapper(rec, sparse.eigsh)
        yield rec
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


# -- per-layer metrics ---------------------------------------------------------

SELF_TIME = {
    "rational.rank_int_s": ("rational.rank_int",),
    "rational.frac_elim_s": ("rational.nullspace", "rational.rank_fraction", "rational.solve"),
    "operators.laplacian_s": ("operators.laplacian",),
    "operators.coboundary_s": ("operators.coboundary",),
    "operators.int_rows_s": ("operators.int_rows_at_one",),
    "operators.evaluate_s": ("operators.evaluate",),
    "spectra.eig_s": ("spectra.eig_dense", "spectra.eig_shift_invert", "spectra.eig_sparse"),
    "spectra.self_s": ("spectra.sweep", "spectra.spectrum", "spectra.lambda_min"),
    "specseq.self_s": ("specseq.filtration", "specseq.page_dims", "specseq.e_dim"),
    "complexes.enum_s": ("complexes.clique_complex",),
    "homology.self_s": ("homology.betti", "homology.coboundary_rank", "homology.harmonic_basis"),
    "reduction.self_s": ("reduction.decide", "reduction.reduce_hamiltonian"),
}
INCLUSIVE_TIME = {
    "reduction.reduce_s": "reduction.reduce_hamiltonian",
    "gadgets.gadget_s": "gadgets.gadget",
}
CALLS = {
    "rational.frac_elim_calls": SELF_TIME["rational.frac_elim_s"],
    "spectra.dense_calls": ("spectra.eig_dense",),
    "spectra.shift_invert_calls": ("spectra.eig_shift_invert",),
    "specseq.e_dim_calls": ("specseq.e_dim",),
}
COUNT_SUMS = {
    "rational.rank_int_rows": "rational.rank_int",
    "operators.laplacian_terms": "operators.laplacian",
    "operators.coboundary_nnz": "operators.coboundary",
    "complexes.simplices": "complexes.clique_complex",
}
def self_times(spans: list[Span]) -> list[float]:
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (the spans of its timed calls)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def picked(names):
        return [i for n in names for i in by_name.get(n, ())]

    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(own[i] for i in picked(names))
    for metric, name in INCLUSIVE_TIME.items():
        out[metric] = sum(spans[i].end - spans[i].start for i in picked((name,)))
    for metric, names in CALLS.items():
        out[metric] = len(picked(names))
    for metric, name in COUNT_SUMS.items():
        out[metric] = sum(spans[i].count or 0 for i in picked((name,)))
    eig = picked(SELF_TIME["spectra.eig_s"])
    out["spectra.eig_dim_max"] = max((spans[i].count or 0 for i in eig), default=0)
    # a coboundary_rank call that ran no elimination was answered from the cache
    eliminated = {spans[i].parent for i in picked(("rational.rank_int",))}
    ranks = picked(("homology.coboundary_rank",))
    hits = sum(1 for i in ranks if i not in eliminated)
    out["homology.rank_cache_hit_ratio"] = hits / len(ranks) if ranks else 0.0
    return out


def layer_metrics(passes: list[list[Span]]) -> dict[str, float]:
    """Median over traced passes (one recorder each) of each per-layer metric."""
    per_pass = [pass_metrics(spans) for spans in passes]
    return {name: median(p[name] for p in per_pass) for name in per_pass[0]}


def per_layer_names() -> list[str]:
    return [*SELF_TIME, *INCLUSIVE_TIME, *CALLS, *COUNT_SUMS,
            "spectra.eig_dim_max", "homology.rank_cache_hit_ratio"]
