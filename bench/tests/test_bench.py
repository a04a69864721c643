"""The benchmark's own tests: smoke calls, oracle tampering, trace hygiene.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import argparse
import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import tracing
import worker
import workloads

ROOT = run.ROOT


def smallest(name):
    wl = workloads.WORKLOADS[name]
    return wl, workloads.rungs_for(name, workloads.DEFAULT_SEED)[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_smallest_rung_passes_its_oracle(name):
    wl, rung = smallest(name)
    seconds, problems, result = worker.timed_call(wl, rung)
    assert problems == [] and result is not None and seconds > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_call_records_spans_and_restores_boundaries(name):
    wl, rung = smallest(name)
    before = {(m, o, a): _lookup(m, o, a) for m, o, a, _n, _c in tracing.BOUNDARIES}
    eigsh = importlib.import_module("scipy.sparse.linalg").eigsh
    rec = tracing.Recorder()
    with tracing.traced(rec):
        _seconds, problems, _result = worker.timed_call(wl, rung, rec)
    assert problems == []
    assert rec.spans[0].parent == -1 and len(rec.spans) > 1
    assert all(s.end >= s.start for s in rec.spans)
    assert {(m, o, a): _lookup(m, o, a) for m, o, a, _n, _c in tracing.BOUNDARIES} == before
    assert importlib.import_module("scipy.sparse.linalg").eigsh is eigsh
    metrics = tracing.layer_metrics([rec.spans])
    assert set(metrics) == set(tracing.per_layer_names())


def test_boundaries_are_restored_after_an_error():
    before = _lookup("homology_lab.rational", None, "rank_int")
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Recorder()):
            raise RuntimeError("stop")
    assert _lookup("homology_lab.rational", None, "rank_int") is before


def _lookup(module, owner, attr):
    target = importlib.import_module(module)
    return vars(getattr(target, owner) if owner else target)[attr]


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("reduction.decide", 0.0, 10.0, -1, 0),
        tracing.Span("rational.rank_int", 1.0, 4.0, 0, 0, 7),
        tracing.Span("homology.coboundary_rank", 5.0, 6.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]
    m = tracing.pass_metrics(spans)
    assert m["rational.rank_int_s"] == 3.0 and m["rational.rank_int_rows"] == 7
    assert m["homology.rank_cache_hit_ratio"] == 1.0


def test_decide_oracle_rejects_flipped_answer_and_wrong_betti():
    wl, rung = smallest("decide-ladder")
    decision = wl.call(rung.instance)
    assert decision.answer == "NO" and wl.check(rung.instance, decision) == []
    assert wl.check(rung.instance, dataclasses.replace(decision, answer="YES"))
    assert wl.check(rung.instance, dataclasses.replace(decision, lam_min=0.0))
    yes = workloads.rungs_for("decide-ladder", workloads.DEFAULT_SEED)[1]
    decision = wl.call(yes.instance)
    assert decision.answer == "YES" and wl.check(yes.instance, decision) == []
    assert wl.check(yes.instance, dataclasses.replace(decision, betti=decision.betti + 1))
    assert wl.check(yes.instance, dataclasses.replace(decision, answer="INCONCLUSIVE"))


def test_ground_space_oracle():
    assert oracles.exact_rank([[1, 1], [2, 2], [0, 0]]) == 1
    assert oracles.exact_rank([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 3
    H = workloads._hamiltonian(3, [
        workloads._term((0,), {"0": 1}), workloads._term((1, 2), {"01": 1, "10": -1}),
    ])
    assert oracles.ground_dim(H) == 3  # |1> on q0 times the three states beside the singlet
    ladder = workloads.rungs_for("decide-ladder", workloads.DEFAULT_SEED)
    assert [oracles.ground_dim(r.instance) > 0 for r in ladder] == [False, *[True] * 6, False, False, True]


def test_page_oracle_rejects_off_by_one_dimension():
    wl, rung = smallest("specseq-pages")
    K, pages = wl.call(rung.instance)
    assert wl.check(rung.instance, (K, pages)) == []
    page = pages[2]
    (kl, d), *_ = [(kl, d) for kl, d in page.dims.items() if d]
    bumped = dataclasses.replace(page, dims={**page.dims, kl: d + 1})
    assert wl.check(rung.instance, (K, [*pages[:2], bumped, *pages[3:]]))


def test_page_oracle_checks_totals_without_a_published_table():
    chain_dims = {-1: 1, 0: 3, 1: 3}  # a hollow triangle: betti_1 = 1
    pages = [(0, {(-1, 0): 1, (0, 0): 3, (1, 0): 3}), (1, {(1, 0): 1})]
    assert oracles.check_pages(pages, chain_dims, {1: 1}) == []
    assert oracles.check_pages(pages, chain_dims, {1: 2})
    assert oracles.check_pages([pages[0], (1, {(1, 0): 2})], chain_dims, {1: 1})
    assert oracles.check_pages([pages[0], (1, {(0, 0): 1})], chain_dims, {1: 1})


def test_sweep_oracle_rejects_a_lost_kernel_branch():
    wl, rung = smallest("spectrum-sweep")
    table = wl.call(rung.instance)
    assert table.count_class("kernel") == 3 and wl.check(rung.instance, table) == []
    classes = list(table.classes)
    classes[classes.index("kernel")] = "2"
    assert wl.check(rung.instance, dataclasses.replace(table, classes=tuple(classes)))


def test_seed_changes_instances_but_never_shapes():
    def shape(H):
        return H.n, [(len(sup), len(s.amps), sorted(abs(a) for _z, a in s.amps)) for sup, s in H.terms]

    ladders = [workloads.rungs_for("decide-ladder", seed) for seed in range(8)]
    assert len({repr([r.instance for r in ladder]) for ladder in ladders}) > 1
    for ladder in ladders:
        assert [shape(r.instance) for r in ladder] == [shape(r.instance) for r in ladders[0]]
    assert workloads.rungs_for("decide-ladder", 5) == workloads.rungs_for("decide-ladder", 5)


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    raw = {
        "rungs": [{"name": "a", "shape": "", "small": True}],
        "passes": [{"traced": False, "times": {"a": 1.0}}, {"traced": True, "times": {"a": 1.5}}],
        "attempted": 2, "failures": [], "answers": [], "peak_rss_mb": 9.0, "machine": {},
        "per_layer": {name: 0 for name in tracing.per_layer_names()}, "spans": [],
    }
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload="w", seed=1, seconds=1.0, trace=trace)
        metrics, _details = run.summarize(args, [0.25], raw)
        assert list(metrics) == [m["name"] for m in spec[key]]
        assert [run.unit(name) for name in metrics] == [m["unit"] for m in spec[key]]


def test_run_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
