"""One workload in one fresh process: set up, then time passes until the deadline.

Prints ``READY`` once set-up is done (import, instance generation and one
untimed warm-up call on the smallest rung), then one JSON line with the raw
per-call timings and oracle verdicts.  ``run.py`` starts this process and
turns that line into the benchmark's metrics.

A pass makes one timed call per rung.  Each call's oracle runs after its
timer stops, and a collection runs before its timer starts, so neither the
check nor the previous call's garbage is timed.  With ``--trace 1`` untraced
and traced passes alternate, starting untraced.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from contextlib import nullcontext
from time import perf_counter

import workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def timed_call(wl, rung, rec=None):
    """(seconds, problems, result) of one call; a raised error is a problem."""
    gc.collect()
    t0 = perf_counter()
    try:
        if rec is None:
            result = wl.call(rung.instance)
        else:
            with rec.call(rung.name):
                result = wl.call(rung.instance)
    except Exception as exc:  # the failure is counted, and the run goes on
        return perf_counter() - t0, [f"{type(exc).__name__}: {exc}"], None
    elapsed = perf_counter() - t0
    return elapsed, wl.check(rung.instance, result), result


def run(args) -> dict:
    import homology_lab  # noqa: F401  (the import is part of set-up)

    wl = workloads.WORKLOADS[args.workload]
    rungs = workloads.rungs_for(args.workload, args.seed)
    wl.call(rungs[0].instance)
    print("READY", flush=True)
    if args.setup_only:
        return {}

    import tracing

    passes: list[dict] = []
    traced_spans: list[list[tracing.Span]] = []
    failures: list[str] = []
    answers: list[str] = []
    t_start = perf_counter()
    min_passes = 2 if args.trace else 1  # a traced run times both kinds of pass
    while len(passes) < min_passes or perf_counter() - t_start < args.seconds:
        rec = tracing.Recorder() if args.trace and len(passes) % 2 else None
        times = {}
        with tracing.traced(rec) if rec is not None else nullcontext():
            for rung in rungs:
                seconds, problems, result = timed_call(wl, rung, rec)
                times[rung.name] = seconds
                failures.extend(f"{rung.name}: {p}" for p in problems)
                if wl.answer is not None and result is not None:
                    answers.append(wl.answer(result))
        passes.append({"traced": rec is not None, "times": times})
        if rec is not None:
            traced_spans.append(rec.spans)

    out = {
        "rungs": [{"name": r.name, "shape": r.shape, "small": r.small} for r in rungs],
        "passes": passes,
        "attempted": len(passes) * len(rungs),
        "failures": failures,
        "answers": answers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(),
    }
    if traced_spans:
        out["per_layer"] = tracing.layer_metrics(traced_spans)
        out["spans"] = [
            [i, s.name, s.start - t_start, s.end - t_start, s.parent, s.call, s.count]
            for i, spans in enumerate(traced_spans)
            for s in spans
        ]
    return out


def machine_info() -> dict:
    """CPU, library versions, and the BLAS NumPy uses with its thread count."""
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # the layout differs across NumPy versions
        blas = "unknown"
    try:
        import threadpoolctl

        pools = threadpoolctl.threadpool_info()
        threads = max((p["num_threads"] for p in pools if p["user_api"] == "blas"), default=None)
    except ImportError:  # fall back to the pinned setting
        threads = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "homology_lab_threads": os.environ.get("HOMOLOGY_LAB_THREADS", "1 (default)"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    out = run(args)
    if not args.setup_only:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
