#!/usr/bin/env python3
"""Desk-scale benchmark of homology-lab: decide ladder, spectral-sequence pages, lambda sweep.

Run from the repository root:

    python3 bench/run.py --workload decide-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each workload runs closed-loop, one caller in one fresh worker process
(``worker.py``), so peak RSS and set-up time belong to that workload.  The
worker imports the library from ``src/`` of this checkout, keeps BLAS at
``BLAS_THREADS`` threads and ``HOMOLOGY_LAB_THREADS`` at its default.
Set-up time is taken from process start to the worker's ``READY`` line, in
``SETUP_SAMPLES`` fresh processes before and after the timed one, and
reported as their median.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
the traced passes instead, plus the tracing overhead.  Details (machine,
per-rung samples, percentiles, answers, spans) go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 9
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("HOMOLOGY_LAB_THREADS", None)
    return env


def start_worker(args, deadline: float, setup_only: bool) -> tuple[float, list[str]]:
    """Run one worker; returns (seconds from start to READY, remaining stdout lines)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    with subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = perf_counter() - t0
            rest = proc.stdout.read()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{args.workload} worker failed or ran past the time limit "
                         f"(exit {proc.returncode})")
    return ready, rest.splitlines()


def high_percentile(samples: list[float]) -> tuple[int | None, float | None]:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None, None
    p = (100 * (n - 10)) // n
    return p, sorted(samples)[max(0, -(-p * n // 100) - 1)]


def rung_medians(passes: list[dict], traced: bool) -> dict[str, float]:
    chosen = [p["times"] for p in passes if p["traced"] == traced]
    return {name: statistics.median(t[name] for t in chosen) for name in chosen[0]}


def summarize(args, setup: list[float], raw: dict) -> tuple[dict, dict]:
    """(metrics, details) of one workload run."""
    medians = rung_medians(raw["passes"], traced=False)
    small = {r["name"] for r in raw["rungs"] if r["small"]}
    untraced = [p for p in raw["passes"] if not p["traced"]]
    pass_totals = [sum(p["times"].values()) for p in untraced]
    failed = len(raw["failures"])
    answers = raw["answers"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": raw["machine"],
        "rungs": raw["rungs"],
        "attempted": raw["attempted"],
        "failed": failed,
        "failures": raw["failures"][:20],
        "error_frac": failed / raw["attempted"],
        "inconclusive_frac": answers.count("INCONCLUSIVE") / len(answers) if answers else None,
        "answers": sorted(set(answers)),
        "passes": raw["passes"],
        "pass_samples": len(pass_totals),
        "pass_total_s": pass_totals,
        "pass_total_high_percentile": high_percentile(pass_totals),
        "rung_median_s": medians,
        "setup_samples_s": setup,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if args.trace:
        traced = rung_medians(raw["passes"], traced=True)
        metrics = dict(raw["per_layer"])
        metrics["trace.overhead_s"] = sum(traced.values()) - sum(medians.values())
        details["spans"] = raw["spans"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": sum(medians.values()),
            "small_rung_s": sum(v for k, v in medians.items() if k in small),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    details["metrics"] = metrics
    return metrics, details


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def run_workload(args) -> tuple[dict, dict]:
    deadline = perf_counter() + RUN_LIMIT_S
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    # half the set-up probes run before the timed worker and half after it,
    # so a short slow spell of the host skews fewer than half the samples
    setup = [start_worker(args, deadline, setup_only=True)[0] for _ in range(probes // 2)]
    ready, lines = start_worker(args, deadline, setup_only=False)
    setup.append(ready)
    setup += [start_worker(args, deadline, setup_only=True)[0] for _ in range(probes - probes // 2)]
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{args.workload} worker printed no result") from None
    return summarize(args, setup, raw)


def write_details(details: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{details['workload']}-seed{details['seed']}-trace{details['trace']}.json"
    path.write_text(json.dumps(details, indent=1))
    return path


def report(details: dict, path: Path, out) -> None:
    w = details["workload"]
    print(f"{w}: {details['pass_samples']} untraced passes, {details['attempted']} calls, "
          f"details in {path.relative_to(ROOT)}; machine {details['machine']}", file=out)
    rows = dict(details["metrics"])
    rows["error_frac"] = details["error_frac"]
    if details["inconclusive_frac"] is not None:
        rows["inconclusive_frac"] = details["inconclusive_frac"]
    for name, value in rows.items():
        print(f"  {w:15s} {name:32s} {value:14.6g} {unit(name)}", file=out)
    for problem in details["failures"]:
        print(f"  FAILED {problem}", file=out)


def result_line(metrics: dict, details: dict) -> str:
    return json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its worker: start_worker kills it on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "homology_lab" / "__init__.py").is_file():
        print(f"bench: no library source at {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    table = sys.stdout if args.workload == "all" else sys.stderr
    try:
        for name in names:
            metrics, details = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            report(details, write_details(details), table)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(result_line(metrics, details))
    return 0


if __name__ == "__main__":
    sys.exit(main())
