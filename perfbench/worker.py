"""Runs one workload in this fresh process: set-up, timed passes, output checks, traced passes.

    python3 perfbench/worker.py --workload mc --seed 1 --seconds 30 --trace 0 [--size full] [--setup-only]

Prints ``READY`` once set-up (imports, builtin catalog load, input generation)
is done, then one JSON line with per-pass metrics, failures and environment.
``run.py`` starts this script; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def import_breedsim():
    """Import the package from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import breedsim

    if not os.path.abspath(breedsim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"breedsim was imported from {breedsim.__file__}, not from {SRC}")
    return breedsim


def run_pass(jobs, tracer=None):
    """One closed-loop pass over the job list; returns [(job, seconds, output, error)]."""
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.enabled = True
            span = tracer.begin("cli.main" if job.via_cli else "bench.job")
        t0 = time.perf_counter()
        try:
            out, error = job.run(), None
        except Exception:  # a failing job is counted, the pass goes on
            out, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.finish(span)
            tracer.enabled = False
        records.append((job, seconds, out, error))
    return records


def check_pass(records, refs, first_summaries):
    """Check every output; returns (metrics, summaries, failures) of the pass."""
    seconds, work = defaultdict(float), defaultdict(int)
    summaries, failures = {}, []
    for job, dur, out, error in records:
        seconds[job.kind] += dur
        if error is None:
            try:
                summary = job.summary(out)
                error = job.check(summary, refs)
                work[job.kind] += job.work(summary)
                summaries[job.name] = summary
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is None and first_summaries is not None and summaries[job.name] != first_summaries.get(job.name):
            error = "output differs from the first pass with the same seed"
        if error is not None:
            failures.append({"job": job.name, "error": error})
    metrics = {}
    if "simulate" in seconds:
        metrics["trials_per_s"] = work["simulate"] / seconds["simulate"]
    if "verify" in seconds:
        metrics["patterns_per_s"] = work["verify"] / seconds["verify"]
    if "exact" in seconds:
        metrics["exact_s"] = seconds["exact"]
    if "analyze" in seconds:
        metrics["analyze_s"] = seconds["analyze"] + seconds["table"]
    if "search" in seconds:
        metrics["certify_s"] = seconds["search"]
        metrics["search_nodes_per_s"] = work["search"] / seconds["search"]
    return metrics, summaries, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    breedsim = import_breedsim()
    import numpy as np

    import workloads as wl
    from breedsim import catalog

    catalog.builtin_catalog()
    with open(wl.REFS_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    jobs = wl.WORKLOADS[args.workload](wl.SIZES[args.size], args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes, job_seconds, failures, attempted = [], [], [], 0
    first = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = run_pass(jobs)
        elapsed = time.perf_counter() - t0
        metrics, summaries, fails = check_pass(records, refs, first)
        first = first if first is not None else summaries
        passes.append(metrics)
        job_seconds.append([seconds for _, seconds, _, _ in records])
        failures += fails
        attempted += len(records)
        if time.perf_counter() - start + elapsed > args.seconds:
            break
    if len(passes) == 1:
        # one pass gives no repeat: run the first simulate job again to check determinism
        rerun = [job for job in jobs if job.kind == "simulate"][:1]
        if rerun:
            records = run_pass(rerun)
            failures += check_pass(records, refs, first)[2]
            attempted += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = []
    if args.trace:
        import tracing

        os.makedirs(OUT_DIR, exist_ok=True)
        for i in range(len(passes)):
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                records = run_pass(jobs, tracer)
            finally:
                restore()
            failures += check_pass(records, refs, first)[2]
            attempted += len(records)
            wall = sum(seconds for _, seconds, _, _ in records)
            layer = tracing.layer_metrics(tracer, wall)
            layer["trace.wall_s"] = wall
            traced.append(layer)
            if i == 0:
                tracer.save(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"))

    result = {
        "jobs": len(jobs),
        "passes": passes,
        "job_seconds": job_seconds,
        "traced": traced,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "breedsim": breedsim.__version__,
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
