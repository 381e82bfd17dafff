"""The benchmark's own test, on the small job lists.

    python3 -m pytest perfbench/test_bench.py -q     # from the checkout root, about two minutes

Every metric BENCHMARK.json names is emitted with its unit, every output check
passes, and the traced counts repeat exactly between two runs of one seed.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("mc", "erasure", "exhaustive")
#: figures each workload prints by name next to the end-to-end metrics
FIGURES = {
    "mc": {"trials_per_s"},
    "erasure": {"trials_per_s", "patterns_per_s", "exact_s"},
    "exhaustive": {"analyze_s", "certify_s"},
}
#: counts that must repeat exactly, and the workload on which each is non-zero
COUNTS = {
    "fieldmath.span_vectors": "exhaustive",
    "search.nodes": "exhaustive",
    "codes.decode_calls": "erasure",
    "codes.coset_builds": "erasure",
    "engine.run_protocol_calls": "erasure",
    "engine.verify_patterns": "erasure",
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, seed=5):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    lines, result = run_bench(workload, 0)
    check_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert {"setup_s", "wall_s", "peak_rss_mb", "fail_frac"} | FIGURES[workload] <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    _, first = run_bench(workload, 1)
    _, second = run_bench(workload, 1)
    check_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {name: first["metrics"][name]["value"] for name in counts} == {
        name: second["metrics"][name]["value"] for name in counts
    }
    for name, where in COUNTS.items():
        if where == workload:
            assert first["metrics"][name]["value"] > 0, name
    layer = {k: v["value"] for k, v in first["metrics"].items()}
    # layer self times cover the traced pass, up to the harness loop between jobs
    assert abs(layer["trace.self_sum_s"] - layer["trace.wall_s"]) <= 0.02 * layer["trace.wall_s"] + 0.01
