"""Tests of the benchmark itself: smoke runs at toy size, run from the checkout.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("population", "outlier", "set-ops")

# Metrics printed by name on every run with tracing off, per workload.
NAMED = {
    "population": ("setup_s", "load_s", "train_sets_per_s", "eval_sets_per_s", "test_error",
                   "failed_frac", "peak_rss_mb"),
    "set-ops": ("setup_s", "load_s", "expand_candidates_per_s", "invert_sets_per_s", "failed_frac",
                "peak_rss_mb"),
}
NAMED["outlier"] = NAMED["population"]

COUNTS = ("autodiff.tape_nodes_per_step", "autodiff.fw_out_bytes_per_step",
          "autodiff.matmul_flops_per_step", "bayes.score_item.calls",
          "powersum.invert.nonconverged", "powersum.invert.over_tol")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _smoke(workload, trace, seed=3, cwd=ROOT, script=RUN, seconds=1):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _parse(stdout):
    lines = stdout.strip().splitlines()
    named = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            named[parts[1]] = (float(parts[2]), parts[3])
    return json.loads(lines[-1]), named


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end_metrics(workload):
    proc = _smoke(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result, named = _parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for value in result["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0
    assert set(named) == set(NAMED[workload])
    assert all(math.isfinite(v) for v, _ in named.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer_metrics_and_counts_repeat(workload):
    runs = [_smoke(workload, trace=1) for _ in range(2)]
    results = []
    for proc in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result, _ = _parse(proc.stdout)
        assert result["correct"] is True
        results.append(result["metrics"])
    spec = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    for metrics in results:
        assert {k: v["unit"] for k, v in metrics.items()} == spec
        assert all(math.isfinite(v["value"]) for v in metrics.values())
    for name in COUNTS:
        assert results[0][name]["value"] == results[1][name]["value"], name


def test_operation_counts_do_not_depend_on_window():
    """attempted and failed are a function of the seed, not of how many
    units fit in the measurement window."""
    results = []
    for seconds in (0.5, 2):
        proc = _smoke("set-ops", trace=0, seconds=seconds)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results.append(_parse(proc.stdout)[0])
    counts = [(r["attempted"], r["failed"]) for r in results]
    assert counts[0] == counts[1]
    assert counts[0][1] > 0


def test_fails_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("population", trace=0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_excludes_child_spans(monkeypatch):
    sys.path.insert(0, HERE)
    import tracing

    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(tracing, "_clock", lambda: next(ticks))
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert (tracer.stat("outer").total, tracer.stat("outer").self_s) == (10.0, 8.0)
    assert (tracer.stat("inner").total, tracer.stat("inner").self_s, tracer.stat("inner").calls) == (2.0, 2.0, 1)
