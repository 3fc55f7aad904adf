"""Acceptance gate: one test per numbered criterion, pinned tolerances.

Each test prints a single ``CRITERION n: PASS/FAIL (...)`` line with the
measured values, then asserts. Training recipes fix every seed, so reruns
reproduce the same numbers bit for bit.

Criterion 8 note: at the pinned generator parameters (M = 16, d = 8,
shift = 4, unit noise) the best possible decision rule is to pick the element
farthest from a slightly shrunken centroid, and a million-set Monte Carlo puts
that rule's accuracy at 0.754 +/- 0.001 (0.784 even if the per-set mean were
known exactly). The 0.80 floor therefore exceeds what any model can reach on
held-out data; the trained stack lands around 0.76, and this test reports the
shortfall honestly rather than weakening the threshold.
"""

import math
import time

import numpy as np
import pytest

from setnn import checks
from setnn.cli import cli_dispatch
from setnn.tasks import GaussianTaskSpec, gen_digit_sum, gen_outlier_sets, gen_population_task
from setnn.train import TrainConfig, evaluate, train

_SUITE_LIMITS = {
    "invariance": 10.0,
    "equivariance": 30.0,
    "gradients": 60.0,
    "powersum-roundtrip": 30.0,
    "bayes-oracle": 10.0,
}


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def battery():
    return {r.name: r for r in checks.run_all(seed=0)}


def _battery_criterion(n: int, battery, name: str) -> None:
    r = battery[name]
    in_budget = r.seconds < _SUITE_LIMITS[name]
    detail = f"{r.detail}; {r.seconds:.2f}s of {_SUITE_LIMITS[name]:.0f}s budget"
    _criterion(n, r.passed and in_budget, detail)


def test_criterion_1_invariance_suite(battery):
    _battery_criterion(1, battery, "invariance")


def test_criterion_2_equivariance_suite(battery):
    _battery_criterion(2, battery, "equivariance")


def test_criterion_3_gradient_suite(battery):
    _battery_criterion(3, battery, "gradients")


def test_criterion_4_powersum_roundtrip(battery):
    _battery_criterion(4, battery, "powersum-roundtrip")


def test_criterion_5_bayes_oracle(battery):
    _battery_criterion(5, battery, "bayes-oracle")


def test_criterion_6_digit_sum_generalization():
    started = time.perf_counter()
    train_ds = gen_digit_sum(20000, 10, None, seed=101)
    model, _ = train(TrainConfig(task="digit-sum", epochs=12, batch_size=64, seed=7), train_ds)
    acc10 = evaluate(model, gen_digit_sum(2000, 10, 10, seed=102), "digit-sum").eval_metric
    acc50 = evaluate(model, gen_digit_sum(2000, 10, 50, seed=103), "digit-sum").eval_metric
    elapsed = time.perf_counter() - started
    ok = acc10 >= 0.95 and acc50 >= 0.90 and elapsed < 600.0
    _criterion(6, ok, f"size-10 accuracy {acc10:.4f} (floor 0.95), "
                      f"size-50 accuracy {acc50:.4f} (floor 0.90), {elapsed:.0f}s of 600s")


def test_criterion_7_population_statistics():
    started = time.perf_counter()
    full = gen_population_task(GaussianTaskSpec(kind="rotation", num_sets=2560, seed=202))
    train_ds = full.subset(range(2048))
    test_ds = full.subset(range(2048, 2560))
    cfg = TrainConfig(task="population", pool="mean", epochs=10, batch_size=32, seed=11)
    model, _ = train(cfg, train_ds)
    mse = evaluate(model, test_ds, "population").eval_metric
    const_mse = float(np.mean((test_ds.targets - train_ds.targets.mean()) ** 2))

    cor = gen_population_task(GaussianTaskSpec(kind="correlation", num_sets=2048, seed=203))
    cfg_c = TrainConfig(task="population", pool="mean", epochs=20, batch_size=32, seed=12)
    model_c, _ = train(cfg_c, cor)
    zero = gen_population_task(GaussianTaskSpec(kind="correlation", num_sets=200, seed=204,
                                                alpha_fixed=0.0))
    rms_at_zero = math.sqrt(evaluate(model_c, zero, "population").eval_metric)
    elapsed = time.perf_counter() - started

    ok = (mse <= 0.05 and mse <= 0.5 * const_mse and rms_at_zero <= 0.1 and elapsed < 900.0)
    _criterion(7, ok, f"rotation test MSE {mse:.5f} (cap 0.05, constant-predictor ratio "
                      f"{mse / const_mse:.3f} vs 0.5), independence slice RMS {rms_at_zero:.4f} "
                      f"(cap 0.1), {elapsed:.0f}s of 900s")


def test_criterion_8_outlier_selection():
    started = time.perf_counter()
    full = gen_outlier_sets(8704, 16, 8, 4.0, seed=301)
    train_ds = full.subset(range(8192))
    test_ds = full.subset(range(8192, 8704))
    cfg = TrainConfig(task="outlier", epochs=30, batch_size=64, seed=13)
    model, _ = train(cfg, train_ds)
    acc = evaluate(model, test_ds, "outlier").eval_metric
    cfg_b = TrainConfig(task="outlier", epochs=30, batch_size=64, seed=13, pooled_baseline=True)
    baseline_model, _ = train(cfg_b, train_ds)
    baseline_acc = evaluate(baseline_model, test_ds, "outlier").eval_metric
    elapsed = time.perf_counter() - started

    collapse_ok = acc - baseline_acc >= 0.20
    ok = acc >= 0.80 and collapse_ok and elapsed < 900.0
    _criterion(8, ok, f"model accuracy {acc:.4f} vs required 0.80 (optimal decision rule "
                      f"measures 0.754 at these generator parameters, so the floor is above "
                      f"the task's ceiling), baseline {baseline_acc:.4f} with degradation "
                      f"{acc - baseline_acc:.4f} vs required 0.20, {elapsed:.0f}s of 900s")


def test_criterion_9_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        plain = tmp_path / f"{tag}.jsonl"
        gz = tmp_path / f"{tag}.jsonl.gz"
        assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "48",
                             "--seed", "5", "--out", str(plain)]) == 0
        assert cli_dispatch(["gen", "--task", "outlier", "--n", "16",
                             "--seed", "6", "--out", str(gz)]) == 0
        model = tmp_path / f"{tag}-model.json"
        assert cli_dispatch(["train", "--data", str(plain), "--out", str(model),
                             "--epochs", "2", "--batch", "16", "--seed", "4"]) == 0
        outputs.append((plain.read_bytes(), gz.read_bytes(), model.read_bytes(),
                        (tmp_path / f"{tag}-model.metrics.csv").read_bytes()))
    capsys.readouterr()
    labels = ("gen jsonl", "gen jsonl.gz", "train model", "train metrics")
    mismatches = [lab for lab, x, y in zip(labels, outputs[0], outputs[1]) if x != y]
    _criterion(9, not mismatches,
               f"repeated gen and train runs byte-identical across {labels}"
               if not mismatches else f"byte mismatch in {mismatches}")
