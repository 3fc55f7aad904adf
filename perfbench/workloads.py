"""One benchmark workload in one process; started by ``perfbench/run.py``.

run.py pins BLAS to one thread in this process's environment and puts the
checkout's ``src`` on ``PYTHONPATH`` before this file imports numpy. Do not
run this file directly unless you set the same environment.

A run has three phases:

1. set-up, repeated at least ``repeats`` times and ``phase_s`` seconds:
   generate the inputs from ``--seed`` and write them to files in a scratch
   directory inside the checkout;
2. load, repeated the same way: read those files back the way the ``setnn``
   command does;
3. a measurement window of ``--seconds``: repeat one fixed unit of work (one
   ``train()`` call plus held-out evaluations, or a round of expansions plus
   one pass of power-sum inversions) until the window closes, at least once.

Every unit does the same work on the same inputs, so its outputs must repeat
bit for bit; that is one of the correctness checks. Times and rates are
medians over the samples, normalized by the machine's slowness during their
phase (see :class:`Pace`). With ``--trace 1`` the first half of the window
runs untraced and the second half traced, and the per-layer numbers are
reported per traced unit (set-up and load spans per repeat).

The last line of standard output is the JSON result; the lines before it
print every metric by name with its unit, the environment, and each check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext

import numpy as np

import setnn
from setnn import bayes, powersum
from setnn import train as trainmod
from setnn.tasks import GaussianTaskSpec, gen_outlier_sets, gen_population_task, load_jsonl, save_jsonl

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("population", "outlier", "set-ops")

# End-to-end metrics every workload reports (trace 0). The two rates are
# named for what they measure on each workload; see WORKLOADS.md.
END_TO_END = (
    ("setup_s", "s"),
    ("load_s", "s"),
    ("train_or_expand_per_s", "1/s"),
    ("eval_or_invert_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

TRACED_KINDS = ("matmul", "add", "relu", "tanh", "scalar_scale", "segment_mean",
                "segment_max", "segment_broadcast", "set_softmax_nll", "mse_loss")

# Per-layer metrics every workload reports (trace 1). Times are seconds per
# traced unit (set-up and load spans: per repeat); a layer a workload never
# reaches reads 0.
PER_LAYER = tuple(
    [(f"autodiff.fw.{k}.{field}", unit) for k in TRACED_KINDS for field, unit in (("s", "s"), ("calls", "count"))]
    + [
        ("autodiff.backprop.s", "s"),
        ("autodiff.tape_nodes_per_step", "count"),
        ("autodiff.fw_out_bytes_per_step", "bytes"),
        ("autodiff.matmul_flops_per_step", "flop"),
        ("layers.forward.s", "s"),
        ("layers.forward.self_s", "s"),
        ("tasks.gen.s", "s"),
        ("tasks.save_jsonl.s", "s"),
        ("tasks.load_jsonl.s", "s"),
        ("tasks.to_set_batch.s", "s"),
        ("tasks.to_set_batch.calls", "count"),
        ("train.step_ms.p50", "ms"),
        ("train.step_ms.p90", "ms"),
        ("train.step_ms.samples", "count"),
        ("train.adam.s", "s"),
        ("train.epoch_eval.s", "s"),
        ("train.epoch_eval.share", "fraction"),
        ("bayes.expand.s", "s"),
        ("bayes.score_item.calls", "count"),
        ("bayes.as_binary_matrix.s", "s"),
        ("powersum.embed.s", "s"),
        ("powersum.newton_girard.s", "s"),
        ("powersum.poly_roots.s", "s"),
        ("powersum.invert.nonconverged", "count"),
        ("powersum.invert.over_tol", "count"),
        ("trace.overhead_frac", "fraction"),
    ]
)

# Sizes per workload. "full" is what the benchmark measures; "smoke" is a toy
# size for the benchmark's own tests, too small for the model-quality checks.
SIZES = {
    "full": {
        "repeats": 5,
        "phase_s": 3.5,
        "population": {"train": 256, "test": 256, "set_size_range": (300, 500), "epochs": 6, "evals": 3},
        "outlier": {"train": 1024, "test": 1024, "epochs": 3, "evals": 4},
        "set-ops": {"pool": 4000, "d": 200, "queries": 3, "query_size": 8, "k": 50, "oracle_sample": 20,
                    "rounds": 30},
    },
    "smoke": {
        "repeats": 2,
        "phase_s": 0.0,
        "population": {"train": 24, "test": 16, "set_size_range": (20, 40), "epochs": 1, "evals": 1},
        "outlier": {"train": 128, "test": 64, "epochs": 1, "evals": 1},
        "set-ops": {"pool": 120, "d": 40, "queries": 2, "query_size": 4, "k": 10, "oracle_sample": 5,
                    "rounds": 1},
    },
}

ROUNDTRIP_TOL = 1e-6       # an inversion further than this from its sample failed
ORACLE_TOL = 1e-9          # expand scores against score_item_oracle
OUTLIER_SET_SIZE = 16

# About Pace's reference times on the machine the benchmark was tuned on: a
# 2-vCPU x86_64 VM, numpy 2.4 with OpenBLAS 0.3.31 on one thread.
REFERENCE_NOMINAL_S = {"compute": 0.005, "data": 0.0075}


class Pace:
    """How slow the machine runs during a benchmark run, against a reference.

    On a shared machine the speed of one core drifts by 15-30% in waves that
    last minutes (and by up to 2x for allocation-heavy Python code), so runs
    made minutes apart disagree by more than any useful bound. The benchmark
    times a fixed reference work item before, between and after the timed
    operations of each phase. Set-up and load time the "data" reference,
    parsing JSON lines of nested float lists into numpy arrays (allocation-heavy
    Python like generating, saving and loading a dataset); the measurement window
    times the "compute" reference, an interpreter loop, small-array numpy
    calls, a BLAS matmul and a streaming pass over arrays larger than the
    caches (the mix training and set operations spend their time in). A
    phase's slowness is its median reference time over the reference's
    ``REFERENCE_NOMINAL_S``; the phase's times are divided by it and its rates
    multiplied by it, so they read as they would on a machine that runs the
    references in their nominal times. The raw medians are printed too. The
    references use no setnn code, so no change to the program can move them.
    """

    REPEATS = 5
    REFERENCE_OF_PHASE = {"setup": "data", "load": "data", "window": "compute"}

    def __init__(self):
        rng = np.random.default_rng(0)
        self._big = rng.random((4096, 64))
        self._w = rng.random((64, 64))
        self._small = rng.random((64, 8))
        # Preallocated outputs: with fresh arrays the reference time would
        # depend on the allocator state the timed work leaves behind.
        self._x = np.empty_like(self._small)
        self._out = np.empty((4096, 64))
        self._stream = [rng.random(1 << 20), np.empty(1 << 20)]  # 8 MB each, beyond the caches
        self._lines = [json.dumps({"elements": rng.random((400, 2)).tolist(), "target": 0.5}) for _ in range(16)]
        self.times: dict[str, list[float]] = {}
        self._compute()  # the first calls pay one-off costs
        self._data()

    def _compute(self) -> float:
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        x = self._x
        np.copyto(x, self._small)
        for _ in range(200):
            np.tanh(x, out=x)
            np.multiply(x, 0.5, out=x)
        np.matmul(self._big, self._w, out=self._out)
        np.maximum(self._out, 0.0, out=self._out)
        a, b = self._stream
        np.multiply(a, 1.0, out=b)
        np.multiply(b, 1.0, out=a)
        return acc + float(x[0, 0]) + float(self._out[0, 0])

    def _data(self) -> float:
        return sum(float(np.asarray(json.loads(line)["elements"], dtype=np.float64)[0, 0]) for line in self._lines)

    def measure(self, phase: str) -> None:
        """Time the phase's reference; the median of a few repeats drops one
        slowed by the caches the timed work left behind."""
        reference = self._data if self.REFERENCE_OF_PHASE[phase] == "data" else self._compute
        times = []
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            reference()
            times.append(time.perf_counter() - started)
        self.times.setdefault(phase, []).append(statistics.median(times))

    def slowness(self, phase: str) -> float:
        return statistics.median(self.times[phase]) / REFERENCE_NOMINAL_S[self.REFERENCE_OF_PHASE[phase]]


class Results:
    """What the units of one run produce: raw rate samples per kind
    ("train", "eval", "expand", "invert"), operation counts and checks."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.outputs: list = []              # one fingerprint per unit, must all be equal
        self.unit_ops: list[tuple[int, int]] = []  # (attempted, failed) of each unit

    def ops(self) -> tuple[int, int]:
        """Attempted and failed operations of one unit. Every unit repeats the
        same operations on the same inputs (the determinism check), so these
        depend on the seed alone, not on how many units fit in the window."""
        return self.unit_ops[0] if self.unit_ops else (self.attempted, self.failed)

    def add(self, kind: str, rate: float) -> None:
        self.samples.setdefault(kind, []).append(rate)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))


class TrainingWorkload:
    """population and outlier: generate, save, load, train(), evaluate()."""

    RATES = (("train", "train_sets_per_s", "sets/s"), ("eval", "eval_sets_per_s", "sets/s"))

    def __init__(self, name: str, seed: int, size: dict, workdir: str, smoke: bool):
        self.name = name
        self.seed = seed
        self.size = size
        self.smoke = smoke
        self.train_path = os.path.join(workdir, f"{name}-train.jsonl")
        self.test_path = os.path.join(workdir, f"{name}-test.jsonl")
        self.task = name
        if name == "population":
            self.config = trainmod.TrainConfig(task="population", pool="mean", batch_size=32,
                                               epochs=size["epochs"], seed=seed)
        else:
            self.config = trainmod.TrainConfig(task="outlier", batch_size=64, epochs=size["epochs"], seed=seed)
        self.test_error = math.nan

    def _generate(self):
        n = self.size["train"] + self.size["test"]
        if self.name == "population":
            return gen_population_task(GaussianTaskSpec(kind="rotation", num_sets=n, seed=self.seed,
                                                        set_size_range=tuple(self.size["set_size_range"])))
        return gen_outlier_sets(n, OUTLIER_SET_SIZE, d=8, shift=4.0, seed=self.seed)

    def setup(self, span) -> None:
        with span("tasks.gen"):
            full = self._generate()
        n_train = self.size["train"]
        train_ds = full.subset(range(n_train))
        test_ds = full.subset(range(n_train, len(full)))
        with span("tasks.save_jsonl"):
            save_jsonl(train_ds, self.train_path)
            save_jsonl(test_ds, self.test_path)

    def load(self, span) -> None:
        with span("tasks.load_jsonl"):
            self.train_ds = load_jsonl(self.train_path)
            self.test_ds = load_jsonl(self.test_path)

    def unit(self, span, res: Results, tick) -> None:
        res.attempted += 1
        try:
            with span("train.train"):
                model, records = trainmod.train(self.config, self.train_ds)
        except trainmod.TrainingDiverged as exc:
            res.failed += 1
            res.outputs.append(f"diverged: {exc}")
            return
        finally:
            tick()
        n_train = len(self.train_ds)
        for r in records:
            res.add("train", n_train / r.wall_seconds)
        metrics = []
        for _ in range(self.size["evals"]):
            res.attempted += 1
            started = time.perf_counter()
            try:
                metric = trainmod.evaluate(model, self.test_ds, self.task).eval_metric
            except trainmod.TrainingDiverged:
                res.failed += 1
                continue
            res.add("eval", len(self.test_ds) / (time.perf_counter() - started))
            metrics.append(metric)
            tick()
        res.outputs.append((tuple(r.train_loss for r in records), tuple(metrics)))
        if metrics:
            self.test_error = metrics[0] if self.task == "population" else 1.0 - metrics[0]

    def finish(self, res: Results) -> None:
        """Model-quality checks on the trained model's held-out metric."""
        if self.smoke:
            return
        if self.task == "population":
            # Beating the constant predictor is not possible for every seed:
            # the seed draws the base covariance, and when it is nearly
            # isotropic the targets vary less than the sampling noise of a
            # 300-500 element set. So the check compares with the same model
            # before training; the constant predictor is reported alongside.
            untrained = trainmod.build_model(self.config, self.train_ds.element_dim,
                                             np.random.default_rng(self.config.seed))
            before = trainmod.evaluate(untrained, self.test_ds, self.task).eval_metric
            const = float(np.mean((self.test_ds.targets - np.mean(self.train_ds.targets)) ** 2))
            res.check("population.mse_below_untrained_model", self.test_error < before,
                      f"test MSE {self.test_error!r} vs untrained model {before!r} "
                      f"(constant predictor {const!r})")
        else:
            floor = 2.0 / OUTLIER_SET_SIZE
            res.check("outlier.accuracy_above_chance", 1.0 - self.test_error > floor,
                      f"accuracy {1.0 - self.test_error!r} vs twice chance {floor!r}")

    def extra_metrics(self) -> list[tuple[str, float, str]]:
        return [("test_error", self.test_error, "mse" if self.task == "population" else "1-accuracy")]


class SetOpsWorkload:
    """Bayesian Sets expansion and power-sum embed/invert; no tape, no training."""

    name = "set-ops"
    RATES = (("expand", "expand_candidates_per_s", "candidates/s"), ("invert", "invert_sets_per_s", "sets/s"))

    def __init__(self, seed: int, size: dict, workdir: str):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.samples_path = os.path.join(workdir, "set-ops-samples.json")
        self.model = bayes.BetaBinomialModel.uniform(size["d"])
        self.fail_by_m: dict[int, list[int]] = {}

    def _query_path(self, q: int) -> str:
        return os.path.join(self.workdir, f"set-ops-expand-{q}.jsonl")

    def setup(self, span) -> None:
        s = self.size
        d = s["d"]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
        clusters = 8
        protos = rng.random((clusters, d)) < 0.2
        flip = 0.1
        pool = protos[rng.integers(0, clusters, s["pool"])] ^ (rng.random((s["pool"], d)) < flip)
        # About 5% exact copies of earlier candidates, so expand has ties to order.
        dup = rng.random(s["pool"]) < 0.05
        dup[0] = False
        source = (rng.random(s["pool"]) * np.arange(s["pool"])).astype(np.int64)
        pool[dup] = pool[source[dup]]
        candidate_lines = "".join(
            json.dumps({"bits": row, "id": i}) + "\n" for i, row in enumerate(pool.astype(int).tolist()))
        for q in range(s["queries"]):
            members = protos[q % clusters] ^ (rng.random((s["query_size"], d)) < flip)
            query_lines = "".join(json.dumps({"bits": row, "query": True}) + "\n"
                                  for row in members.astype(int).tolist())
            with open(self._query_path(q), "w") as f:
                f.write(query_lines + candidate_lines)
        samples = [np.sort(rng.random(m)).tolist()
                   for _ in range(s["rounds"]) for m in range(2, powersum.MAX_SET_SIZE + 1)]
        with open(self.samples_path, "w") as f:
            json.dump(samples, f)

    def load(self, span) -> None:
        """Read the files in the input format of ``setnn expand``."""
        d = self.size["d"]
        self.queries = []
        for q in range(self.size["queries"]):
            query, candidates = [], []
            with open(self._query_path(q)) as f:
                for line in f:
                    obj = json.loads(line)
                    (query if obj.get("query") else candidates).append(obj["bits"])
            self.queries.append((bayes.as_binary_matrix(query, d), bayes.as_binary_matrix(candidates, d)))
        with open(self.samples_path) as f:
            self.samples = [np.asarray(x) for x in json.load(f)]

    def unit(self, span, res: Results, tick) -> None:
        tops = []
        for X, C in self.queries:
            res.attempted += 1
            started = time.perf_counter()
            with span("bayes.expand"):
                top = bayes.expand(self.model, X, C, self.size["k"])
            res.add("expand", C.shape[0] / (time.perf_counter() - started))
            tops.append(top)
            tick()
        nonconverged = over_tol = 0
        fail_by_m: dict[int, list[int]] = {}
        started = time.perf_counter()
        for x in self.samples:
            res.attempted += 1
            with span("powersum.embed"):
                Z = powersum.embed(x)
            try:
                error = float(np.max(np.abs(powersum.invert(Z).values - x)))
            except powersum.RootConvergenceError:
                nonconverged += 1
                ok = False
            except powersum.PowerSumError:
                over_tol += 1
                ok = False
            else:
                ok = error <= ROUNDTRIP_TOL
                over_tol += not ok
            tally = fail_by_m.setdefault(x.size, [0, 0])
            tally[0] += not ok
            tally[1] += 1
        res.add("invert", len(self.samples) / (time.perf_counter() - started))
        tick()
        res.failed += nonconverged + over_tol
        self.nonconverged, self.over_tol, self.fail_by_m = nonconverged, over_tol, fail_by_m
        res.outputs.append((tuple(tuple(t) for t in tops), nonconverged, over_tol))
        self.tops = tops

    def _check_expand(self, res: Results, X, C, top) -> None:
        """Top-k order, tie order and scores against the independent oracle."""
        k = self.size["k"]
        ordered = len(top) == k and all(
            a[1] > b[1] or (a[1] == b[1] and a[0] < b[0]) for a, b in zip(top, top[1:]))
        res.check("expand.order", ordered, "top-k scores non-increasing, ties in input order")
        worst = max(abs(s - bayes.score_item_oracle(self.model, X, C[i])) for i, s in top)
        chosen = {i for i, _ in top}
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 8]))
        others = [int(i) for i in rng.permutation(C.shape[0]) if int(i) not in chosen][: self.size["oracle_sample"]]
        kth_index, kth_score = top[-1]
        beaten = []
        for i in others:
            score = bayes.score_item(self.model, X, C[i])
            worst = max(worst, abs(score - bayes.score_item_oracle(self.model, X, C[i])))
            if score > kth_score or (score == kth_score and i < kth_index):
                beaten.append(i)
        res.check("expand.oracle", worst <= ORACLE_TOL and not beaten,
                  f"max |score - oracle| {worst:.3e}; sampled non-returned candidates that outrank the k-th: {beaten}")

    def finish(self, res: Results) -> None:
        for (X, C), top in zip(self.queries, self.tops):
            self._check_expand(res, X, C, top)
        profile = " ".join(f"M={m}:{f}/{n}" for m, (f, n) in sorted(self.fail_by_m.items()))
        print(f"info invert_failures_by_M {profile}")

    def extra_metrics(self) -> list[tuple[str, float, str]]:
        return []


def _blas_threads() -> int:
    """Thread count the loaded OpenBLAS reports, or -1 when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return -1
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def _environment() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    load1, load5, _ = os.getloadavg()
    return (f"env numpy={np.__version__} blas={blas.get('name', '?')}-{blas.get('version', '?')} "
            f"blas_threads={_blas_threads()} OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} "
            f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
            f"loadavg_1m={load1:.2f} loadavg_5m={load5:.2f} python={sys.version.split()[0]}")


def _layer_metrics(tracer: Tracer, setup_stats: dict, setups: int, loads: int, units: int,
                   unit_counts: list, untraced_walls: list, traced_walls: list, wl) -> dict:
    out = {}
    for kind in TRACED_KINDS:
        stat = tracer.stat(f"autodiff.fw.{kind}")
        out[f"autodiff.fw.{kind}.s"] = stat.total / units
        out[f"autodiff.fw.{kind}.calls"] = stat.calls / units
    nodes, out_bytes, flops = unit_counts[0] if unit_counts else (0.0, 0.0, 0.0)
    steps = sorted(tracer.step_ms)
    train_total = tracer.stat("train.train").total
    epoch_eval = tracer.stat("train.epoch_eval").total
    forward = tracer.stat("layers.forward")
    out.update({
        "autodiff.backprop.s": tracer.stat("autodiff.backprop").total / units,
        "autodiff.tape_nodes_per_step": nodes,
        "autodiff.fw_out_bytes_per_step": out_bytes,
        "autodiff.matmul_flops_per_step": flops,
        "layers.forward.s": forward.total / units,
        "layers.forward.self_s": forward.self_s / units,
        "tasks.gen.s": setup_stats["tasks.gen"] / setups,
        "tasks.save_jsonl.s": setup_stats["tasks.save_jsonl"] / setups,
        "tasks.load_jsonl.s": setup_stats["tasks.load_jsonl"] / loads,
        "tasks.to_set_batch.s": tracer.stat("tasks.to_set_batch").total / units,
        "tasks.to_set_batch.calls": tracer.stat("tasks.to_set_batch").calls / units,
        "train.step_ms.p50": statistics.median(steps) if steps else 0.0,
        "train.step_ms.p90": statistics.quantiles(steps, n=10)[8] if len(steps) > 1 else max(steps, default=0.0),
        "train.step_ms.samples": len(steps),
        "train.adam.s": tracer.stat("train.adam").total / units,
        "train.epoch_eval.s": epoch_eval / units,
        "train.epoch_eval.share": epoch_eval / train_total if train_total else 0.0,
        "bayes.expand.s": tracer.stat("bayes.expand").total / units,
        "bayes.score_item.calls": tracer.stat("bayes.score_item").calls / units,
        "bayes.as_binary_matrix.s": tracer.stat("bayes.as_binary_matrix").total / units,
        "powersum.embed.s": tracer.stat("powersum.embed").total / units,
        "powersum.newton_girard.s": tracer.stat("powersum.newton_girard").total / units,
        "powersum.poly_roots.s": tracer.stat("powersum.poly_roots").total / units,
        "powersum.invert.nonconverged": getattr(wl, "nonconverged", 0),
        "powersum.invert.over_tol": getattr(wl, "over_tol", 0),
        "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    sizes = SIZES["smoke" if smoke else "full"]
    repeats, phase_s = sizes["repeats"], sizes["phase_s"]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if workload == "set-ops":
            wl = SetOpsWorkload(seed, sizes[workload], workdir)
        else:
            wl = TrainingWorkload(workload, seed, sizes[workload], workdir, smoke)
        return _measure(wl, seconds, trace, repeats, phase_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another workload process still uses it


def _measure(wl, seconds: float, trace: bool, repeats: int, phase_s: float) -> int:
    print(_environment())
    print(f"info workload={wl.name} seed={wl.seed} seconds={seconds} trace={int(trace)} "
          f"sizes={json.dumps(wl.size, sort_keys=True)}")
    tracer = Tracer()
    span = tracer.span if trace else (lambda name: nullcontext())
    res = Results()
    pace = Pace()

    def timed_repeats(phase: str, step) -> list[float]:
        """At least ``repeats`` runs of ``step`` spanning ``phase_s`` seconds."""
        times = []
        pace.measure(phase)
        deadline = time.perf_counter() + phase_s
        while len(times) < repeats or time.perf_counter() < deadline:
            started = time.perf_counter()
            step(span)
            times.append(time.perf_counter() - started)
            pace.measure(phase)
        return times

    setup_times = timed_repeats("setup", wl.setup)
    load_times = timed_repeats("load", wl.load)
    setup_stats = {name: tracer.stat(name).total for name in ("tasks.gen", "tasks.save_jsonl", "tasks.load_jsonl")}
    tracer.stats.clear()

    def tick() -> None:
        pace.measure("window")

    def units_until(deadline: float, unit_span) -> list[float]:
        walls = []
        while not walls or time.perf_counter() < deadline:
            attempted, failed = res.attempted, res.failed
            started = time.perf_counter()
            wl.unit(unit_span, res, tick)
            walls.append(time.perf_counter() - started)
            res.unit_ops.append((res.attempted - attempted, res.failed - failed))
        return walls

    tick()

    start = time.perf_counter()
    if trace:
        untraced_walls = units_until(start + seconds / 2, lambda name: nullcontext())
        unit_counts, traced_walls = [], []
        tracer.install()
        try:
            while not traced_walls or time.perf_counter() < start + seconds:
                first_step = len(tracer.step_counts)
                traced_walls.extend(units_until(0.0, tracer.span))
                steps = tracer.step_counts[first_step:]
                unit_counts.append(tuple(sum(c) / len(steps) for c in zip(*steps)) if steps else (0.0, 0.0, 0.0))
        finally:
            tracer.uninstall()
        res.check("trace.counts_repeat", len(set(unit_counts)) == 1,
                  f"per-step tape counts identical in all {len(unit_counts)} traced units")
    else:
        units_until(start + seconds, lambda name: nullcontext())

    wl.finish(res)
    res.check("determinism.units_agree",
              len({repr(o) for o in res.outputs}) == 1 and len(set(res.unit_ops)) == 1,
              f"outputs and (attempted, failed) operation counts identical across {len(res.outputs)} units")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    (primary, primary_name, primary_unit), (secondary, secondary_name, secondary_unit) = wl.RATES
    if trace:
        values = _layer_metrics(tracer, setup_stats, len(setup_times), len(load_times), len(traced_walls),
                                unit_counts, untraced_walls, traced_walls, wl)
        # Times are normalized like the end-to-end ones; counts and ratios are not.
        phase_of = {"tasks.gen.s": "setup", "tasks.save_jsonl.s": "setup", "tasks.load_jsonl.s": "load"}
        metrics = {name: (values[name] / pace.slowness(phase_of.get(name, "window"))
                          if unit in ("s", "ms") else values[name], unit)
                   for name, unit in PER_LAYER}
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value!r} {unit}")
        print(f"info slowness window={pace.slowness('window')!r} traced_units={len(traced_walls)} "
              f"untraced_units={len(untraced_walls)}")
    else:
        first = res.samples.get(primary, [])
        second = res.samples.get(secondary, [])
        raw = {
            "setup_s": statistics.median(setup_times),
            "load_s": statistics.median(load_times),
            "train_or_expand_per_s": statistics.median(first) if first else math.nan,
            "eval_or_invert_per_s": statistics.median(second) if second else math.nan,
        }
        slowness = {phase: pace.slowness(phase) for phase in ("setup", "load", "window")}
        values = {
            "setup_s": raw["setup_s"] / slowness["setup"],
            "load_s": raw["load_s"] / slowness["load"],
            "train_or_expand_per_s": raw["train_or_expand_per_s"] * slowness["window"],
            "eval_or_invert_per_s": raw["eval_or_invert_per_s"] * slowness["window"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        named = [("setup_s", values["setup_s"], "s"), ("load_s", values["load_s"], "s"),
                 (primary_name, values["train_or_expand_per_s"], primary_unit),
                 (secondary_name, values["eval_or_invert_per_s"], secondary_unit)]
        named += wl.extra_metrics()
        attempted, failed = res.ops()
        named += [("failed_frac", failed / attempted, "fraction"), ("peak_rss_mb", peak_rss_mb, "MB")]
        for name, value, unit in named:
            print(f"metric {name} {value!r} {unit}")
        print(f"info samples {primary}={len(first)} {secondary}={len(second)} set-up={len(setup_times)} "
              f"load={len(load_times)} reference=" + ",".join(f"{k}:{len(v)}" for k, v in pace.times.items()))
        print("info raw_medians " + " ".join(f"{name}={value!r}" for name, value in raw.items())
              + " " + " ".join(f"slowness_{phase}={value!r}" for phase, value in slowness.items()))

    res.check("metrics.finite", all(math.isfinite(v) for v, _ in metrics.values()),
              "every reported metric is a finite number")
    for name, ok, detail in res.checks:
        print(f"check {name} {'ok' if ok else 'FAIL'} {detail}")
    correct = all(ok for _, ok, _ in res.checks)
    attempted, failed = res.ops()
    print(f"info operations per unit attempted={attempted} failed={failed}; "
          f"all {len(res.unit_ops)} units attempted={res.attempted} failed={res.failed}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(setnn.__file__).startswith(src + os.sep):
        print(f"error: imported setnn from {setnn.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
