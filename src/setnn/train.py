"""Training and evaluation driver for the synthetic set tasks.

``tasks.TASKS`` gives each task's metric and says whether it is a scalar
regression with mean squared error (population, digit sum) or a per-element
selection with a set-wise softmax negative log likelihood (outlier).
Mini-batches are whole sets; each step averages the gradient over its sets.
Optimization is Adam with fixed defaults, a fixed epoch budget, and no early
stopping, so a (config, dataset) pair fully determines the run.

The task fixes the architecture, at fixed widths (the module constants
``PHI_WIDTHS``, ``RHO_WIDTHS`` and ``EQUIVARIANT_WIDTHS``): regression tasks
use a per-element dense stack, the configured pooling reduction, and a
per-set dense stack; a selection task scores elements with a stack of
``maxpool-normalized`` permutation-equivariant layers followed by a softmax
across each set. Setting ``pooled_baseline`` swaps the equivariant stack for
a pool-first model with identical layer shapes (hence identical parameter
count) whose score is necessarily constant within a set, the collapse control
for the selection task.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from setnn import autodiff as ad
from setnn.autodiff import Tape, Tensor
from setnn.layers import (
    EquivariantLayer,
    EquivariantStack,
    InvariantModel,
    SetBatch,
    _POOLS,
    dense_stack,
    glorot_uniform,
)
from setnn.tasks import TASKS, LabeledSetDataset, _require_task, require_int, require_real

__all__ = [
    "ConfigError",
    "TrainingDiverged",
    "TrainConfig",
    "MetricsRecord",
    "Adam",
    "build_model",
    "train",
    "evaluate",
    "metrics_to_csv",
    "METRICS_HEADER",
]

# Evaluation runs the model over slices of whole sets, each the largest
# multiple of _EVAL_SET_STEP sets within _EVAL_ROWS element rows (at least
# _EVAL_SET_STEP sets), so that the (rows, 64) activations stay in cache; the
# last slice takes the rest and has at least _EVAL_SET_STEP sets. BLAS rounds
# a matrix's tail rows, and a one-row matrix, differently from its other rows;
# these slices give every per-set row the place it has in one pass over the
# whole dataset, so predictions do not depend on the slicing.
_EVAL_ROWS = 2048
_EVAL_SET_STEP = 16

PHI_WIDTHS = (64, 64, 64)
RHO_WIDTHS = (64, 32, 1)
EQUIVARIANT_WIDTHS = (64, 64, 1)

METRICS_HEADER = "epoch,train_loss,eval_metric,wall_seconds"


class ConfigError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Raised by ``train`` when a step produces a non-finite value, or when the
    weights after an epoch's last step overflow in that epoch's evaluation.

    Carries where the run died and the parameter norms at that point, which
    is usually enough to tell an exploding step size from bad data.
    """

    def __init__(self, epoch: int, batch_index: int, param_norms: list[float]):
        self.epoch = epoch
        self.batch_index = batch_index
        self.param_norms = param_norms
        norms = ", ".join(f"{n:.3e}" for n in param_norms)
        super().__init__(
            f"non-finite values at epoch {epoch}, batch {batch_index}; parameter norms: [{norms}]"
        )


@dataclass
class TrainConfig:
    """Everything that determines a training run except the dataset.

    ``pool`` is the regression model's set reduction (the outlier models pool
    by max and take only the default); ``pooled_baseline`` swaps the outlier
    model for its pool-first control. The task fixes the loss and the
    architecture.
    """

    task: str
    pool: str = "sum"
    pooled_baseline: bool = False
    step_size: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        _require_task(self.task, ConfigError)
        if not isinstance(self.pool, str) or self.pool not in _POOLS:
            raise ConfigError(f"pool must be one of {sorted(_POOLS)}, got {self.pool!r}")
        if not isinstance(self.pooled_baseline, bool):
            raise ConfigError(f"pooled_baseline must be true or false, got {self.pooled_baseline!r}")
        if self.pooled_baseline and not TASKS[self.task].selects:
            raise ConfigError("pooled_baseline applies to the outlier task only")
        if TASKS[self.task].selects and self.pool != "sum":
            raise ConfigError("pool applies to the population and digit-sum tasks only; "
                              "the outlier models always pool by max")
        if require_real("step_size", self.step_size, ConfigError) <= 0:
            raise ConfigError(f"step_size must be a positive finite number, got {self.step_size!r}")
        for name, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            require_int(name, getattr(self, name), least, ConfigError)


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    eval_metric: float
    wall_seconds: float


def metrics_to_csv(records, include_timing: bool = False) -> str:
    """Render records as CSV. Timing is zeroed out by default so the bytes
    depend only on (config, dataset, seed); pass ``include_timing`` for real
    wall times at the cost of run-to-run identical files."""
    lines = [METRICS_HEADER]
    for r in records:
        wall = f"{r.wall_seconds:.3f}" if include_timing else "0.000"
        lines.append(f"{r.epoch},{r.train_loss!r},{r.eval_metric!r},{wall}")
    return "\n".join(lines) + "\n"


class Adam(object):
    """Adam with step-count bias correction; state keyed by parameter order.
    The moment decays and the denominator's epsilon are the usual defaults."""

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8

    def __init__(self, params: list[Tensor], step_size: float = 1e-3):
        self.params = list(params)
        self.step_size = float(step_size)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ConfigError(f"{len(grads)} gradients for {len(self.params)} parameters")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.step_size * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


def build_model(config: TrainConfig, element_dim: int, rng: np.random.Generator):
    """Instantiate the architecture a config describes for a given element width."""
    if element_dim < 1:
        raise ConfigError(f"element_dim must be positive, got {element_dim}")
    if not TASKS[config.task].selects:
        phi = dense_stack(rng, [element_dim, *PHI_WIDTHS], "relu", final="relu")
        rho = dense_stack(rng, [PHI_WIDTHS[-1], *RHO_WIDTHS], "relu", final="linear")
        return InvariantModel(phi, config.pool, rho)
    if config.pooled_baseline:
        rho = dense_stack(rng, [element_dim, *EQUIVARIANT_WIDTHS], "tanh", final="linear")
        return InvariantModel([], "max", rho)
    layers = []
    widths = [element_dim, *EQUIVARIANT_WIDTHS]
    for i in range(len(widths) - 1):
        act = "tanh" if i < len(widths) - 2 else "linear"
        Lambda = glorot_uniform(rng, widths[i], widths[i + 1])
        layers.append(EquivariantLayer("maxpool-normalized", Lambda=Lambda, beta=np.zeros(widths[i + 1]),
                                       nonlinearity=act))
    return EquivariantStack(layers)


def _check_dataset(task: str, dataset: LabeledSetDataset) -> None:
    """Refuse a dataset whose task is not ``task``. The dataset has checked
    that its task is a key of ``TASKS`` and that its targets fit it."""
    if dataset.meta["task"] != task:
        raise ConfigError(f"task {task!r} but dataset task {dataset.meta['task']!r}")


def _element_scores(model, batch: SetBatch) -> Tensor:
    """Per-element selection scores as a (total, 1) tensor. A per-set scorer
    (the pooled baseline) is broadcast back to its elements."""
    if isinstance(model, EquivariantStack):
        return model.forward_batch(batch)
    per_set = model.forward(batch)
    return ad.segment_broadcast(per_set, batch.offsets)


def _batch_loss(config: TrainConfig, model, batch: SetBatch, targets: np.ndarray) -> Tensor:
    if TASKS[config.task].selects:
        scores = _element_scores(model, batch)
        return ad.set_softmax_nll(scores, batch.offsets, targets)
    pred = model.forward(batch)
    return ad.mse_loss(pred, Tensor(targets.reshape(-1, 1)))


def train(config: TrainConfig, dataset: LabeledSetDataset):
    """Run the configured training; returns (model, per-epoch MetricsRecords).

    The eval metric of each record is computed on the training dataset. The
    dataset is never mutated: training batches are gathered copies, and
    evaluation reads slices of the dataset.
    """
    _check_dataset(config.task, dataset)
    rng = np.random.default_rng(config.seed)
    model = build_model(config, dataset.element_dim, rng)
    params = model.params()
    opt = Adam(params, config.step_size)
    n = len(dataset)
    records: list[MetricsRecord] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        sets_seen = 0
        try:  # a step's loss or gradient, or the epoch's evaluation after its last step
            for batch_index, lo in enumerate(range(0, n, config.batch_size)):
                idx = order[lo:lo + config.batch_size]
                batch = dataset.to_set_batch(idx)
                targets = dataset.targets[idx]
                with Tape() as tape:
                    loss = _batch_loss(config, model, batch, targets)
                grads = ad.backprop(tape, loss, params)
                opt.step(grads)
                loss_sum += float(loss.data) * idx.size
                sets_seen += idx.size
            metric = evaluate(model, dataset, config.task).eval_metric
        except ad.NonFiniteError as exc:
            # hypot, unlike squaring, does not overflow on weights near 1e300
            norms = [float(np.hypot.reduce(p.data, axis=None)) for p in params]
            raise TrainingDiverged(epoch, batch_index, norms) from exc
        records.append(MetricsRecord(epoch, loss_sum / sets_seen, metric,
                                     time.perf_counter() - started))
    return model, records


def _eval_slices(offsets: np.ndarray):
    """Yield the ``(lo, hi)`` set ranges evaluation runs the model over."""
    n = offsets.size - 1
    lo = 0
    while lo < n:
        fit = int(np.searchsorted(offsets, offsets[lo] + _EVAL_ROWS, side="right")) - 1 - lo
        hi = lo + max(_EVAL_SET_STEP, fit - fit % _EVAL_SET_STEP)
        if hi + _EVAL_SET_STEP > n:
            hi = n
        yield lo, hi
        lo = hi


def _column(run, dataset: LabeledSetDataset) -> np.ndarray:
    """``run`` over the evaluation slices, stacked. Evaluation reads one output
    per set or per element, so a model with more is a ShapeError."""
    out = np.concatenate([run(dataset.to_set_batch(slice(lo, hi))).data
                          for lo, hi in _eval_slices(dataset.batch.offsets)])
    if out.shape[1] != 1:
        raise ad.ShapeError(f"model gives {out.shape[1]} outputs per row; evaluation needs 1")
    return out


def _predictions(model, dataset: LabeledSetDataset) -> np.ndarray:
    return _column(model.forward, dataset)[:, 0]


def _selections(model, dataset: LabeledSetDataset) -> np.ndarray:
    """Each set's highest-scoring element; ties go to the lowest index."""
    off = dataset.batch.offsets
    scores = _column(lambda batch: _element_scores(model, batch), dataset)
    return ad.segment_argmax(scores, off)[:, 0] - off[:-1]


def evaluate(model, dataset: LabeledSetDataset, task: str) -> MetricsRecord:
    """Score a model on a dataset by the task's metric (no tape). Raises
    ConfigError if the dataset names another task, as ``train`` does, and
    NonFiniteError if the model's outputs or the metric overflow."""
    _check_dataset(task, dataset)
    spec = TASKS[task]
    if not spec.selects and isinstance(model, EquivariantStack):
        raise ConfigError(f"task {task!r} needs one prediction per set, but the model scores elements")
    started = time.perf_counter()
    metric = spec.metric((_selections if spec.selects else _predictions)(model, dataset), dataset.targets)
    if not math.isfinite(metric):
        raise ad.NonFiniteError(f"the {task} metric is not finite")
    return MetricsRecord(0, float("nan"), metric, time.perf_counter() - started)
