"""Synthetic set-supervised tasks with exact analytic targets.

Three families:

* Gaussian population statistics: each set is an i.i.d. sample from a
  per-set Gaussian whose construction admits a closed-form target:
  ``rotation`` (entropy of the first marginal under a random rotation),
  ``correlation`` (mutual information between the two halves of a paired
  covariance), and ``rank1``/``random`` (total correlation of a structured or
  unstructured covariance).
* Digit sum: sets of one-hot encoded digits, labeled by their integer sum.
* Outlier selection: sets of Gaussian vectors sharing a per-set mean, with
  one element shifted by a fixed distance in a random direction; the label is
  the outlier's index.

``TASKS`` says what each task means: whether its target ``selects`` an
element (outlier; else it is one scalar per set), which fixes the dataset's
``target_kind``, the ``metric(outputs, targets)`` of its selections or
predictions, and its dataset ``meta_keys``.

Generation is deterministic and partitionable: one loop draws every set of
every task from its own generator seeded by (seed, set index), so datasets
are reproducible byte-for-byte and a set is the same in a dataset of any
size. Each generator supplies only its checks and the draw of one set; the
loop writes the shared metadata, and a dataset's ``per_set_meta`` is None when
no set carries metadata of its own. Serialization is JSONL (one object per
set), gzipped when the path ends in ``.gz`` with a pinned zero mtime so
repeated runs produce identical files.
"""

from __future__ import annotations

import gzip
import io
import json
import numbers
import sys
import zlib
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from setnn.autodiff import ShapeError
from setnn.layers import SetBatch

__all__ = [
    "TaskError",
    "GaussianTaskSpec",
    "LabeledSetDataset",
    "gen_population_task",
    "gen_digit_sum",
    "gen_outlier_sets",
    "save_jsonl",
    "load_jsonl",
    "POPULATION_KINDS",
    "TASKS",
]

POPULATION_KINDS = ("rotation", "correlation", "rank1", "random")

Task = namedtuple("Task", "selects metric meta_keys")
TASKS = {
    "population": Task(False, lambda preds, targets: float(np.mean((preds - targets) ** 2)), (
        "task", "kind", "d", "element_dim", "num_sets", "seed", "set_size_range", "target_kind", "alpha_fixed")),
    "digit-sum": Task(False, lambda preds, targets: float(np.mean(np.round(preds) == targets)), (
        "task", "max_set_size", "set_size_at_test", "num_sets", "seed", "target_kind")),
    "outlier": Task(True, lambda picks, targets: float(np.mean(picks == targets)), (
        "task", "set_size", "d", "shift", "num_sets", "seed", "target_kind")),
}

_DEFAULT_DIM = {"rotation": 2, "correlation": 16, "rank1": 32, "random": 32}

_MIN_EIGENVALUE = 1e-6


class TaskError(ValueError):
    """Bad task parameters or data; ``set_index`` names the offending set, if any."""

    def __init__(self, message: str, set_index: int | None = None):
        super().__init__(message)
        self.set_index = set_index


def _require_task(task, error: type[ValueError] = TaskError) -> Task:
    """``TASKS[task]``; raises ``error`` if ``task`` is not one of its keys."""
    if not isinstance(task, str) or task not in TASKS:
        raise error(f"task must be one of {tuple(TASKS)}, got {task!r}")
    return TASKS[task]


def _target_kind(task: Task) -> str:
    """The ``target_kind`` of every dataset of ``task``."""
    return "index" if task.selects else "scalar"


def require_int(name: str, value, least: int, error: type[ValueError] = TaskError):
    """``value`` if it is an integer of at least ``least`` (a bool is not one);
    otherwise raises ``error`` naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def require_real(name: str, value, error: type[ValueError] = TaskError):
    """``value`` if it is a real number that fits a finite float (a bool is
    not one; NaN and an infinity do not fit); otherwise raises ``error``
    naming the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise error(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class GaussianTaskSpec:
    """Recipe for one population-statistics dataset.

    ``d`` is the base dimension; correlation sets live in 2d (two coupled
    halves). ``alpha_fixed`` pins the per-set coupling instead of drawing it,
    which is how evaluation slices at a known ground truth are produced.
    """

    kind: str
    num_sets: int
    seed: int
    d: int | None = None
    set_size_range: tuple[int, int] = (300, 500)
    alpha_fixed: float | None = None

    def __post_init__(self):
        if self.kind not in POPULATION_KINDS:
            raise TaskError(f"kind must be one of {POPULATION_KINDS}, got {self.kind!r}")
        if self.d is None:
            object.__setattr__(self, "d", _DEFAULT_DIM[self.kind])
        require_int("d", self.d, 1)
        if self.kind == "rotation" and self.d != 2:
            raise TaskError(f"invalid dimension {self.d} for kind {self.kind!r}")
        size_range = self.set_size_range
        if not isinstance(size_range, (tuple, list)) or len(size_range) != 2:
            raise TaskError(f"set_size_range must be two integers [lo, hi], got {size_range!r}")
        lo, hi = (require_int("each set_size_range entry", m, 1) for m in size_range)
        if lo > hi:
            raise TaskError(f"bad set size range {size_range}")
        object.__setattr__(self, "set_size_range", (lo, hi))
        require_int("num_sets", self.num_sets, 1)
        require_int("seed", self.seed, 0)
        if self.alpha_fixed is not None:
            if self.kind != "correlation":
                raise TaskError("alpha_fixed applies to the correlation kind only")
            require_real("alpha_fixed", self.alpha_fixed)

    @property
    def element_dim(self) -> int:
        return 2 * self.d if self.kind == "correlation" else self.d


@dataclass
class LabeledSetDataset:
    """Sets packed in one :class:`SetBatch`, with one target per set.

    ``meta`` names a ``task`` of ``TASKS`` and the ``target_kind`` that the
    table gives it: ``"index"`` (the row of one element within its set) when
    it ``selects``, else ``"scalar"``. ``per_set_meta`` holds one dict per set,
    or is None when no set carries metadata of its own. The generators build
    every dataset through one loop that draws set ``i`` from ``(seed, i)``.
    The dataset is validated once, here: that metadata, finite elements, one
    finite target per set, and index targets that are integers in
    ``[0, set size)``. A failure raises a TaskError naming the first bad set.
    """

    batch: SetBatch
    targets: np.ndarray
    meta: dict = field(default_factory=dict)
    per_set_meta: list[dict] | None = None

    def __post_init__(self):
        task = _require_task(self.meta.get("task"))
        index_targets = task.selects
        kind = _target_kind(task)
        if self.meta.get("target_kind") != kind:
            raise TaskError(f"task {self.meta['task']!r} needs target_kind {kind!r}, "
                            f"got {self.meta.get('target_kind')!r}")
        n = self.batch.num_sets
        targets = np.asarray(self.targets, dtype=np.float64)
        if targets.shape != (n,):
            raise TaskError(f"{n} sets need one target each, got targets of shape {targets.shape}")
        if self.per_set_meta is not None and len(self.per_set_meta) != n:
            raise TaskError("per-set metadata length mismatch")
        if not np.all(np.isfinite(self.batch.elements)):
            i = int(np.argmax(self.batch.segments.max(~np.isfinite(self.batch.elements).all(axis=1))))
            raise TaskError(f"set {i} has a non-finite element", i)
        bad = ~np.isfinite(targets)
        if index_targets:
            bad |= (targets != np.floor(targets)) | (targets < 0) | (targets >= self.batch.segments.sizes)
        if bad.any():
            i = int(np.argmax(bad))
            want = f"an integer in [0, {self.batch.segments.sizes[i]})" if index_targets else "finite"
            raise TaskError(f"set {i} has target {targets[i]:g}; it must be {want}", i)
        self.targets = targets.astype(np.int64) if index_targets else targets

    def __len__(self) -> int:
        return self.batch.num_sets

    @property
    def element_dim(self) -> int:
        return self.batch.width

    def to_set_batch(self, indices=None) -> SetBatch:
        """The whole batch, a ``slice(lo, hi)`` of it sharing its arrays, or the
        sets at an index array gathered into a copy."""
        if indices is None:
            return self.batch
        if isinstance(indices, slice):
            return self.batch.slice(indices.start, indices.stop)
        return self.batch.gather(indices)

    def subset(self, indices) -> "LabeledSetDataset":
        """New dataset holding the selected sets (copies, original untouched)."""
        idx = np.asarray(indices, dtype=np.int64)
        meta = dict(self.meta)
        meta["num_sets"] = len(idx)
        per_set = None if self.per_set_meta is None else [dict(self.per_set_meta[i]) for i in idx]
        return LabeledSetDataset(self.batch.gather(idx), self.targets[idx], meta, per_set)


def _set_rng(seed: int, index: int) -> np.random.Generator:
    # namespace 0: per-set streams; namespace 1: dataset-level draws
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0, int(index)]))


def _dataset_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), 1]))


def _random_pd(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a @ a.T / d + 1e-3 * np.eye(d)


def _require_pd(cov: np.ndarray) -> np.ndarray:
    if np.linalg.eigvalsh(cov)[0] < _MIN_EIGENVALUE:
        raise TaskError("covariance is not positive definite after construction")
    return cov


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _total_correlation(cov: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise TaskError("covariance is not positive definite after construction")
    return 0.5 * (float(np.sum(np.log(np.diag(cov)))) - logdet)


def _block_mi(cov: np.ndarray, d: int) -> float:
    top = np.linalg.slogdet(cov[:d, :d])[1]
    bottom = np.linalg.slogdet(cov[d:, d:])[1]
    sign, full = np.linalg.slogdet(cov)
    if sign <= 0:
        raise TaskError("covariance is not positive definite after construction")
    return 0.5 * (top + bottom - full)


def _generate(task: str, num_sets: int, seed: int, draw, **params) -> LabeledSetDataset:
    """The one generation loop: set ``i`` is ``draw(_set_rng(seed, i))`` ->
    ``(elements, target, info)``, so it is the same set in a dataset of any
    size. ``meta`` is ``params`` with the task, ``num_sets``, ``seed`` and the
    target kind ``TASKS`` gives the task; ``per_set_meta`` holds the ``info``
    dicts, or is None when every one is empty."""
    require_int("num_sets", num_sets, 1)
    require_int("seed", seed, 0)
    sets, targets, per_set = zip(*(draw(_set_rng(seed, i)) for i in range(num_sets)))
    meta = dict(params, task=task, num_sets=num_sets, seed=seed, target_kind=_target_kind(TASKS[task]))
    return LabeledSetDataset(SetBatch.from_sets(sets), np.array(targets), meta,
                             list(per_set) if any(per_set) else None)


def gen_population_task(spec: GaussianTaskSpec) -> LabeledSetDataset:
    """Sample the per-set Gaussians of one population task with their targets."""
    d = spec.d
    ds_rng = _dataset_rng(spec.seed)
    base_cov = None
    direction = None
    if spec.kind in ("rotation", "correlation"):
        base_cov = _require_pd(_random_pd(ds_rng, d))
    elif spec.kind == "rank1":
        direction = ds_rng.standard_normal(d)
    lo, hi = spec.set_size_range

    def draw(rng):
        size = int(rng.integers(lo, hi + 1))
        info: dict = {}
        if spec.kind == "rotation":
            angle = float(rng.uniform(0.0, np.pi))
            cov = _rotation(angle) @ base_cov @ _rotation(angle).T
            target = 0.5 * np.log(2.0 * np.pi * np.e * cov[0, 0])
            info["alpha"] = angle
        elif spec.kind == "correlation":
            if spec.alpha_fixed is not None:
                alpha = float(spec.alpha_fixed)
            else:
                alpha = float(rng.uniform(-1.0, 1.0))
            # keep the paired covariance comfortably positive definite
            alpha = float(np.clip(alpha, -(1.0 - 1e-3), 1.0 - 1e-3))
            cov = np.block([[base_cov, alpha * base_cov], [alpha * base_cov, base_cov]])
            target = _block_mi(cov, d)
            info["alpha"] = alpha
        elif spec.kind == "rank1":
            lam = float(rng.uniform(0.0, 1.0))
            cov = np.eye(d) + lam * np.outer(direction, direction)
            target = _total_correlation(cov)
            info["lambda"] = lam
        else:  # random
            cov = _random_pd(rng, d)
            target = _total_correlation(cov)
        _require_pd(cov)
        chol = np.linalg.cholesky(cov)
        return rng.standard_normal((size, cov.shape[0])) @ chol.T, target, info

    pinned = {} if spec.alpha_fixed is None else {"alpha_fixed": spec.alpha_fixed}
    return _generate("population", spec.num_sets, spec.seed, draw, kind=spec.kind, d=d,
                     element_dim=spec.element_dim, set_size_range=list(spec.set_size_range), **pinned)


def gen_digit_sum(num_sets: int, max_set_size: int = 10, set_size_at_test: int | None = 0, *,
                  seed: int) -> LabeledSetDataset:
    """One-hot digit sets labeled by their sum.

    With ``set_size_at_test`` None or 0, set sizes are uniform on
    [1, max_set_size] (the training regime); otherwise every set has exactly
    that size (the evaluation regime for length generalization).
    """
    require_int("max_set_size", max_set_size, 1)
    fixed = 0 if set_size_at_test is None else require_int("set_size_at_test", set_size_at_test, 0)
    eye = np.eye(10)

    def draw(rng):
        size = fixed if fixed else int(rng.integers(1, max_set_size + 1))
        digits = rng.integers(0, 10, size)
        return eye[digits], float(digits.sum()), {}

    return _generate("digit-sum", num_sets, seed, draw, max_set_size=max_set_size, set_size_at_test=fixed)


def gen_outlier_sets(num_sets: int, set_size: int = 16, d: int = 8, shift: float = 4.0, *,
                     seed: int) -> LabeledSetDataset:
    """Sets of Gaussian vectors with one mean-shifted element to find.

    Every element shares a per-set random mean; the outlier's mean is offset
    by ``shift`` along a random unit direction. ``shift`` may be zero, which
    produces an indistinguishable 'outlier' (the chance-level control).
    """
    require_int("set_size", set_size, 2)
    require_int("d", d, 1)
    if require_real("shift", shift) < 0:
        raise TaskError("shift must be non-negative")

    def draw(rng):
        mu = rng.standard_normal(d)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        elements = mu + rng.standard_normal((set_size, d))
        pos = int(rng.integers(0, set_size))
        elements[pos] += shift * u
        return elements, pos, {}

    return _generate("outlier", num_sets, seed, draw, set_size=set_size, d=d, shift=shift)


# --- serialization ------------------------------------------------------------


def save_jsonl(dataset: LabeledSetDataset, path: str) -> None:
    """One JSON object per set; deterministic bytes (gzip mtime pinned to 0)."""
    index_targets = TASKS[dataset.meta["task"]].selects
    buf = io.StringIO()
    for i in range(len(dataset)):
        line_meta = dict(dataset.meta)
        if dataset.per_set_meta is not None:
            line_meta.update(dataset.per_set_meta[i])
        target = int(dataset.targets[i]) if index_targets else float(dataset.targets[i])
        obj = {"elements": dataset.batch.set_at(i).tolist(), "target": target, "meta": line_meta}
        buf.write(json.dumps(obj, separators=(",", ":"), sort_keys=True))
        buf.write("\n")
    payload = buf.getvalue().encode()
    if path.endswith(".gz"):
        with open(path, "wb") as f:
            with gzip.GzipFile(filename="", mode="wb", fileobj=f, mtime=0) as gz:
                gz.write(payload)
    else:
        with open(path, "wb") as f:
            f.write(payload)


_ABSENT = object()


def load_jsonl(path: str) -> LabeledSetDataset:
    """Read a dataset written by :func:`save_jsonl`. A corrupt gzip file, a
    malformed or invalid line, and a line whose dataset keys differ from the
    first line's raise a TaskError naming the line; metadata the dataset
    refuses is named on the first line."""
    opener = gzip.open if path.endswith(".gz") else open
    sets = []
    targets = []
    per_set = []
    line_numbers = []
    try:
        with opener(path, "rt") as f:
            for number, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    sets.append(np.asarray(obj["elements"], dtype=np.float64))
                    if sets[-1].ndim != 2:
                        raise ValueError(f"elements must be a list of rows, got shape {sets[-1].shape}")
                    # float() reads a JSON true as 1.0; only a line with one can hold a boolean element
                    if ("true" in line or "false" in line) and any(
                            isinstance(v, bool) for row in obj["elements"] for v in row):
                        raise TypeError("elements must be JSON numbers, got a boolean")
                    target = obj["target"]
                    if isinstance(target, bool) or not isinstance(target, (int, float)):
                        raise TypeError(f"target must be a JSON number, got {target!r}")
                    targets.append(float(target))
                    if not isinstance(obj["meta"], dict):
                        raise TypeError("meta must be a JSON object")
                except KeyError as exc:
                    raise TaskError(f"{path} line {number}: missing field {exc}") from exc
                except (TypeError, ValueError, OverflowError, RecursionError) as exc:
                    raise TaskError(f"{path} line {number}: {exc}") from exc
                per_set.append(obj["meta"])
                line_numbers.append(number)
    except (EOFError, UnicodeDecodeError, zlib.error, gzip.BadGzipFile) as exc:  # corrupt gzip, binary junk
        raise TaskError(f"{path}: {exc}") from exc
    if not sets:
        raise TaskError(f"{path} contains no sets")
    first = per_set[0]
    try:  # an error's set_index (None for the whole dataset: line 1) names its line
        keys = _require_task(first.get("task")).meta_keys
        for i, m in enumerate(per_set):
            differ = [k for k in keys if m.get(k, _ABSENT) != first.get(k, _ABSENT)]
            if differ:
                raise TaskError(f"dataset fields {sorted(differ)} differ from line {line_numbers[0]}", i)
        extras = [{k: v for k, v in m.items() if k not in keys} for m in per_set]
        return LabeledSetDataset(SetBatch.from_sets(sets), np.array(targets),
                                 {k: first[k] for k in keys if k in first}, extras if any(extras) else None)
    except (ShapeError, TaskError) as exc:
        raise TaskError(f"{path} line {line_numbers[exc.set_index or 0]}: {exc}") from exc
