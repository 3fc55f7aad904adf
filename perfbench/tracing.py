"""Timing spans for the traced benchmark run.

The traced run wraps public entry points of setnn from outside the package:
module attributes that callers look up at call time (``apply_primitive``,
``backprop``, ``evaluate``, the bayes and powersum helpers) and methods on
classes (``to_set_batch``, ``Adam.step``, the model ``forward`` methods).
Nothing under ``src/`` changes, and :meth:`Tracer.uninstall` restores every
original.

Spans nest. A span's self time is its duration minus the durations of the
spans it directly encloses. Spans are aggregated per name in memory (total,
self, calls) instead of being stored one by one, because the outlier workload
makes hundreds of thousands of primitive calls and a span list would show up
in the peak RSS the benchmark reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_clock = time.perf_counter


class SpanStat:
    __slots__ = ("total", "self_s", "calls")

    def __init__(self):
        self.total = 0.0
        self.self_s = 0.0
        self.calls = 0


class Tracer:
    """Aggregated span timings plus the per-step records of training.

    ``step_ms`` holds one duration per training step, from the step's
    ``to_set_batch`` call to the end of its ``Adam.step``. ``step_counts``
    holds ``(tape nodes, forward output bytes, matmul flops)`` of every tape
    handed to ``backprop``, computed outside the timed spans.
    """

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.step_ms: list[float] = []
        self.step_counts: list[tuple[int, int, int]] = []
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._step_start: float | None = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = _clock() - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat()
        stat.total += duration
        stat.self_s += duration - children
        stat.calls += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def stat(self, name: str) -> SpanStat:
        return self.stats.get(name, SpanStat())

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, original))

    def _timed(self, name_of):
        """Wrapper factory: time each call under the span name ``name_of(args)``."""
        def make(original):
            def wrapper(*args, **kwargs):
                self._enter(name_of(args))
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit()
            return wrapper
        return make

    def install(self) -> None:
        """Wrap the traced entry points of setnn. Call once; undo with uninstall()."""
        from setnn import autodiff, bayes, layers, powersum, tasks, train

        if self._patches:
            raise RuntimeError("tracer is already installed")

        def fixed(name):
            return self._timed(lambda args: name)

        self._patch(autodiff, "apply_primitive", self._timed(lambda args: f"autodiff.fw.{args[0]}"))
        self._patch(layers.InvariantModel, "forward", fixed("layers.forward"))
        self._patch(layers.EquivariantStack, "forward", fixed("layers.forward"))
        self._patch(bayes, "score_item", fixed("bayes.score_item"))
        self._patch(bayes, "as_binary_matrix", fixed("bayes.as_binary_matrix"))
        self._patch(powersum, "newton_girard", fixed("powersum.newton_girard"))
        self._patch(powersum, "poly_roots", fixed("powersum.poly_roots"))
        # train() calls evaluate() once per epoch; the benchmark's own
        # held-out evaluation runs outside the train.train span.
        self._patch(train, "evaluate", self._timed(
            lambda args: "train.epoch_eval" if self.active("train.train") else "train.evaluate"))

        def batch_wrapper(original):
            timed = fixed("tasks.to_set_batch")(original)

            def wrapper(*args, **kwargs):
                if self.active("train.train") and not self.active("train.epoch_eval"):
                    self._step_start = _clock()
                return timed(*args, **kwargs)
            return wrapper

        def adam_wrapper(original):
            timed = fixed("train.adam")(original)

            def wrapper(*args, **kwargs):
                try:
                    return timed(*args, **kwargs)
                finally:
                    if self._step_start is not None:
                        self.step_ms.append(1e3 * (_clock() - self._step_start))
                        self._step_start = None
            return wrapper

        def backprop_wrapper(original):
            timed = fixed("autodiff.backprop")(original)

            def wrapper(tape, *args, **kwargs):
                self.step_counts.append(tape_counts(tape))
                return timed(tape, *args, **kwargs)
            return wrapper

        self._patch(tasks.LabeledSetDataset, "to_set_batch", batch_wrapper)
        self._patch(train.Adam, "step", adam_wrapper)
        self._patch(autodiff, "backprop", backprop_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def tape_counts(tape) -> tuple[int, int, int]:
    """Node count, bytes of primitive outputs and matmul flops of one tape.

    These are exact functions of the step's inputs and the model, so they
    repeat bit for bit across runs with the same seed.
    """
    out_bytes = 0
    flops = 0
    for node in tape.nodes:
        if node.kind == "leaf":
            continue
        out_bytes += node.out_data.nbytes
        if node.kind == "matmul":
            a, b = node.in_data
            flops += 2 * a.size * b.shape[1]
    return len(tape.nodes), out_bytes, flops
