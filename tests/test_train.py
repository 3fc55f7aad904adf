import dataclasses
import json

import numpy as np
import pytest

from setnn import autodiff as ad
from setnn import train as tr
from setnn.autodiff import Tape, Tensor
from setnn.layers import DenseLayer, EquivariantLayer, EquivariantStack, InvariantModel, SetBatch, model_to_json
from setnn.tasks import (
    TASKS,
    GaussianTaskSpec,
    LabeledSetDataset,
    TaskError,
    gen_digit_sum,
    gen_outlier_sets,
    gen_population_task,
)
from setnn.train import (
    Adam,
    ConfigError,
    MetricsRecord,
    TrainConfig,
    TrainingDiverged,
    build_model,
    evaluate,
    metrics_to_csv,
    train,
)


def selections(model, dataset):
    """The picks ``evaluate`` scores an outlier model by."""
    return tr._metric_input(True, tr._column(model, dataset, True), dataset.batch.segments)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(task="regression")
    # an unknown field is refused by the keyword call, naming it
    for loss in ("set-softmax-nll", "mse", "margin"):
        with pytest.raises(TypeError, match="unexpected keyword argument 'loss'"):
            TrainConfig(**{"task": "population", "loss": loss})
    with pytest.raises(ConfigError):
        TrainConfig(task="population", pooled_baseline=True)
    with pytest.raises(ConfigError, match="pool applies"):
        TrainConfig(task="outlier", pool="mean")
    for pool in ("median", ["sum"]):
        with pytest.raises(ConfigError) as info:
            TrainConfig(task="population", pool=pool)
        assert str(info.value) == f"pool must be one of ['max', 'mean', 'sum'], got {pool!r}"
    # the architecture and Adam's constants are fixed, not configured
    for name, value in (("phi_widths", [64, 64, 64]), ("rho_widths", [64, 2]),
                        ("equivariant_widths", [64, 64, 1]), ("equivariant_variant", "full-lambda-gamma"),
                        ("beta1", 0.9), ("beta2", 0.999), ("epsilon", 1e-8)):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            TrainConfig(**{"task": "outlier", name: value})
    with pytest.raises(ConfigError):
        TrainConfig(task="population", batch_size=0)
    # JSON gives every field its own type; a wrong one is refused, not coerced
    for name, value in (("batch_size", 2.5), ("epochs", True), ("seed", 1.5), ("seed", -1),
                        ("pooled_baseline", "false"), ("pooled_baseline", 0),
                        ("step_size", float("nan")), ("step_size", float("inf")), ("step_size", "0.1"),
                        ("step_size", True), ("step_size", 0)):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{"task": "outlier", name: value})
    TrainConfig(task="outlier", batch_size=np.int64(4), seed=np.int64(0), step_size=1)


def test_config_default_loss_and_roundtrip():
    cfg = TrainConfig(task="outlier")
    assert "loss" not in dataclasses.asdict(cfg)  # the task fixes the loss
    back = TrainConfig(**json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert back == cfg
    with pytest.raises(TypeError, match="'momentum'"):
        TrainConfig(**{"task": "population", "momentum": 0.9})
    with pytest.raises(TypeError, match="'task'"):
        TrainConfig(**{"epochs": 3})


def test_adam_first_step_matches_hand_formula():
    p = Tensor(np.array([1.0, -2.0]))
    opt = Adam([p], step_size=0.1)
    g = np.array([0.5, -0.25])
    opt.step([g])
    # first step: m_hat = g, v_hat = g*g, so the update is -0.1 * g/(|g|+eps)
    expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=1e-9)


def test_adam_minimizes_quadratic():
    p = Tensor(np.array([[5.0]]))
    target = Tensor(np.array([[3.0]]))
    opt = Adam([p], step_size=0.1)
    for _ in range(400):
        with Tape() as tape:
            loss = ad.mse_loss(p, target)
        opt.step(ad.backprop(tape, loss, [p]))
    assert p.data[0, 0] == pytest.approx(3.0, abs=1e-4)


def test_build_model_shapes_and_parity():
    rng = np.random.default_rng(0)
    reg = build_model(TrainConfig(task="population"), 2, rng)
    assert isinstance(reg, InvariantModel)
    assert reg.rho[-1].out_width == 1
    assert reg.phi[0].in_width == 2

    sel = build_model(TrainConfig(task="outlier"), 8, rng)
    assert isinstance(sel, EquivariantStack)
    assert len(sel.layers) == 3
    assert [l.dense.nonlinearity for l in sel.layers] == ["tanh", "tanh", "linear"]
    assert [l.pool for l in sel.layers] == ["mean"] * 3  # each layer centres its sets: x - mean(x)

    base = build_model(TrainConfig(task="outlier", pooled_baseline=True), 8, rng)
    assert isinstance(base, InvariantModel) and not base.phi and base.pool == "max"
    count = lambda m: sum(p.data.size for p in m.params())
    assert count(base) == count(sel)
    # from one seed, the baseline holds the stack's own dense layers: the same draws in the same order
    seeded = lambda baseline: build_model(TrainConfig(task="outlier", pooled_baseline=baseline), 8,
                                          np.random.default_rng(5)).params()
    as_bytes = lambda params: [(p.data.shape, p.data.tobytes()) for p in params]
    assert as_bytes(seeded(True)) == as_bytes(seeded(False))


@pytest.mark.parametrize("task", ["digit-sum", "outlier"])
def test_training_visits_sets_in_the_documented_order(monkeypatch, task):
    """``train`` seeds one generator, draws the model from it, then takes one
    ``rng.permutation(n)`` per epoch and cuts it into ``batch_size`` slices.
    The golden CLI digests pin this on one BLAS only; this pins it on any."""
    ds = gen_digit_sum(11, 4, None, seed=3) if task == "digit-sum" else gen_outlier_sets(11, 4, 3, seed=3)
    config = TrainConfig(task=task, batch_size=4, epochs=3, seed=9)
    seen = []
    gather = LabeledSetDataset.to_set_batch

    def recording(self, indices=None):
        if isinstance(indices, np.ndarray):  # training batches; evaluation passes slices
            seen.append(indices.copy())
        return gather(self, indices)

    monkeypatch.setattr(LabeledSetDataset, "to_set_batch", recording)
    train(config, ds)
    rng = np.random.default_rng(config.seed)
    build_model(config, ds.element_dim, rng)
    want = []
    for _ in range(config.epochs):
        order = rng.permutation(len(ds))
        want += [order[lo:lo + config.batch_size] for lo in range(0, len(ds), config.batch_size)]
    assert len(seen) == len(want) == 9
    for got, expected in zip(seen, want):
        np.testing.assert_array_equal(got, expected)


def test_pooled_baseline_scores_are_constant_within_a_set():

    rng = np.random.default_rng(3)
    base = build_model(TrainConfig(task="outlier", pooled_baseline=True), 4, rng)
    ds = gen_outlier_sets(6, set_size=5, d=4, shift=3.0, seed=1)
    batch = ds.to_set_batch()
    scores = tr._output(True, base, batch).data.reshape(-1)
    for i in range(batch.num_sets):
        seg = scores[batch.offsets[i]:batch.offsets[i + 1]]
        assert np.ptp(seg) == 0.0


def test_the_pooled_baseline_trains_nothing():
    """Its scores are constant within a set, so the set softmax is uniform,
    the loss is log M and each set's gradient is M*fl(1/M) - 1. At this
    power-of-two set size 1/M is exact, the gradient is exactly zero and Adam
    never moves a weight."""
    ds = gen_outlier_sets(256, seed=5)
    cfg = TrainConfig(task="outlier", pooled_baseline=True, epochs=3)
    model, recs = train(cfg, ds)
    init = build_model(cfg, ds.element_dim, np.random.default_rng(cfg.seed))
    for p, q in zip(model.params(), init.params(), strict=True):
        assert p.data.tobytes() == q.data.tobytes()
    assert len(recs) == 3
    for r in recs:
        assert r.train_loss == pytest.approx(np.log(16), rel=0, abs=1e-12)


def test_the_pooled_baseline_picks_element_0_at_a_size_without_an_exact_reciprocal():
    """At set size 5, fl(1/5) is not exact, so each set's gradient M*fl(1/M) - 1
    is a rounding residue and Adam moves the weights by ~1e-11. The scores stay
    constant within every set all the same: each selection is element 0 and
    each epoch's loss is log 5."""
    ds = gen_outlier_sets(256, set_size=5, seed=5)
    model, recs = train(TrainConfig(task="outlier", pooled_baseline=True, epochs=3), ds)
    assert np.array_equal(selections(model, ds), np.zeros(256, dtype=np.int64))
    assert len(recs) == 3
    for r in recs:
        assert r.train_loss == pytest.approx(np.log(5), rel=0, abs=1e-12)


def test_metrics_csv_format_and_timing():
    recs = [MetricsRecord(1, 0.5, 0.25, 1.234567), MetricsRecord(2, 0.25, 0.125, 2.0)]
    text = metrics_to_csv(recs)
    lines = text.splitlines()
    assert lines[0] == "epoch,train_loss,eval_metric,wall_seconds"
    assert lines[1] == "1,0.5,0.25,0.000"
    assert lines[2] == "2,0.25,0.125,0.000"
    timed = metrics_to_csv(recs, include_timing=True).splitlines()
    assert timed[1].endswith(",1.235")


def test_train_is_deterministic_and_does_not_mutate():
    ds = gen_digit_sum(60, 6, None, seed=4)
    elements_before = ds.batch.elements.copy()
    targets_before = ds.targets.copy()
    cfg = TrainConfig(task="digit-sum", epochs=3, batch_size=16, seed=5)
    m1, r1 = train(cfg, ds)
    m2, r2 = train(cfg, ds)
    assert model_to_json(m1) == model_to_json(m2)
    assert [(r.epoch, r.train_loss, r.eval_metric) for r in r1] == \
           [(r.epoch, r.train_loss, r.eval_metric) for r in r2]
    assert metrics_to_csv(r1) == metrics_to_csv(r2)
    np.testing.assert_array_equal(elements_before, ds.batch.elements)
    np.testing.assert_array_equal(targets_before, ds.targets)
    assert [r.epoch for r in r1] == [1, 2, 3]


def test_every_step_calls_backprop_through_the_module_attribute(monkeypatch):
    """perfbench's tracer counts each step's tape by patching
    ``setnn.autodiff.backprop``; train must look it up there once per batch,
    with that step's tape and the model's parameters."""
    ds = gen_digit_sum(40, 6, None, seed=8)
    original = ad.backprop
    calls = []

    def counting(tape, loss, wrt):
        calls.append((tape, loss.tape is tape, list(wrt), all(p.tape is tape for p in wrt)))
        return original(tape, loss, wrt)

    monkeypatch.setattr(ad, "backprop", counting)
    model, _ = train(TrainConfig(task="digit-sum", epochs=1, batch_size=16, seed=9), ds)
    assert len(calls) == 3  # batches of 16, 16 and 8 sets
    assert len({id(tape) for tape, *_ in calls}) == 3
    params = model.params()
    for tape, loss_on_tape, wrt, params_on_tape in calls:
        assert isinstance(tape, Tape) and loss_on_tape and params_on_tape
        assert len(wrt) == len(params) and all(a is b for a, b in zip(wrt, params))


def test_train_rejects_mismatched_dataset():
    ds = gen_outlier_sets(4, set_size=4, d=2, shift=1.0, seed=0)
    with pytest.raises(ConfigError):
        train(TrainConfig(task="digit-sum", epochs=1), ds)


def test_digit_sum_training_drops_loss_tenfold():
    """1000 sets, 50 epochs: final training MSE under 10% of the first epoch's."""
    ds = gen_digit_sum(1000, 10, None, seed=21)
    cfg = TrainConfig(task="digit-sum", epochs=50, batch_size=64, seed=22)
    _, recs = train(cfg, ds)
    assert recs[-1].train_loss < 0.10 * recs[0].train_loss


def test_outlier_without_signal_trains_to_chance():
    ds = gen_outlier_sets(400, set_size=8, d=4, shift=0.0, seed=23)
    cfg = TrainConfig(task="outlier", epochs=5, batch_size=32, seed=24)
    _, recs = train(cfg, ds)
    assert recs[-1].eval_metric == pytest.approx(1.0 / 8.0, abs=0.05)


class _ConstantZero:
    def forward(self, batch):
        return Tensor(np.zeros((batch.num_sets, 1)))

    def params(self):
        return []


class _ExactDigitSum:
    def __init__(self, scale=1.0):
        self.scale = scale

    def forward(self, batch):
        values = Tensor(self.scale * np.arange(10.0).reshape(10, 1))
        return ad.segment_sum(ad.dense(Tensor(batch.elements), values, Tensor([0.0]), "linear"), batch.offsets)

    def params(self):
        return []


def test_evaluate_constant_zero_population():
    ds = gen_population_task(GaussianTaskSpec(kind="rank1", num_sets=6, seed=2, d=4, set_size_range=(5, 9)))
    rec = evaluate(_ConstantZero(), ds, "population")
    assert rec.eval_metric == pytest.approx(float(np.mean(ds.targets ** 2)), rel=1e-12)


def test_evaluate_perfect_digit_sum_stub():
    ds = gen_digit_sum(40, 8, None, seed=6)
    assert evaluate(_ExactDigitSum(), ds, "digit-sum").eval_metric == 1.0


def test_evaluate_refuses_targets_that_do_not_fit_the_task():
    """Outlier sets relabelled with scalar targets never reach train or
    evaluate: the dataset refuses a target kind its task does not have when
    it is made."""
    out = gen_outlier_sets(4, set_size=5, d=2, seed=3)
    for target_kind in ("scalar", None):
        with pytest.raises(TaskError) as info:
            LabeledSetDataset(out.batch, out.targets.astype(float), {**out.meta, "target_kind": target_kind})
        assert str(info.value) == f"task 'outlier' needs target_kind 'index', got {target_kind!r}"


def test_evaluate_refuses_a_dataset_that_names_another_task():
    """Every (dataset task, asked task) pair that differs is a ConfigError
    naming both tasks, from train as from evaluate, whether the target kinds
    differ (outlier against the rest) or not (population against digit-sum)."""
    rng = np.random.default_rng(3)
    datasets = {
        "population": gen_population_task(GaussianTaskSpec(kind="rotation", num_sets=4, seed=2,
                                                           set_size_range=(5, 9))),
        "digit-sum": gen_digit_sum(4, 5, None, seed=3),
        "outlier": gen_outlier_sets(4, set_size=5, d=2, seed=3),
    }
    pairs = [(named, asked) for named in TASKS for asked in TASKS if named != asked]
    assert len(pairs) == 6
    for named, asked in pairs:
        ds = datasets[named]
        model = build_model(TrainConfig(task=asked), ds.element_dim, rng)
        for run in (lambda: evaluate(model, ds, asked), lambda: train(TrainConfig(task=asked, epochs=1), ds)):
            with pytest.raises(ConfigError) as info:
                run()
            assert str(info.value) == f"task {asked!r} but dataset task {named!r}"


@pytest.mark.parametrize("meta", [{"task": "rotation"}, {"task": None}, {}], ids=["kind-name", "null", "missing"])
def test_a_dataset_that_does_not_name_the_task_is_refused(meta):
    """A dataset must name its own task: a population kind is not
    ``population``, and a dataset with no task is refused when it is made.
    train and evaluate then refuse to run it as any task it does not name."""
    pop = gen_population_task(GaussianTaskSpec(kind="rotation", num_sets=6, seed=2, set_size_range=(5, 9)))
    meta = {**{k: v for k, v in pop.meta.items() if k != "task"}, **meta}
    message = f"task must be one of ('population', 'digit-sum', 'outlier'), got {meta.get('task')!r}"
    with pytest.raises(TaskError) as info:
        LabeledSetDataset(pop.batch, pop.targets, meta)
    assert str(info.value) == message
    model = build_model(TrainConfig(task="population"), 2, np.random.default_rng(5))
    with pytest.raises(ConfigError, match="task 'rotation' but dataset task 'population'"):
        evaluate(model, pop, "rotation")


@pytest.mark.parametrize("task", [["digit-sum"], {"task": "outlier"}, None, 3])
def test_a_task_that_is_not_a_string_is_refused_by_name(task):
    """A task read from JSON may be any value; each is refused with a message
    that names it, not a TypeError from a dict lookup."""
    with pytest.raises(ConfigError, match="task must be one of"):
        TrainConfig(task=task)
    dig = gen_digit_sum(4, 5, None, seed=3)
    model = build_model(TrainConfig(task="digit-sum"), 10, np.random.default_rng(6))
    with pytest.raises(ConfigError) as info:
        evaluate(model, dig, task)
    assert str(info.value) == f"task {task!r} but dataset task 'digit-sum'"


def test_each_task_metric_is_its_direct_formula():
    """evaluate gives, for every TASKS entry, the metric written out in numpy
    over the model's own outputs."""
    rng = np.random.default_rng(7)
    datasets = {
        "population": gen_population_task(GaussianTaskSpec(kind="rotation", num_sets=20, seed=8,
                                                           set_size_range=(5, 30))),
        "digit-sum": gen_digit_sum(40, 6, None, seed=9),
        "outlier": gen_outlier_sets(40, set_size=6, d=3, shift=3.0, seed=10),
    }
    assert list(datasets) == list(TASKS)
    for task, ds in datasets.items():
        model = build_model(TrainConfig(task=task), ds.element_dim, rng)
        if task == "digit-sum":  # 1.05 times the sum: right for sums below 10 only
            model = _ExactDigitSum(scale=1.05)
        got = evaluate(model, ds, task).eval_metric
        if task == "outlier":
            scores = model.forward(ds.to_set_batch()).data[:, 0]
            picks = np.array([np.argmax(scores[a:b]) for a, b in zip(ds.batch.offsets[:-1], ds.batch.offsets[1:])])
            want = np.mean(picks == ds.targets)
        else:
            preds = model.forward(ds.to_set_batch()).data[:, 0]
            want = np.mean((preds - ds.targets) ** 2) if task == "population" else np.mean(np.round(preds) == ds.targets)
        assert got == want, task
        assert 0 < want < 1 or task == "population", task


def _permuted_copy(ds, seed=0):
    batch, rows = ds.to_set_batch().permuted(np.random.default_rng(seed))
    targets = ds.targets.copy()
    if ds.meta.get("target_kind") == "index":  # where each target's row went
        for i, (a, b) in enumerate(zip(batch.offsets[:-1], batch.offsets[1:])):
            targets[i] = int(np.flatnonzero(rows[a:b] == a + ds.targets[i])[0])
    return LabeledSetDataset(batch, targets, dict(ds.meta), ds.per_set_meta)


def test_evaluation_is_permutation_stable():
    rng = np.random.default_rng(9)
    pop = gen_population_task(GaussianTaskSpec(kind="rotation", num_sets=20, seed=31, set_size_range=(20, 40)))
    model = build_model(TrainConfig(task="population"), pop.element_dim, rng)
    a = evaluate(model, pop, "population").eval_metric
    b = evaluate(model, _permuted_copy(pop), "population").eval_metric
    assert abs(a - b) <= 1e-6

    dig = gen_digit_sum(30, 8, None, seed=32)
    dmodel = build_model(TrainConfig(task="digit-sum"), 10, rng)
    a = evaluate(dmodel, dig, "digit-sum").eval_metric
    b = evaluate(dmodel, _permuted_copy(dig), "digit-sum").eval_metric
    assert abs(a - b) <= 1e-6

    out = gen_outlier_sets(40, set_size=6, d=3, shift=3.0, seed=33)
    omodel = build_model(TrainConfig(task="outlier"), 3, rng)
    a = evaluate(omodel, out, "outlier").eval_metric
    b = evaluate(omodel, _permuted_copy(out), "outlier").eval_metric
    assert a == b


def test_divergence_reports_location_and_norms():
    ds = gen_digit_sum(64, 6, None, seed=41)
    cfg = TrainConfig(task="digit-sum", epochs=1, batch_size=16, seed=42, step_size=1e90)
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as info:
        train(cfg, ds)
    err = info.value
    assert err.epoch == 1 and err.batch_index >= 1
    assert len(err.param_norms) > 0 and all(np.isfinite(err.param_norms))
    assert "epoch 1" in str(err)


def test_a_non_finite_weight_after_an_epoch_is_divergence(monkeypatch):
    """An epoch's last step can leave a weight that no later step reads: here
    one Adam step sets it to inf. train raises TrainingDiverged naming that
    step instead of returning the model."""
    ds = gen_digit_sum(48, 6, None, seed=43)
    step = Adam.step

    def overflowing(self, grads):
        step(self, grads)
        self.params[0].data[0, 0] = np.inf
    monkeypatch.setattr(Adam, "step", overflowing)
    with pytest.raises(TrainingDiverged) as info:
        train(TrainConfig(task="digit-sum", epochs=3, batch_size=64, seed=44), ds)
    err = info.value
    assert (err.epoch, err.batch_index) == (1, 0)
    assert err.param_norms[0] == np.inf and all(np.isfinite(err.param_norms[1:]))


@pytest.mark.parametrize("config, make", [
    (TrainConfig(task="population", pool="mean", batch_size=16, epochs=3, seed=5),
     lambda: gen_population_task(GaussianTaskSpec(kind="rotation", num_sets=40, seed=6, set_size_range=(20, 60)))),
    (TrainConfig(task="outlier", batch_size=32, epochs=3, seed=7),
     lambda: gen_outlier_sets(80, set_size=8, d=3, shift=3.0, seed=8)),
], ids=["population", "outlier"])
def test_the_epoch_metric_is_the_task_metric_of_its_steps_outputs(monkeypatch, config, make):
    """Each record's eval_metric is TASKS[task].metric of the outputs its
    epoch's steps made, read as evaluate reads them, against the targets in
    the epoch's order, bit for bit."""
    ds = make()
    spec = TASKS[config.task]
    outputs = []
    model_type = EquivariantStack if spec.selects else InvariantModel
    forward = model_type.forward

    def recording(model, batch):
        out = forward(model, batch)
        outputs.append(tr._metric_input(spec.selects, out.data, batch.segments))
        return out
    monkeypatch.setattr(model_type, "forward", recording)
    _, records = train(config, ds)
    steps = -(-len(ds) // config.batch_size)
    assert steps > 1 and len(records) == config.epochs and len(outputs) == steps * config.epochs
    # the epoch orders, drawn as test_training_visits_sets_in_the_documented_order pins
    rng = np.random.default_rng(config.seed)
    build_model(config, ds.element_dim, rng)
    for epoch, record in enumerate(records):
        order = rng.permutation(len(ds))
        picks = np.concatenate(outputs[epoch * steps:(epoch + 1) * steps])
        assert record.eval_metric.hex() == spec.metric(picks, ds.targets[order]).hex()


def test_train_never_calls_evaluate(monkeypatch):
    def refusing(*args, **kwargs):
        raise AssertionError("train called evaluate")
    monkeypatch.setattr(tr, "evaluate", refusing)
    for config, ds in ((TrainConfig(task="digit-sum", epochs=2), gen_digit_sum(40, 6, None, seed=9)),
                       (TrainConfig(task="outlier", epochs=2), gen_outlier_sets(40, seed=10))):
        _, records = train(config, ds)
        assert len(records) == 2


def test_evaluate_chunking_matches_single_batch():
    """Evaluation slices the dataset; every prediction and pick must have the
    bits of one forward pass over the whole dataset, whatever the set count
    (each residue mod 16) and however the sets straddle the row budget."""
    from setnn.train import _eval_slices

    def check(model, ds):
        assert len(list(_eval_slices(ds.batch.offsets))) > 1
        whole = model.forward(ds.to_set_batch()).data.reshape(-1)
        assert np.array_equal(tr._column(model, ds, False)[:, 0], whole)

    pop = gen_population_task(GaussianTaskSpec(kind="rotation", num_sets=47, seed=51, set_size_range=(20, 500)))
    for pool in ("sum", "mean", "max"):
        model = build_model(TrainConfig(task="population", pool=pool), pop.element_dim, np.random.default_rng(1))
        for n in range(32, 48):
            check(model, pop.subset(np.arange(n)))
    dig = gen_digit_sum(815, 10, None, seed=52)
    model = build_model(TrainConfig(task="digit-sum"), 10, np.random.default_rng(2))
    for n in range(800, 816):
        check(model, dig.subset(np.arange(n)))

    out = gen_outlier_sets(600, set_size=7, d=3, shift=3.0, seed=53)
    model = build_model(TrainConfig(task="outlier"), 3, np.random.default_rng(3))
    assert len(list(_eval_slices(out.batch.offsets))) > 1
    scores = tr._output(True, model, out.to_set_batch()).data.reshape(-1)
    off = out.batch.offsets
    whole = [np.argmax(scores[a:b]) for a, b in zip(off[:-1], off[1:])]
    assert np.array_equal(selections(model, out), whole)


@pytest.mark.parametrize("pooled_baseline", [False, True], ids=["equivariant", "pooled-baseline"])
def test_the_layout_is_validated_once_per_batch(monkeypatch, pooled_baseline):
    """A batch's offsets are validated once, where its SetBatch is made: one
    Segments per gathered training batch and per slice of the one explicit
    evaluation (train evaluates nothing), and none in the primitives that
    read it."""
    from setnn.train import _eval_slices

    ds = gen_outlier_sets(300, set_size=16, d=2, shift=3.0, seed=7)
    config = TrainConfig(task="outlier", pooled_baseline=pooled_baseline, batch_size=64, epochs=2, seed=3)
    built = []
    init = ad.Segments.__init__

    def counting(self, offsets):
        built.append(len(offsets))
        init(self, offsets)
    monkeypatch.setattr(ad.Segments, "__init__", counting)
    model, _ = train(config, ds)
    evaluate(model, ds, "outlier")
    # one per batch, told apart by its offsets' length: sets + 1
    batches = [min(config.batch_size, len(ds) - lo) + 1 for lo in range(0, len(ds), config.batch_size)]
    slices = [hi - lo + 1 for lo, hi in _eval_slices(ds.batch.offsets)]
    assert len(slices) > 1
    assert sorted(built) == sorted(config.epochs * batches + slices)


def test_every_primitive_is_recorded_by_some_model():
    """The invariant models with each pool, the pooled baseline and stacks of
    each equivariant variant, through both losses, record every primitive:
    none is kept that no model uses."""
    rng = np.random.default_rng(0)
    batch = SetBatch.from_sets([rng.normal(size=(m, 3)) for m in (2, 4)])
    outlier = TrainConfig(task="outlier")
    runs = [(TrainConfig(task="population", pool=pool), np.zeros(2)) for pool in ("sum", "mean", "max")]
    runs += [(outlier, np.array([1, 3])), (TrainConfig(task="outlier", pooled_baseline=True), np.array([0, 2]))]
    models = [build_model(config, 3, rng) for config, _ in runs]
    head = EquivariantLayer("maxpool-normalized", DenseLayer(rng.normal(size=(3, 1)), np.zeros(1), "tanh"))
    for pool in ("sum", "mean", "max"):
        # one (6, 1) draw is the (3, 1) Lambda draw followed by the Gamma draw
        full = EquivariantLayer("full-lambda-gamma", DenseLayer(rng.normal(size=(6, 1)), np.zeros(1), "tanh"), pool)
        scalar = EquivariantLayer.scalar(0.5, -0.25, 3, pool=pool)
        for layers in ([full], [scalar, head]):
            runs.append((outlier, np.array([0, 1])))
            models.append(EquivariantStack(layers))
    kinds = set()
    for (config, targets), model in zip(runs, models):
        with Tape() as tape:
            tr._batch_loss(config, model, batch, targets)
        kinds |= {node.kind for node in tape.nodes if node.kind != "leaf"}
    assert kinds == set(ad.PRIMITIVE_KINDS)
