import dataclasses
import json

import numpy as np
import pytest

from setnn import autodiff as ad
from setnn import train as tr
from setnn.autodiff import Tape, Tensor
from setnn.layers import EquivariantLayer, EquivariantStack, InvariantModel, SetBatch, model_to_json
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
    assert reg.out_width == 1
    assert reg.phi[0].in_width == 2

    sel = build_model(TrainConfig(task="outlier"), 8, rng)
    assert isinstance(sel, EquivariantStack)
    assert len(sel.layers) == 3
    assert [l.nonlinearity for l in sel.layers] == ["tanh", "tanh", "linear"]

    base = build_model(TrainConfig(task="outlier", pooled_baseline=True), 8, rng)
    assert isinstance(base, InvariantModel) and not base.phi
    count = lambda m: sum(p.data.size for p in m.params())
    assert count(base) == count(sel)


def test_pooled_baseline_scores_are_constant_within_a_set():
    from setnn.train import _element_scores

    rng = np.random.default_rng(3)
    base = build_model(TrainConfig(task="outlier", pooled_baseline=True), 4, rng)
    ds = gen_outlier_sets(6, set_size=5, d=4, shift=3.0, seed=1)
    batch = ds.to_set_batch()
    scores = _element_scores(base, batch).data.reshape(-1)
    for i in range(batch.num_sets):
        seg = scores[batch.offsets[i]:batch.offsets[i + 1]]
        assert np.ptp(seg) == 0.0


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
            scores = model.forward_batch(ds.to_set_batch()).data[:, 0]
            picks = np.array([np.argmax(scores[a:b]) for a, b in zip(ds.batch.offsets[:-1], ds.batch.offsets[1:])])
            want = np.mean(picks == ds.targets)
        else:
            preds = model.forward(ds.to_set_batch()).data[:, 0]
            want = np.mean((preds - ds.targets) ** 2) if task == "population" else np.mean(np.round(preds) == ds.targets)
        assert got == want, task
        assert 0 < want < 1 or task == "population", task


def _permuted_copy(ds, seed=0):
    batch, perms = ds.to_set_batch().permuted(np.random.default_rng(seed))
    targets = ds.targets.copy()
    for i, perm in enumerate(perms):
        if ds.meta.get("target_kind") == "index":
            targets[i] = int(np.where(perm == ds.targets[i])[0][0])
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


def test_evaluate_chunking_matches_single_batch():
    """Evaluation slices the dataset; every prediction and pick must have the
    bits of one forward pass over the whole dataset, whatever the set count
    (each residue mod 16) and however the sets straddle the row budget."""
    from setnn.train import _element_scores, _eval_slices, _predictions, _selections

    def check(model, ds):
        assert len(list(_eval_slices(ds.batch.offsets))) > 1
        whole = model.forward(ds.to_set_batch()).data.reshape(-1)
        assert np.array_equal(_predictions(model, ds), whole)

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
    scores = _element_scores(model, out.to_set_batch()).data.reshape(-1)
    off = out.batch.offsets
    whole = [np.argmax(scores[a:b]) for a, b in zip(off[:-1], off[1:])]
    assert np.array_equal(_selections(model, out), whole)


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
    head = EquivariantLayer("maxpool-normalized", Lambda=rng.normal(size=(3, 1)))
    for pool in ("sum", "mean", "max"):
        full = EquivariantLayer("full-lambda-gamma", Lambda=rng.normal(size=(3, 1)), Gamma=rng.normal(size=(3, 1)),
                                pool=pool)
        scalar = EquivariantLayer("scalar-lambda-gamma", lam=0.5, gam=-0.25, pool=pool)
        for layers in ([full], [scalar, head]):
            runs.append((outlier, np.array([0, 1])))
            models.append(EquivariantStack(layers))
    kinds = set()
    for (config, targets), model in zip(runs, models):
        with Tape() as tape:
            tr._batch_loss(config, model, batch, targets)
        kinds |= {node.kind for node in tape.nodes if node.kind != "leaf"}
    assert kinds == set(ad.PRIMITIVE_KINDS)
