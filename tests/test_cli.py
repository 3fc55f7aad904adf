"""End-to-end tests for the command-line surface."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnn import cli
from setnn.cli import _build_parser, cli_dispatch
from setnn.layers import (
    EquivariantLayer,
    EquivariantStack,
    InvariantModel,
    dense_stack,
    glorot_uniform,
    model_to_json,
)
from setnn.tasks import load_jsonl

# one JSON line too deeply nested for the standard library's parser
_NESTED_TOO_DEEP = "[" * 100000 + "]" * 100000


def test_no_arguments_is_a_usage_error(capsys):
    assert cli_dispatch([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert cli_dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_is_a_usage_error(capsys):
    assert cli_dispatch(["check", "--frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_gen_requires_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "4"]) == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --out\n")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--n", "4", "--out", "d.jsonl"], "--task"),
    (["gen", "--task", "outlier", "--out", "d.jsonl"], "--n"),
    (["train", "--out", "m.json"], "--data"),
    (["train", "--data", "d.jsonl"], "--out"),
    (["eval", "--data", "d.jsonl", "--out", "e.csv"], "--model"),
    (["eval", "--model", "m.json", "--out", "e.csv"], "--data"),
    (["expand", "--out", "r.csv"], "--data"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_a_missing_required_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    """The parser refuses it before any file is read or written (gen's --out:
    test_gen_requires_out)."""
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err.endswith(f"error: the following arguments are required: {flag}\n")
    assert not os.listdir(tmp_path)


def test_gen_rejects_unknown_config_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"volume": 11}))
    code = cli_dispatch(["gen", "--task", "digit-sum", "--n", "4",
                         "--out", str(tmp_path / "d.jsonl"), "--config", str(cfg)])
    assert code == 2
    assert "volume" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["rotation", "correlation", "rank1", "random", "digit-sum", "outlier"])
def test_gen_rejects_unknown_or_flag_set_config_fields_on_every_task(tmp_path, capsys, task):
    """The config is the generator's keyword arguments: a field it does not
    take, or one the flags already set, exits 2 naming the field."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "d.jsonl"
    for name in ("volume", "seed", "num_sets", "kind"):
        cfg.write_text(json.dumps({name: 3}))
        assert cli_dispatch(["gen", "--task", task, "--n", "4", "--out", str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"argument '{name}'" in err and err.count("\n") == 1
    assert not out.exists()


def test_gen_writes_a_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    code = cli_dispatch(["gen", "--task", "digit-sum", "--n", "6",
                         "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "wrote 6 sets" in capsys.readouterr().out
    ds = load_jsonl(str(out))
    assert len(ds) == 6
    assert ds.meta["task"] == "digit-sum"
    assert ds.meta["seed"] == 3


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert cli_dispatch(["gen", "--task", "outlier", "--n", "5",
                             "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_digit_sum_golden_sha256(tmp_path, capsys):
    """digit-sum generation uses integer draws and np.eye only, so its bytes
    are pinned everywhere."""
    out = tmp_path / "d.jsonl"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "8", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9bf4d925ec2e36ccc64eebf35cfba088e4bdd813a28a3d15acc9ec1f2f85ef0a"


def test_gen_population_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 4, "set_size_range": [10, 20]}))
    out = tmp_path / "r.jsonl"
    code = cli_dispatch(["gen", "--task", "random", "--n", "3",
                         "--out", str(out), "--config", str(cfg)])
    assert code == 0
    capsys.readouterr()
    ds = load_jsonl(str(out))
    assert ds.element_dim == 4
    assert all(10 <= m <= 20 for m in ds.batch.sizes())


@pytest.mark.parametrize("task, setting, message", [
    ("rotation", {"set_size_range": [5, 8, 9]}, "set_size_range must be two integers"),
    ("rotation", {"set_size_range": 5}, "set_size_range must be two integers"),
    ("rotation", {"set_size_range": [5.5, 8]}, "set_size_range entry must be an integer >= 1, got 5.5"),
    ("rotation", {"set_size_range": [True, 8]}, "set_size_range entry must be an integer >= 1, got True"),
    ("random", {"d": 4.0}, "d must be an integer >= 1, got 4.0"),
    ("digit-sum", {"max_set_size": 2.5}, "max_set_size must be an integer >= 1, got 2.5"),
    ("digit-sum", {"set_size_at_test": 3.5}, "set_size_at_test must be an integer >= 0, got 3.5"),
    ("outlier", {"set_size": 4.0}, "set_size must be an integer >= 2, got 4.0"),
    ("outlier", {"d": False}, "d must be an integer >= 1, got False"),
    ("rotation", ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ("digit-sum", ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ("outlier", ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
])
def test_gen_rejects_settings_that_are_not_integers(tmp_path, capsys, task, setting, message):
    """A dict setting is the config file, a list is extra flags."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "d.jsonl"
    cfg.write_text(json.dumps(setting if isinstance(setting, dict) else {}))
    flags = setting if isinstance(setting, list) else []
    assert cli_dispatch(["gen", "--task", task, "--n", "4", "--config", str(cfg), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("task, setting, message", [
    ("correlation", {"alpha_fixed": "x"}, "alpha_fixed must be a finite number, got 'x'"),
    ("correlation", {"alpha_fixed": True}, "alpha_fixed must be a finite number, got True"),
    ("correlation", {"alpha_fixed": float("nan")}, "alpha_fixed must be a finite number, got nan"),
    ("outlier", {"shift": True}, "shift must be a finite number, got True"),
    ("outlier", {"shift": "4"}, "shift must be a finite number, got '4'"),
    ("outlier", {"shift": float("inf")}, "shift must be a finite number, got inf"),
    ("outlier", {"shift": 10 ** 400}, "shift must be a finite number, got 1000"),
    ("outlier", {"shift": -1}, "shift must be non-negative"),
])
def test_gen_rejects_float_settings_that_are_not_finite_numbers(tmp_path, capsys, task, setting, message):
    test_gen_rejects_settings_that_are_not_integers(tmp_path, capsys, task, setting, message)


@pytest.mark.parametrize("task, setting", [("correlation", {"alpha_fixed": 0}), ("outlier", {"shift": 4})])
def test_gen_takes_an_integer_for_a_float_setting(tmp_path, task, setting):
    cfg, out = tmp_path / "cfg.json", tmp_path / "d.jsonl"
    cfg.write_text(json.dumps(setting))
    argv = ["gen", "--task", task, "--n", "2", "--config", str(cfg), "--out", str(out)]
    assert cli_dispatch(argv) == 0
    assert json.loads(out.read_text().splitlines()[0])["meta"].items() >= setting.items()


@pytest.mark.parametrize("task", [None, "sorting", "rotation"], ids=["missing", "unknown", "kind-name"])
def test_a_dataset_that_names_no_task_is_refused_at_load(tmp_path, capsys, task):
    """gen writes "task": "population" for every population kind; a file
    whose lines name no task, another name or a kind name is refused when it
    loads, by train and eval alike."""
    data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "rotation", "--n", "16", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
    lines = [json.loads(line) for line in data.read_text().splitlines()]
    for line in lines:
        del line["meta"]["task"]
        if task is not None:
            line["meta"]["task"] = task
    data.write_text("".join(json.dumps(line) + "\n" for line in lines))
    capsys.readouterr()
    message = f"task must be one of ('population', 'digit-sum', 'outlier'), got {task!r}"
    for argv in (["train", "--data", str(data), "--out", str(tmp_path / "m2.json"), "--epochs", "1"],
                 ["eval", "--model", str(model), "--data", str(data)]):
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"{data} line 1: {message}" in captured.err
    assert not (tmp_path / "m2.json").exists()


@pytest.mark.parametrize("task, kind", [("outlier", "scalar"), ("outlier", "bogus"), ("outlier", None),
                                        ("digit-sum", "index"), ("digit-sum", "bogus")])
def test_a_target_kind_that_does_not_fit_the_task_is_refused_at_load(tmp_path, capsys, task, kind):
    """Line 1's target_kind must be the one its task implies ("index" for
    outlier, "scalar" otherwise); train and eval both refuse the file there."""
    data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", task, "--n", "8", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
    lines = [json.loads(line) for line in data.read_text().splitlines()]
    for line in lines:
        del line["meta"]["target_kind"]
        if kind is not None:
            line["meta"]["target_kind"] = kind
    data.write_text("".join(json.dumps(line) + "\n" for line in lines))
    capsys.readouterr()
    want = "index" if task == "outlier" else "scalar"
    for argv in (["train", "--data", str(data), "--out", str(tmp_path / "m2.json"), "--epochs", "1"],
                 ["eval", "--model", str(model), "--data", str(data)]):
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"{data} line 1: task {task!r} needs target_kind {want!r}, got {kind!r}" in captured.err
    assert not (tmp_path / "m2.json").exists()


@pytest.mark.parametrize("where", ["config", "dataset"])
def test_a_task_that_is_not_a_string_is_a_usage_error(tmp_path, capsys, where):
    """A list-valued task exits 2 with the task message: in a train config
    when train checks it, in the dataset's metadata when train or eval loads
    the file, which names line 1."""
    data, model, cfg = tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "c.json"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "8", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
    cfg.write_text(json.dumps({"task": ["digit-sum"]} if where == "config" else {}))
    if where == "dataset":
        lines = [json.loads(line) for line in data.read_text().splitlines()]
        for line in lines:
            line["meta"]["task"] = ["digit-sum"]
        data.write_text("".join(json.dumps(line) + "\n" for line in lines))
    capsys.readouterr()
    runs = [["train", "--data", str(data), "--out", str(tmp_path / "m2.json"), "--config", str(cfg)]]
    if where == "dataset":
        runs.append(["eval", "--model", str(model), "--data", str(data)])
    message = "task must be one of ('population', 'digit-sum', 'outlier'), got ['digit-sum']"
    for argv in runs:
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        if where == "config":
            assert err.startswith(f"error: {message}"), err
        else:
            assert err.startswith("error: cannot load") and f"{data} line 1: {message}" in err, err
        assert err.count("\n") == 1


def test_train_eval_roundtrip(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "64",
                         "--seed", "5", "--out", str(data)]) == 0
    model = tmp_path / "model.json"
    code = cli_dispatch(["train", "--data", str(data), "--out", str(model),
                         "--epochs", "2", "--batch", "16", "--seed", "1"])
    assert code == 0
    capsys.readouterr()
    metrics = tmp_path / "model.metrics.csv"
    assert model.exists() and metrics.exists()
    lines = metrics.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,eval_metric,wall_seconds"
    assert len(lines) == 3
    assert all(line.endswith(",0.000") for line in lines[1:])

    code = cli_dispatch(["eval", "--model", str(model), "--data", str(data)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("epoch,train_loss,eval_metric,wall_seconds\n")


def test_train_outputs_are_byte_deterministic(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "32",
                         "--seed", "5", "--out", str(data)]) == 0
    blobs = []
    for tag in ("a", "b"):
        model = tmp_path / f"{tag}.json"
        assert cli_dispatch(["train", "--data", str(data), "--out", str(model),
                             "--epochs", "2", "--batch", "8", "--seed", "4"]) == 0
        blobs.append((model.read_bytes(), (tmp_path / f"{tag}.metrics.csv").read_bytes()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_train_timing_flag_records_wall_seconds(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "32",
                         "--seed", "5", "--out", str(data)]) == 0
    model = tmp_path / "m.json"
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model),
                         "--epochs", "1", "--batch", "8", "--timing"]) == 0
    capsys.readouterr()
    row = (tmp_path / "m.metrics.csv").read_text().strip().split("\n")[1]
    assert float(row.split(",")[-1]) > 0.0


def test_train_config_seed_equals_the_seed_flag(tmp_path, capsys):
    data, cfg = tmp_path / "train.jsonl", tmp_path / "cfg.json"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "16", "--seed", "5", "--out", str(data)]) == 0
    cfg.write_text(json.dumps({"seed": 7, "epochs": 1}))
    runs = {"config": ["--config", str(cfg)], "flag": ["--seed", "7", "--epochs", "1"],
            "default": ["--epochs", "1"]}
    models = {}
    for tag, flags in runs.items():
        out = tmp_path / f"{tag}.json"
        assert cli_dispatch(["train", "--data", str(data), "--out", str(out), *flags]) == 0
        models[tag] = out.read_bytes()
    capsys.readouterr()
    assert models["config"] == models["flag"]
    assert models["config"] != models["default"]


def test_train_rejects_bad_config(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    assert cli_dispatch(["gen", "--task", "outlier", "--n", "8",
                         "--seed", "5", "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    for text, message in ((json.dumps({"loss": "margin"}), "unexpected keyword argument 'loss'"),
                          (json.dumps({"loss": "margin", "momentum": 0.9}), "unexpected keyword argument 'loss'"),
                          (_NESTED_TOO_DEEP, "cannot read train config"),
                          (json.dumps({"batch_size": 2.5}), "error: batch_size must be an integer"),
                          (json.dumps({"seed": 1.5}), "error: seed must be an integer"),
                          (json.dumps({"pooled_baseline": "false"}), "error: pooled_baseline must be true or false")):
        cfg.write_text(text)
        code = cli_dispatch(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                             "--config", str(cfg), "--epochs", "1"])
        assert code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


_SCALAR_META = {"task": "digit-sum", "target_kind": "scalar"}
_INDEX_META = {"task": "outlier", "target_kind": "index"}


@pytest.mark.parametrize("meta, second", [
    (_SCALAR_META, {"elements": [[1.0, 0.0, 1.0]], "target": 1.0}),
    (_SCALAR_META, {"elements": [], "target": 0.0}),
    (_SCALAR_META, {"elements": [[1.0, float("nan")]], "target": 1.0}),
    (_INDEX_META, {"elements": [[1.0, 0.0], [0.0, 1.0]], "target": 2}),
    (_SCALAR_META, _NESTED_TOO_DEEP),
], ids=["ragged-width", "empty-set", "nan-element", "index-out-of-range", "nested-too-deep"])
def test_train_rejects_bad_data_at_the_boundary(tmp_path, capsys, meta, second):
    data = tmp_path / "bad.jsonl"
    first = {"elements": [[0.0, 1.0], [1.0, 0.0]], "target": 1, "meta": meta}
    line = second if isinstance(second, str) else json.dumps({**second, "meta": meta})
    data.write_text(json.dumps(first) + "\n" + line + "\n")
    code = cli_dispatch(["train", "--data", str(data), "--out", str(tmp_path / "m.json"), "--epochs", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load dataset") and "line 2" in err
    assert not (tmp_path / "m.json").exists()


def test_train_and_eval_reject_a_line_that_changes_the_task(tmp_path, capsys):
    data, model = tmp_path / "mixed.jsonl", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "outlier", "--n", "4", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
    lines = data.read_text().splitlines()
    second = json.loads(lines[1])
    second["meta"].update(task="population", target_kind="scalar")
    second["target"] = 1.0
    lines[1] = json.dumps(second)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_dispatch(["train", "--data", str(data), "--out", str(tmp_path / "m2.json"), "--epochs", "1"]) == 2
    assert "line 2: dataset fields ['target_kind', 'task'] differ from line 1" in capsys.readouterr().err
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(data)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_train_and_eval_refuse_a_corrupt_gzip_dataset(tmp_path, capsys):
    data, bad, model = tmp_path / "d.jsonl.gz", tmp_path / "bad.jsonl.gz", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "outlier", "--n", "64", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
    flipped = bytearray(data.read_bytes())
    flipped[30:60] = bytes(b ^ 0xFF for b in flipped[30:60])
    bad.write_bytes(bytes(flipped))
    capsys.readouterr()
    for argv in (["train", "--data", str(bad), "--out", str(tmp_path / "m2.json"), "--epochs", "1"],
                 ["eval", "--model", str(model), "--data", str(bad)]):
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot load") and str(bad) in captured.err


@pytest.mark.parametrize("text", ["[]", '{"type": "invariant", "pool": "sum", "phi": 5, "rho": []}',
                                  '{"type": "equivariant_stack", "layers": [5]}', _NESTED_TOO_DEEP],
                         ids=["list", "phi-number", "layer-number", "nested-too-deep"])
def test_eval_rejects_a_malformed_model(tmp_path, capsys, text):
    data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "4", "--out", str(data)]) == 0
    model.write_text(text)
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load inputs")


def test_eval_rejects_a_stack_whose_widths_do_not_chain(tmp_path, capsys):
    """The stack is refused when it loads; the data are not blamed."""
    data, model = tmp_path / "o.jsonl", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "outlier", "--n", "4", "--out", str(data)]) == 0
    layer = {"variant": "maxpool-normalized", "pool": "max", "nonlinearity": "tanh"}
    model.write_text(json.dumps({"type": "equivariant_stack", "layers": [
        {**layer, "Lambda": np.zeros((8, 4)).tolist(), "beta": [0.0] * 4},
        {**layer, "Lambda": np.zeros((3, 1)).tolist(), "beta": [0.0]},
    ]}))
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load inputs") and "widths disagree: 4 -> 3" in err


@pytest.mark.parametrize("task, config, message", [
    ("outlier", {"d": 10}, "element width 10"),
    ("digit-sum", {}, "needs one prediction per set"),
], ids=["width", "model-kind"])
def test_eval_rejects_a_model_that_does_not_fit_the_data(tmp_path, capsys, task, config, message):
    outlier, other, model, cfg = (tmp_path / name for name in ("o.jsonl", "d.jsonl", "m.json", "g.json"))
    cfg.write_text(json.dumps(config))
    assert cli_dispatch(["gen", "--task", "outlier", "--n", "8", "--out", str(outlier)]) == 0
    assert cli_dispatch(["gen", "--task", task, "--n", "8", "--config", str(cfg), "--out", str(other)]) == 0
    assert cli_dispatch(["train", "--data", str(outlier), "--out", str(model), "--epochs", "1"]) == 0
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(other)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("gen_task, named, flag, config", [
    ("rotation", "population", "outlier", {}),
    ("rotation", "population", "digit-sum", {}),
    ("outlier", "outlier", "population", {"pooled_baseline": True}),
])
def test_eval_refuses_a_task_the_dataset_does_not_name(tmp_path, capsys, gen_task, named, flag, config):
    """eval reads the task from the dataset alone, so it has no ``--task``
    flag; train refuses a config that names another task."""
    data, model, cfg = tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli_dispatch(["gen", "--task", gen_task, "--n", "32", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1",
                         "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(data), "--task", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --task" in captured.err
    cfg.write_text(json.dumps({"task": flag}))
    assert cli_dispatch(["train", "--data", str(data), "--out", str(tmp_path / "m2.json"), "--epochs", "1",
                         "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: task {flag!r} but dataset task {named!r}\n"
    assert captured.out == "" and not (tmp_path / "m2.json").exists()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(data)]) == 0
    assert capsys.readouterr().out.startswith("epoch,train_loss,eval_metric,wall_seconds\n")


@pytest.mark.parametrize("kind, task", [("invariant", "rotation"), ("invariant", "outlier"),
                                        ("equivariant", "outlier")])
def test_eval_rejects_a_model_with_more_than_one_output(tmp_path, capsys, kind, task):
    """Evaluation reads one prediction per set or one score per element; a
    width-3 output must not be read as interleaved columns."""
    rng = np.random.default_rng(0)
    if kind == "invariant":
        model = InvariantModel(dense_stack(rng, [2, 4], "relu"), "max", dense_stack(rng, [4, 3], "linear"))
    else:
        model = EquivariantStack([EquivariantLayer("maxpool-normalized", Lambda=glorot_uniform(rng, 2, 3),
                                                   beta=np.zeros(3), nonlinearity="linear")])
    data, path, cfg = tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "g.json"
    cfg.write_text(json.dumps({"d": 2}))
    assert cli_dispatch(["gen", "--task", task, "--n", "8", "--config", str(cfg), "--out", str(data)]) == 0
    path.write_text(model_to_json(model))
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert "does not fit" in err and "3 outputs per row" in err


def test_eval_rejects_a_model_that_overflows_on_the_data(tmp_path, capsys):
    data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "4", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
    doc = json.loads(model.read_text())
    for layer in doc["phi"]:
        layer["W"] = np.full(np.shape(layer["W"]), 1e308).tolist()
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model") and "non-finite" in err


def test_eval_rejects_a_model_whose_metric_overflows(tmp_path, capsys):
    """Every activation stays finite, but the squared error of 1e160-sized
    predictions does not."""
    data, cfg, model = tmp_path / "d.jsonl", tmp_path / "cfg.json", tmp_path / "m.json"
    cfg.write_text(json.dumps({"set_size_range": [5, 8]}))
    assert cli_dispatch(["gen", "--task", "rotation", "--n", "4", "--config", str(cfg), "--out", str(data)]) == 0
    phi = dense_stack(np.random.default_rng(0), [2, 1], "linear")
    phi[0].W.data[:] = 1e160
    rho = dense_stack(np.random.default_rng(0), [1, 1], "linear")
    rho[0].W.data[:] = 1.0
    model.write_text(model_to_json(InvariantModel(phi, "mean", rho)))
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: model {model} overflows on dataset {data}: the population metric is not finite")
    assert err.count("\n") == 1 and "epoch" not in err and "batch" not in err


def test_train_reports_an_overflow_in_the_epoch_evaluation_as_divergence(tmp_path, capsys):
    """The one step of epoch 1 leaves weights that overflow when that epoch is
    evaluated: train exits 1 naming the epoch, with finite parameter norms and
    no numpy warning, and writes nothing."""
    data, cfg, model = tmp_path / "d.jsonl", tmp_path / "cfg.json", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "32", "--seed", "1", "--out", str(data)]) == 0
    cfg.write_text(json.dumps({"step_size": 1e300, "batch_size": 64}))
    capsys.readouterr()
    code = cli_dispatch(["train", "--data", str(data), "--out", str(model), "--config", str(cfg), "--epochs", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("training diverged: non-finite values at epoch 1, batch 0;")
    norms = captured.err.split("parameter norms: [")[1].split("]")[0].split(", ")
    assert len(norms) > 0 and all(np.isfinite(float(n)) for n in norms)
    assert not model.exists() and not (tmp_path / "m.metrics.csv").exists()


def test_eval_missing_model_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "4",
                         "--seed", "0", "--out", str(data)]) == 0
    assert cli_dispatch(["eval", "--model", str(tmp_path / "nope.json"),
                         "--data", str(data)]) == 2
    capsys.readouterr()


def _write_expand_file(path, query_rows, candidate_rows):
    lines = []
    for bits in query_rows:
        lines.append(json.dumps({"bits": bits, "query": True}))
    for name, bits in candidate_rows:
        lines.append(json.dumps({"id": name, "bits": bits}))
    path.write_text("\n".join(lines) + "\n")


def test_expand_ranks_lookalikes_first(tmp_path, capsys):
    rng = np.random.default_rng(0)
    proto = [1, 1, 1, 0, 0, 0, 0, 0]
    query = [proto, proto, [1, 1, 0, 0, 0, 0, 0, 0]]
    noise = [("junk%d" % i, rng.integers(0, 2, 8).tolist()) for i in range(5)]
    data = tmp_path / "cand.jsonl"
    _write_expand_file(data, query, [("match", proto)] + noise)
    out = tmp_path / "ranked.csv"
    assert cli_dispatch(["expand", "--data", str(data), "--k", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert printed.strip().split("\n") == lines
    assert lines[0] == "rank,id,score"
    assert len(lines) == 4
    assert lines[1].split(",")[:2] == ["1", "match"]
    scores = [float(line.split(",")[2]) for line in lines[1:]]
    assert scores == sorted(scores, reverse=True)


def test_expand_without_query_rows_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "cand.jsonl"
    _write_expand_file(data, [], [("a", [0, 1]), ("b", [1, 1])])
    assert cli_dispatch(["expand", "--data", str(data)]) == 2
    assert "query" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row, message", [([0.6, 1], "0 or 1"), ([1, 0, 1], "width 2")],
                         ids=["fractional", "ragged"])
def test_expand_rejects_bad_candidate_bits(tmp_path, capsys, bad_row, message):
    data = tmp_path / "cand.jsonl"
    _write_expand_file(data, [[1, 0]], [("a", [1, 0]), ("bad", bad_row), ("b", [0, 1])])
    assert cli_dispatch(["expand", "--data", str(data)]) == 2
    assert message in capsys.readouterr().err


def test_expand_rejects_a_query_row_without_a_bit_list(tmp_path, capsys):
    data = tmp_path / "cand.jsonl"
    data.write_text(json.dumps({"bits": 5, "query": True}) + "\n" + json.dumps({"id": "a", "bits": [1, 0]}) + "\n")
    assert cli_dispatch(["expand", "--data", str(data)]) == 2
    assert "bits must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a,b", "a\nb", '"a"'], ids=["comma", "newline", "quote"])
def test_expand_rejects_an_id_that_would_break_the_csv(tmp_path, capsys, name):
    data = tmp_path / "cand.jsonl"
    _write_expand_file(data, [[1, 0]], [("a", [1, 0]), (name, [0, 1])])
    assert cli_dispatch(["expand", "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read candidates")


@pytest.mark.parametrize("line", [b"[" * 100000 + b"]" * 100000, b'{"bits": [1, 0], "id": "\xff"}'],
                         ids=["nested-too-deep", "not-utf8"])
def test_expand_rejects_an_unreadable_line(tmp_path, capsys, line):
    data = tmp_path / "cand.jsonl"
    data.write_bytes(json.dumps({"bits": [1, 0], "query": True}).encode() + b"\n" + line + b"\n")
    assert cli_dispatch(["expand", "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read candidates")


@pytest.mark.parametrize("flag", ["false", 1, None], ids=["string", "number", "null"])
def test_expand_rejects_a_query_flag_that_is_not_a_boolean(tmp_path, capsys, flag):
    data = tmp_path / "cand.jsonl"
    rows = [{"bits": [1, 0], "query": True}, {"id": "a", "bits": [1, 0], "query": flag},
            {"id": "b", "bits": [0, 1]}]
    data.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert cli_dispatch(["expand", "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read candidates") and "line 2: query must be true or false" in err


def test_expand_rejects_rows_without_bits(tmp_path, capsys):
    data = tmp_path / "cand.jsonl"
    _write_expand_file(data, [[]], [("a", []), ("b", [])])
    assert cli_dispatch(["expand", "--data", str(data)]) == 2
    assert "at least one bit" in capsys.readouterr().err


_json_leaf = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True) | st.text(max_size=4)
_json_value = st.recursive(_json_leaf, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


@st.composite
def _expand_lines(draw):
    """JSONL text of well-formed expand rows, some of them replaced by junk."""
    width = draw(st.integers(0, 3))
    ident = st.text(st.sampled_from('ab,"\n\r'), max_size=3) | st.integers() | _json_value
    row = st.fixed_dictionaries({"bits": st.lists(st.integers(0, 1), min_size=width, max_size=width)},
                                optional={"query": st.booleans(), "id": ident})
    lines = [json.dumps(r) for r in draw(st.lists(row, min_size=2, max_size=6))]
    junk = (st.text(max_size=8) | _json_value.map(json.dumps)
            | st.fixed_dictionaries({"bits": _json_value, "query": _json_value}).map(json.dumps))
    for _ in range(draw(st.integers(0, 2))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(junk)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_expand_lines(), st.none() | st.integers(-1, 4))
def test_expand_reader_fuzz_ranks_or_exits_2(text, k):
    """Any input file either yields a well-formed ranking CSV of its own
    candidates, scored over at least one bit, or a usage error."""
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "cand.jsonl")
        with open(data, "w", encoding="utf-8") as f:
            f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(["expand", "--data", data] + ([] if k is None else ["--k", str(k)]))
        if code == 2:
            assert err.getvalue().startswith("error: ")
            return
        assert code == 0
        with open(data) as f:
            docs = [json.loads(line) for line in f if line.strip()]
    assert all(doc["bits"] for doc in docs)
    candidates = [doc for doc in docs if not doc.get("query")]
    names = {str(doc.get("id", i)) for i, doc in enumerate(candidates)}
    rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
    assert out.getvalue().count("\n") == len(rows)
    assert rows[0] == ["rank", "id", "score"]
    assert len(rows) >= 2 and all(len(r) == 3 and r[1] in names for r in rows[1:])
    assert [int(r[0]) for r in rows[1:]] == list(range(1, len(rows)))
    scores = [float(r[2]) for r in rows[1:]]
    assert scores == sorted(scores, reverse=True) and all(np.isfinite(scores))


# Reads the core OpenBLAS picked at load time and its build string, from the
# library numpy has mapped; prints nothing when either cannot be read.
_BLAS_CORE_SCRIPT = """
import ctypes, numpy
try:
    maps = open("/proc/self/maps").read().splitlines()
except OSError:
    maps = []
for path in sorted({l.split()[-1] for l in maps if "openblas" in l and l.endswith(".so")}):
    lib = ctypes.CDLL(path)
    core = getattr(lib, "scipy_openblas_get_corename64_", None)
    config = getattr(lib, "scipy_openblas_get_config64_", None)
    if core is not None and config is not None:
        core.restype = config.restype = ctypes.c_char_p
        print(core().decode(), *config().decode().split()[1:2], sep="\\n")
        break
"""

# sha256 of the outputs of the runs in the test below, as the per-set loops
# that tests/test_first_maximum.py keeps as the reference wrote them; they
# hold for the OpenBLAS core and version named here
_GOLDEN_BLAS = ("SkylakeX", "0.3.31.188.0")
_GOLDEN_SHA256 = {
    "m.json": "8e859525a5de1c7e70b13cf8c51a43ad7d07165277847b41cd3497f6a939bb09",
    "m.metrics.csv": "edc22f495d4425508f3ec015a9da94ea1c3dcb6c25972ce4ac1ecabf0951865e",
    "e.csv": "e4c838d67b8d9c71d22875a8e9ab47556705c7aedcf4cdbde92bb3cf766a7dd3",
    "b.json": "27a310465483f0407dc9ebc7d41c8c0a522e3068fca05e5349c52c73049cfefe",
    "b.metrics.csv": "7a8904e60d5d328ce165a53e4eaf6134bea9ff68b32658dcccf4bec373fde39a",
}


def _golden_cli(tmp_path):
    """A runner of ``python <args>`` in ``tmp_path`` on one BLAS thread that
    returns stdout; skips the test unless OpenBLAS has the core and version
    the golden hashes were recorded on."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run(*args):
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        return done.stdout

    blas = tuple(run("-c", _BLAS_CORE_SCRIPT).split())
    if blas != _GOLDEN_BLAS:
        pytest.skip(f"golden hashes were recorded on OpenBLAS {_GOLDEN_BLAS}; "
                    f"this run loads {blas or 'a library whose core cannot be read'}")
    return run


def test_outlier_cli_outputs_match_golden_sha256(tmp_path):
    """gen -> train -> eval on a small outlier file (two evaluation slices)
    and a pooled-baseline train, on one BLAS thread: the bytes of the
    set softmax, segment max and selection path are pinned."""
    run = _golden_cli(tmp_path)
    (tmp_path / "b.cfg").write_text(json.dumps({"pooled_baseline": True}))
    run("-m", "setnn", "gen", "--task", "outlier", "--n", "160", "--seed", "11", "--out", "o.jsonl")
    run("-m", "setnn", "train", "--data", "o.jsonl", "--out", "m.json", "--epochs", "2", "--batch", "16")
    run("-m", "setnn", "eval", "--model", "m.json", "--data", "o.jsonl", "--out", "e.csv")
    run("-m", "setnn", "train", "--data", "o.jsonl", "--out", "b.json", "--config", "b.cfg", "--epochs", "1")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _GOLDEN_SHA256}
    assert digests == _GOLDEN_SHA256


# sha256 of the outputs of the max-pooled runs in the test below, as the
# hit-mask segment_argmax (maximum, then lowest matching row, each by a
# grouped reduceat) wrote them, on the OpenBLAS named above
_MAX_POOL_SHA256 = {
    "r.json": "63b8900d9cc825f31d4ab835f064243c93721d87218b7fa7de692ccfa93a39b5",
    "r.metrics.csv": "c39db03410bde6a1d5c463855b5cc463fad2c6602092e22a71334c617169c91a",
    "r.csv": "3ed064b467558917b508ec4ebc5c5eecd0e9952a1976c3fca2c62002f90a770b",
    "d.json": "4982437db374cdaf8ca8af94248801a80f4ac8b7db8cb47e3b6aa6305d982b86",
    "d.metrics.csv": "e9709bfe98c359d52386c19ba4d06220a8694e1ec48acec1824f04d018e51851",
    "d.csv": "e2705eed2001482bc984cdb03857ad9ae33cf1aee928b19677581141bcf3257e",
}


def test_max_pool_cli_outputs_match_golden_sha256(tmp_path):
    """gen -> train -> eval with ``{"pool": "max"}`` on rotation sets of
    300-500 rows (one segment per run block) and digit-sum sets of 1-10 rows
    (short ragged runs), on one BLAS thread: the bytes of max pooling over
    large and ragged sets are pinned."""
    run = _golden_cli(tmp_path)
    (tmp_path / "p.cfg").write_text(json.dumps({"pool": "max"}))
    for task, stem, n, seed, batch in (("rotation", "r", "40", "5", "8"), ("digit-sum", "d", "200", "7", "32")):
        run("-m", "setnn", "gen", "--task", task, "--n", n, "--seed", seed, "--out", f"{stem}.jsonl")
        run("-m", "setnn", "train", "--data", f"{stem}.jsonl", "--out", f"{stem}.json", "--config", "p.cfg",
            "--epochs", "2", "--batch", batch)
        run("-m", "setnn", "eval", "--model", f"{stem}.json", "--data", f"{stem}.jsonl", "--out", f"{stem}.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _MAX_POOL_SHA256}
    assert digests == _MAX_POOL_SHA256


# sha256 of the outputs of the default-pool runs in the test below, as the
# per-leaf gradient dict of backprop wrote them, on the OpenBLAS named above
_DEFAULT_POOL_SHA256 = {
    "r.json": "528c4f026365bf85861cc5033817a4a3aa5d1a03548b5232239070a8fa5a3ce8",
    "r.metrics.csv": "857526d22678c716e8bc00cc61c1fce41cb81a2c336a963b5fb393bdeec2374e",
    "r.csv": "fbf84b39bc3caa6ac9667330b340702a8140ba1aca8c2188cb0fcc5df0d47c03",
    "d.json": "aed9ef24cc8bad9aca134b20f7c0bd06a4b3fd55b0706cdbbc0cc740ba7fee59",
    "d.metrics.csv": "6a96f3670ee4b04c42f4f02445232898ff4be2dd38ab0b54a95cc39c89034fb5",
    "d.csv": "3485abe16c1d9f4f606e25758d4ebcb95b68d0292062018e73c0663d02a274a0",
}


def test_default_pool_cli_outputs_match_golden_sha256(tmp_path):
    """gen -> train -> eval on rotation sets with ``{"pool": "mean"}`` and on
    digit-sum sets with the default sum pool, on one BLAS thread: the bytes
    of training through segment_mean and segment_sum are pinned."""
    run = _golden_cli(tmp_path)
    (tmp_path / "p.cfg").write_text(json.dumps({"pool": "mean"}))
    for task, stem, n, seed, batch, config in (("rotation", "r", "40", "5", "8", ["--config", "p.cfg"]),
                                               ("digit-sum", "d", "200", "7", "32", [])):
        run("-m", "setnn", "gen", "--task", task, "--n", n, "--seed", seed, "--out", f"{stem}.jsonl")
        run("-m", "setnn", "train", "--data", f"{stem}.jsonl", "--out", f"{stem}.json", *config,
            "--epochs", "2", "--batch", batch)
        run("-m", "setnn", "eval", "--model", f"{stem}.json", "--data", f"{stem}.jsonl", "--out", f"{stem}.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _DEFAULT_POOL_SHA256}
    assert digests == _DEFAULT_POOL_SHA256


# sha256 of the files ``gen`` writes in the test below, for each --task, on
# the OpenBLAS named above (the population kinds draw through LAPACK and libm)
_GEN_SHA256 = {
    "rotation": "84bda8cd3e644de557d8b78d11912d48f16e882911c827a62bb3140e6403c442",
    "correlation": "1ccea2d11293a3d591a74f89a71d6ad42d4dc9e42fb7c7c841ee3560d03fdd7c",
    "rank1": "0ddfd4a7ea8569dfa376615b5431055437f1337d05907607631ab291c014c190",
    "random": "79f523c543ecc8dcf76695ad3ead03dd3fdd1a2917dc5ab35b850c4dc0677f04",
    "digit-sum": "240bd9d6b03e981dc2486c704c298b971e6cf5e245961ced20fbaa58dbb2b907",
    "outlier": "d5b44c764cd36520adc42872a7f57c1c691ba8d789d4097ea4c100e34c42957a",
}


def test_gen_outputs_match_golden_sha256(tmp_path):
    """Three small sets per --task, seed 4, population sets of 3-6 rows, on
    one BLAS thread: the bytes of every generator and of save_jsonl are
    pinned."""
    run = _golden_cli(tmp_path)
    (tmp_path / "p.cfg").write_text(json.dumps({"set_size_range": [3, 6]}))
    (tmp_path / "empty.cfg").write_text("{}")
    digests = {}
    for task in _GEN_SHA256:
        config = "empty.cfg" if task in ("digit-sum", "outlier") else "p.cfg"
        run("-m", "setnn", "gen", "--task", task, "--n", "3", "--seed", "4", "--config", config,
            "--out", f"{task}.jsonl")
        digests[task] = hashlib.sha256((tmp_path / f"{task}.jsonl").read_bytes()).hexdigest()
    assert digests == _GEN_SHA256


_EXPAND_SHA256 = "fd92e159b86a287614a24b6949c558c77315d8b40f54de40fc6d37a371ece3a6"


def test_expand_output_matches_golden_sha256(tmp_path):
    """expand of 60 candidates of 24 bits against 5 query rows, under a
    non-uniform prior and --k 20, on one BLAS thread: the bytes of the
    ranking CSV (scores through lgamma and log1p) are pinned."""
    run = _golden_cli(tmp_path)
    rng = np.random.default_rng(17)
    proto = rng.random(24) < 0.3
    query = [(proto ^ (rng.random(24) < 0.1)).astype(int).tolist() for _ in range(5)]
    candidates = [(f"c{i}", (rng.random(24) < 0.3).astype(int).tolist()) for i in range(60)]
    _write_expand_file(tmp_path / "cand.jsonl", query, candidates)
    (tmp_path / "prior.json").write_text(json.dumps({"beta_plus": [0.5 + 0.1 * i for i in range(24)],
                                                     "beta_minus": [2.0] * 24}))
    run("-m", "setnn", "expand", "--data", "cand.jsonl", "--model", "prior.json", "--k", "20", "--out", "r.csv")
    assert hashlib.sha256((tmp_path / "r.csv").read_bytes()).hexdigest() == _EXPAND_SHA256


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-m", "setnn", "--help"], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert "usage: setnn" in done.stdout
    done = subprocess.run([sys.executable, "-m", "setnn", "bogus"], capture_output=True, text=True, env=env)
    assert done.returncode == 2


def test_expand_accepts_prior_parameters(tmp_path, capsys):
    data = tmp_path / "cand.jsonl"
    _write_expand_file(data, [[1, 0], [1, 0]], [("a", [1, 0]), ("b", [0, 1])])
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"beta_plus": [2.0, 2.0], "beta_minus": [2.0, 2.0]}))
    assert cli_dispatch(["expand", "--data", str(data), "--model", str(prior)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split(",")[1] == "a"


@pytest.mark.parametrize("command, flag", [
    ("train", "--task"),
    ("eval", "--task"), ("eval", "--seed"), ("eval", "--config"),
    ("expand", "--task"), ("expand", "--seed"), ("expand", "--config"),
    ("check", "--task"), ("check", "--out"), ("check", "--config"),
])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, command, flag):
    data, model, cand = tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "cand.jsonl"
    assert cli_dispatch(["gen", "--task", "outlier", "--n", "4", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
    _write_expand_file(cand, [[1, 0]], [("a", [1, 0])])
    argv = {"train": ["train", "--data", str(data), "--out", str(tmp_path / "m2.json"), "--epochs", "1"],
            "eval": ["eval", "--model", str(model), "--data", str(data)],
            "expand": ["expand", "--data", str(cand)],
            "check": ["check"]}[command]
    value = {"--seed": "1", "--task": "outlier", "--out": str(tmp_path / "x"),
             "--config": str(tmp_path / "missing.json")}[flag]
    capsys.readouterr()
    assert cli_dispatch(argv + [flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not (tmp_path / "m2.json").exists()


def test_the_readme_flag_table_matches_the_parser():
    """Each row of README's ``| Command | Flags |`` table names exactly the
    options its subcommand declares, ``--help`` aside, and marks "(required)"
    or "(both required)" exactly the ones the parser requires."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        readme = f.read()
    table = readme.split("| Command | Flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    documented, required = {}, {}
    for row in table.splitlines():
        command, flags = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
        documented[command] = set(re.findall(r"`(--[\w-]+)`", flags))
        required[command] = {flag for part in flags.split(", ") if "required)" in part
                             for flag in re.findall(r"`(--[\w-]+)`", part)}
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    declared = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
                for name, p in commands.items()}
    assert documented == declared
    assert required == {name: {o for a in p._actions if a.required for o in a.option_strings}
                        for name, p in commands.items()}


def _refuses_to_write(capsys, argv, path):
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ") and captured.err.count("\n") == 1


def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """Every command that writes a file exits 2 with one error line when it
    cannot: a missing directory, or a directory in place of the file. gen
    checks its path before it generates, and train its model and metrics
    paths before it trains."""
    missing = tmp_path / "missing"
    data, model, cand = tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "cand.jsonl"
    assert cli_dispatch(["gen", "--task", "outlier", "--n", "4", "--out", str(data)]) == 0
    assert cli_dispatch(["train", "--data", str(data), "--out", str(model), "--epochs", "1"]) == 0
    _write_expand_file(cand, [[1, 0]], [("a", [1, 0])])
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a run started before its output paths were checked")

    monkeypatch.setattr("setnn.cli.train", refuse)
    monkeypatch.setattr("setnn.cli.gen_population_task", refuse)
    for task in ("digit-sum", "outlier"):
        monkeypatch.setitem(cli._GENERATORS, task, refuse)
    for task, out in (("outlier", missing / "o.jsonl"), ("digit-sum", missing / "o.jsonl.gz"),
                      ("rotation", tmp_path)):
        _refuses_to_write(capsys, ["gen", "--task", task, "--n", "4", "--out", str(out)], out)
    for out in (missing / "m.json", tmp_path):
        _refuses_to_write(capsys, ["train", "--data", str(data), "--out", str(out), "--epochs", "1"], out)
    metrics = tmp_path / "n.metrics.csv"
    metrics.mkdir()
    _refuses_to_write(capsys, ["train", "--data", str(data), "--out", str(tmp_path / "n.json")], metrics)
    assert not (tmp_path / "n.json").exists()
    out = missing / "e.csv"
    _refuses_to_write(capsys, ["eval", "--model", str(model), "--data", str(data), "--out", str(out)], out)
    out = missing / "r.csv"
    _refuses_to_write(capsys, ["expand", "--data", str(cand), "--out", str(out)], out)
    assert not missing.exists()


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_check_rejects_a_negative_seed(capsys, seed):
    assert cli_dispatch(["check", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must be an integer >= 0, got {seed}\n"


def test_check_runs_green(capsys):
    assert cli_dispatch(["check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
