"""End-to-end tests for the command-line surface."""

import hashlib
import json

import numpy as np
import pytest

from setnn.cli import cli_dispatch
from setnn.tasks import load_jsonl


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


def test_gen_requires_out(capsys):
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "4"]) == 2
    assert "requires --out" in capsys.readouterr().err


def test_gen_rejects_unknown_config_fields(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"volume": 11}))
    code = cli_dispatch(["gen", "--task", "digit-sum", "--n", "4",
                         "--out", str(tmp_path / "d.jsonl"), "--config", str(cfg)])
    assert code == 2
    assert "volume" in capsys.readouterr().err


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


def test_train_rejects_bad_config(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "8",
                         "--seed", "5", "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": "margin"}))
    code = cli_dispatch(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                         "--config", str(cfg), "--epochs", "1"])
    assert code == 2
    assert "unknown config fields: ['loss']" in capsys.readouterr().err


_SCALAR_META = {"task": "digit-sum", "target_kind": "scalar"}
_INDEX_META = {"task": "outlier", "target_kind": "index"}


@pytest.mark.parametrize("meta, second", [
    (_SCALAR_META, {"elements": [[1.0, 0.0, 1.0]], "target": 1.0}),
    (_SCALAR_META, {"elements": [], "target": 0.0}),
    (_SCALAR_META, {"elements": [[1.0, float("nan")]], "target": 1.0}),
    (_INDEX_META, {"elements": [[1.0, 0.0], [0.0, 1.0]], "target": 2}),
], ids=["ragged-width", "empty-set", "nan-element", "index-out-of-range"])
def test_train_rejects_bad_data_at_the_boundary(tmp_path, capsys, meta, second):
    data = tmp_path / "bad.jsonl"
    first = {"elements": [[0.0, 1.0], [1.0, 0.0]], "target": 1, "meta": meta}
    data.write_text(json.dumps(first) + "\n" + json.dumps({**second, "meta": meta}) + "\n")
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


@pytest.mark.parametrize("text", ["[]", '{"type": "invariant", "pool": "sum", "phi": 5, "rho": []}',
                                  '{"type": "equivariant_stack", "layers": [5]}'],
                         ids=["list", "phi-number", "layer-number"])
def test_eval_rejects_a_malformed_model(tmp_path, capsys, text):
    data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "4", "--out", str(data)]) == 0
    model.write_text(text)
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load inputs")


@pytest.mark.parametrize("task_flag, message", [
    (["--task", "outlier"], "element width 10"),
    ([], "needs one prediction per set"),
], ids=["width", "model-kind"])
def test_eval_rejects_a_model_that_does_not_fit_the_data(tmp_path, capsys, task_flag, message):
    outlier, digits, model = tmp_path / "o.jsonl", tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli_dispatch(["gen", "--task", "outlier", "--n", "8", "--out", str(outlier)]) == 0
    assert cli_dispatch(["gen", "--task", "digit-sum", "--n", "8", "--out", str(digits)]) == 0
    assert cli_dispatch(["train", "--data", str(outlier), "--out", str(model), "--epochs", "1"]) == 0
    capsys.readouterr()
    assert cli_dispatch(["eval", "--model", str(model), "--data", str(digits), *task_flag]) == 2
    assert message in capsys.readouterr().err


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


def test_expand_accepts_prior_parameters(tmp_path, capsys):
    data = tmp_path / "cand.jsonl"
    _write_expand_file(data, [[1, 0], [1, 0]], [("a", [1, 0]), ("b", [0, 1])])
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"beta_plus": [2.0, 2.0], "beta_minus": [2.0, 2.0]}))
    assert cli_dispatch(["expand", "--data", str(data), "--model", str(prior)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split(",")[1] == "a"


def test_check_runs_green(capsys):
    assert cli_dispatch(["check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
