"""Command-line surface: gen / train / eval / expand / check.

Exit codes: 0 on success, 1 when a check or run fails (battery failure,
divergence), 2 for usage errors (unknown flags, bad config, missing files,
an output path that cannot be written) and bad input data (malformed or
invalid dataset lines, a model whose input width does not fit the data or
whose weights overflow on it).

``gen`` writes a JSONL dataset (gzipped if the path ends in .gz). ``train``
reads one, trains per an optional config JSON plus flag overrides, and writes
the model JSON to --out with per-epoch metrics in a sibling .metrics.csv.
``eval`` scores a saved model on a dataset and prints the metrics line.
``expand`` ranks candidate bit-vectors against the query rows marked in the
same JSONL file. ``check`` runs the property battery and prints its table.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from setnn import bayes, checks
from setnn.autodiff import NonFiniteError, ShapeError
from setnn.layers import model_from_json, model_to_json
from setnn.tasks import (
    POPULATION_KINDS,
    GaussianTaskSpec,
    TaskError,
    gen_digit_sum,
    gen_outlier_sets,
    gen_population_task,
    load_jsonl,
    require_int,
    save_jsonl,
)
from setnn.train import ConfigError, TrainConfig, TrainingDiverged, evaluate, metrics_to_csv, train

GEN_TASKS = POPULATION_KINDS + ("digit-sum", "outlier")

_GENERATORS = {"digit-sum": gen_digit_sum, "outlier": gen_outlier_sets}


class UsageError(ValueError):
    pass


# Characters that would break an unquoted ``rank,id,score`` row: the field
# separator, the quote, and everything ``str.splitlines`` treats as a line end.
_CSV_UNSAFE = re.compile('[,"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]')


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bytes
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{what} {path} must hold a JSON object")
    return obj


def _write(path: str, content) -> None:
    """Write ``content`` to ``path``: a string as it is, a dataset as JSONL. A
    path that cannot be written is a usage error."""
    try:
        if isinstance(content, str):
            with open(path, "w") as f:
                f.write(content)
        else:
            save_jsonl(content, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse a path that is a directory or whose directory does not exist,
    so that a run whose result could not be saved does not start."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {path}: directory {parent} does not exist")


def _emit_csv(text: str, out: str | None) -> None:
    """Write the CSV to ``out`` when given, then print it."""
    if out:
        _write(out, text)
    print(text, end="")


def _cmd_gen(args) -> int:
    _check_writable(args.out)
    ov = _load_json(args.config, "generator config") if args.config else {}
    try:
        if args.task in POPULATION_KINDS:
            dataset = gen_population_task(GaussianTaskSpec(kind=args.task, num_sets=args.n,
                                                           seed=args.seed, **ov))
        else:
            dataset = _GENERATORS[args.task](args.n, seed=args.seed, **ov)
    except (TaskError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    _write(args.out, dataset)
    print(f"wrote {len(dataset)} sets to {args.out}")
    return 0


def _metrics_path(model_path: str) -> str:
    stem = model_path[:-5] if model_path.endswith(".json") else model_path
    return stem + ".metrics.csv"


def _train_config(args, dataset) -> TrainConfig:
    obj = _load_json(args.config, "train config") if args.config else {}
    obj.setdefault("task", dataset.meta["task"])
    if args.epochs is not None:
        obj["epochs"] = args.epochs
    if args.batch is not None:
        obj["batch_size"] = args.batch
    if args.seed is not None:
        obj["seed"] = args.seed
    try:
        return TrainConfig(**obj)
    except (ConfigError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _cmd_train(args) -> int:
    csv_path = _metrics_path(args.out)
    for path in (args.out, csv_path):
        _check_writable(path)
    try:
        dataset = load_jsonl(args.data)
    except (OSError, TaskError) as exc:
        raise UsageError(f"cannot load dataset {args.data}: {exc}") from exc
    config = _train_config(args, dataset)
    try:
        model, records = train(config, dataset)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    _write(args.out, model_to_json(model) + "\n")
    _write(csv_path, metrics_to_csv(records, include_timing=args.timing))
    print(f"wrote model to {args.out} and metrics to {csv_path}")
    print(metrics_to_csv(records[-1:], include_timing=args.timing), end="")
    return 0


def _cmd_eval(args) -> int:
    try:
        with open(args.model) as f:
            model = model_from_json(f.read())
        dataset = load_jsonl(args.data)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot load inputs: {exc}") from exc
    try:
        record = evaluate(model, dataset, dataset.meta["task"])
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    except ShapeError as exc:
        raise UsageError(f"model {args.model} does not fit dataset {args.data}: {exc}") from exc
    except NonFiniteError as exc:
        raise UsageError(f"model {args.model} overflows on dataset {args.data}: {exc}") from exc
    _emit_csv(metrics_to_csv([record], include_timing=args.timing), args.out)
    return 0


def _cmd_expand(args) -> int:
    try:
        with open(args.data) as f:
            lines = f.readlines()
    except (OSError, ValueError) as exc:  # missing file, undecodable bytes
        raise UsageError(f"cannot read candidates {args.data}: {exc}") from exc
    query, candidates, ids = [], [], []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            bits = obj["bits"]
            if not isinstance(bits, list):
                raise TypeError(f"bits must be a list of 0/1 values, got {bits!r}")
            is_query = obj.get("query", False)
            if not isinstance(is_query, bool):
                raise TypeError(f"query must be true or false, got {is_query!r}")
            if is_query:
                query.append(bits)
            else:
                ident = str(obj.get("id", len(ids)))
                if _CSV_UNSAFE.search(ident):
                    raise ValueError(f"id {ident!r} holds a comma, quote or line break")
                ids.append(ident)
                candidates.append(bits)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise UsageError(f"cannot read candidates {args.data} line {number}: {exc}") from exc
    if not query:
        raise UsageError('no query rows: mark at least one line with "query": true')
    if not candidates:
        raise UsageError("no candidate rows to rank")
    d = len(query[0])
    if d == 0:
        raise UsageError("bits rows are empty: need at least one bit per row")
    if args.model:
        obj = _load_json(args.model, "scorer parameters")
        try:
            model = bayes.BetaBinomialModel(np.asarray(obj["beta_plus"]), np.asarray(obj["beta_minus"]))
        except (bayes.BayesSetError, KeyError, TypeError) as exc:
            raise UsageError(f"bad scorer parameters: {exc}") from exc
    else:
        model = bayes.BetaBinomialModel.uniform(d)
    k = args.k if args.k is not None else len(candidates)
    try:
        X = bayes.as_binary_matrix(query, d)
        C = bayes.as_binary_matrix(candidates, d)
        ranked = bayes.expand(model, X, C, min(k, len(candidates)))
    except bayes.BayesSetError as exc:
        raise UsageError(str(exc)) from exc
    lines = ["rank,id,score"]
    for rank, (idx, score) in enumerate(ranked, start=1):
        lines.append(f"{rank},{ids[idx]},{score!r}")
    _emit_csv("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    results = checks.run_all(seed=require_int("seed", args.seed, 0, UsageError))
    print(checks.summary_table(results))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, declaring only the flags its handler reads."""
    parser = argparse.ArgumentParser(prog="setnn", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    timing_help = "record real wall seconds (breaks byte determinism)"

    p = command("gen", _cmd_gen, "generate a synthetic dataset")
    p.add_argument("--task", required=True, choices=GEN_TASKS)
    p.add_argument("--n", type=int, required=True, help="number of sets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--config", help="generator config JSON path")

    p = command("train", _cmd_train, "train a model on a dataset")
    p.add_argument("--data", required=True, help="dataset JSONL path")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--config", help="train config JSON path")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int, help="overrides the config's seed when given")
    p.add_argument("--timing", action="store_true", help=timing_help)

    p = command("eval", _cmd_eval, "evaluate a saved model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="dataset JSONL path")
    p.add_argument("--out", help="metrics CSV path")
    p.add_argument("--timing", action="store_true", help=timing_help)

    p = command("expand", _cmd_expand, "rank candidate bit-vectors against a query set")
    p.add_argument("--data", required=True, help="bit-vector JSONL path")
    p.add_argument("--model", help="prior JSON path")
    p.add_argument("--k", type=int, help="how many candidates to keep")
    p.add_argument("--out", help="ranking CSV path")

    p = command("check", _cmd_check, "run the property battery")
    p.add_argument("--seed", type=int, default=0)
    return parser


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:  # every primitive and metric reports a non-finite value itself
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
