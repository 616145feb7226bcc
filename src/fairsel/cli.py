"""Command-line frontend.

Subcommands: train, evaluate, compare, tune, gradcheck. Every command
is deterministic given its full flag set (wall-clock report fields
aside). Repetition seeds derive from the master seed through a fixed
counter scheme, so adding repetitions never reshuffles earlier ones.

train, compare and tune share one repetition runner: compare is train
plus the logistic baseline, and tune is train over a list of
sensitivity weights. Both models are a net and the columns it keeps,
scored by one `report.evaluate_model` and saved by one
`checkpoint.save_model`. Each command checks every flag before it reads
or writes a file, then maps all of its (repetition, config) tasks
through one work list; FAIRSEL_THREADS=N (default 1, sequential) runs
that list in one pool of N processes, each of which receives the loaded
table once.

Exit status: 0 success, 1 usage error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import report as rpt
from .baseline import train_logistic
from .checkpoint import load_model, save_model
from .data import DatasetSpec, load_csv, prepare_splits
from .diagnostics import run_all
from .errors import DataError, FairselError, NumericalError
from .metrics import balanced_accuracy
from .training import TrainConfig, predict, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_GRID = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; we reserve 2 for data
    # errors, so route usage problems through our own exception
    def error(self, message):
        raise UsageError(message)


def _checked(kind, ok, rule):
    """argparse type: a `kind` value for which ok(value) holds. The
    bounds are written so that NaN fails them."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # "invalid int value: ..." on a typo
    return parse


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "at least 1")
_SEED = _checked(int, lambda v: v >= 0, "nonnegative")  # SeedSequence entropy


def derive_seed(master_seed, rep_index):
    """Stable per-repetition seed from the master seed."""
    return int(np.random.SeedSequence(
        entropy=master_seed, spawn_key=(rep_index,)).generate_state(1)[0])


def _worker_count():
    raw = os.environ.get("FAIRSEL_THREADS", "1")
    try:
        return _AT_LEAST_ONE(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"FAIRSEL_THREADS must be a positive integer, "
                         f"got {raw!r}") from None


_runner = None  # a pool worker's task runner, set by _set_runner


def _set_runner(fn):
    global _runner
    _runner = fn


def _run_task(task):
    return _runner(task)


def _map_reps(fn, tasks, workers):
    """fn over tasks, in order. A pool receives fn, which holds the
    loaded table, once per worker through its initializer. The pool's
    module loads only here; tests and perfbench patch the class on it."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_set_runner,
            initargs=(fn,)) as pool:
        return list(pool.map(_run_task, tasks))


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="CSV file with header row")
    p.add_argument("--spec", required=True, help="dataset spec JSON")


def _add_train_flags(p, lambda_flag=True):
    p.add_argument("--seed", type=_SEED, default=0, help="master seed")
    p.add_argument("--reps", type=_AT_LEAST_ONE, default=5,
                   help="independent repetitions with distinct splits")
    if lambda_flag:  # tune takes its weights from --grid
        p.add_argument("--lambda", dest="sensitivity_weight", type=float,
                       default=TrainConfig.sensitivity_weight,
                       help="weight of the sensitivity term in the predictor loss")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--alpha-theta", type=float, default=TrainConfig.alpha_theta,
                   help="selector learning rate")
    p.add_argument("--alpha-phi", type=float, default=TrainConfig.alpha_phi,
                   help="predictor learning rate")
    p.add_argument("--hidden", default=",".join(map(str, TrainConfig.hidden_sizes)),
                   help="comma-separated hidden layer sizes")
    p.add_argument("--score-baseline", action="store_true",
                   help="variance-reduction baseline for the selector updates")


def _add_out_flags(p, default_out):
    p.add_argument("--out", default=default_out,
                   help="output directory for checkpoints and the report")


def build_parser():
    parser = _Parser(prog="fairsel",
                     description="Fairness-aware classification through "
                                 "adversarial feature selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the adversarial model")
    _add_data_flags(p)
    _add_train_flags(p)
    _add_out_flags(p, "fairsel-train")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--spec", default=None,
                   help="optional spec JSON, checked against the checkpoint")
    p.add_argument("--seed", type=_SEED, default=0,
                   help="the report's master_seed; no metric depends on it")
    p.add_argument("--out", default=None, help="report file (default: stdout)")

    p = sub.add_parser("compare",
                       help="train adversarial model and logistic baseline "
                            "on identical splits")
    _add_data_flags(p)
    _add_train_flags(p)
    _add_out_flags(p, "fairsel-compare")

    p = sub.add_parser("tune", help="grid search over the sensitivity weight")
    _add_data_flags(p)
    _add_train_flags(p, lambda_flag=False)
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="comma-separated sensitivity weights")
    _add_out_flags(p, "fairsel-tune")
    p.set_defaults(reps=1)

    p = sub.add_parser("gradcheck", help="run gradient and estimator checks")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--instances", type=_AT_LEAST_ONE, default=50,
                   help="random instances per gradient check")
    return parser


def _parse_list(flag, kind, what, text):
    """The values of a comma-separated list flag; blank items are skipped."""
    try:
        return [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated {what}, got {text!r}") from None


def _config_from_args(args, weight):
    """The training config of one sensitivity weight; the seed is set
    per repetition."""
    try:
        return TrainConfig(
            alpha_theta=args.alpha_theta,
            alpha_phi=args.alpha_phi,
            batch_size=args.batch_size,
            max_epochs=args.max_epochs,
            patience=args.patience,
            sensitivity_weight=weight,
            hidden_sizes=_parse_list("--hidden", int, "integers", args.hidden),
            score_baseline=args.score_baseline,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _echo_config(args):
    return {k: v for k, v in sorted(vars(args).items()) if k != "command"}


def _tune_point(model, val_ds):
    """Validation balanced accuracy, the score tune ranks weights by."""
    y_pred, _ = predict(model, val_ds.features)
    return balanced_accuracy(val_ds.outcomes(y_pred))


def _train_one_rep(task, args, raw, spec):
    """Split, train and score one (repetition index, config) task. tune
    gets its validation score, test metrics and diagnostics; train and
    compare save their checkpoints here and get the report entry."""
    rep, config = task
    seed = derive_seed(args.seed, rep)
    train_ds, val_ds, test_ds = prepare_splits(raw, spec, seed)
    config = dataclasses.replace(config, seed=seed)

    t0 = time.perf_counter()
    model = train(train_ds, val_ds, config)
    adv_metrics = rpt.evaluate_model(None, model, test_ds)
    if args.command == "tune":
        return {"validation": _tune_point(model, val_ds), "test": adv_metrics,
                "diagnostics": model.diagnostics}
    entry = {"index": rep, "seed": seed, "adversarial": adv_metrics}
    saved = {"adversarial": model}
    if args.command == "compare":
        saved["baseline"] = train_logistic(train_ds, val_ds)
        entry["baseline"] = rpt.evaluate_model(None, saved["baseline"], test_ds)
    entry["selection_probabilities"] = {
        name: float(p) for name, p in
        zip(test_ds.column_names, model.selection_probabilities)}
    entry["best_epoch"] = model.best_epoch
    entry["epochs_run"] = len(model.training_log)
    entry["diagnostics"] = model.diagnostics
    # reports stay byte-identical across runs: file names only, the
    # checkpoints live next to the report
    entry["checkpoints"] = {tag: f"{tag}_rep{rep}.json" for tag in saved}
    for tag, name in entry["checkpoints"].items():
        save_model(Path(args.out) / name, saved[tag], train_ds.encoder)
    entry["wall_clock_seconds"] = time.perf_counter() - t0
    return entry


def _run_tasks(args, weights):
    """Run every (repetition, config) task of a command, one config per
    sensitivity weight, weight-major, through one pool, naming each aborted
    task on stderr; returns the results in task order and the start time
    of the runs. Every flag is checked before any file is read or made."""
    workers = _worker_count()
    configs = [_config_from_args(args, w) for w in weights]
    out = Path(args.out)
    # mkdir(parents=True) below makes what is missing under the nearest
    # existing ancestor, which must be a directory
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise UsageError(f"--out {args.out}: {nearest} is not a directory")
    spec = DatasetSpec.from_json(args.spec)
    raw = load_csv(args.data, spec)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    tasks = [(rep, config) for config in configs for rep in range(args.reps)]
    runner = functools.partial(_train_one_rep, args=args, raw=raw, spec=spec)
    results = _map_reps(runner, tasks, workers)
    for (rep, config), result in zip(tasks, results):
        if result["diagnostics"] is not None:
            print(f"warning: sensitivity weight {config.sensitivity_weight}, "
                  f"repetition {rep}: {result['diagnostics']}", file=sys.stderr)
    return results, t0


def _write_report(args, fields, t0, summary):
    report = rpt.base_report(args.command, _echo_config(args), args.seed)
    report.update(fields)
    report["wall_clock_seconds"] = time.perf_counter() - t0
    report_path = Path(args.out) / "report.json"
    rpt.write_report(report, report_path)
    for line in summary:
        print(line)
    print(f"report written to {report_path}")
    return EXIT_OK


def _aggregate_line(tag, agg):
    parts = [f"{name}={agg[name]['mean']:.4f}+-{agg[name]['std']:.4f}"
             for name in rpt.METRIC_NAMES]
    return f"{tag}: " + " ".join(parts)


def cmd_train(args):
    """train, and compare: train plus the logistic baseline on the same
    splits."""
    reps, t0 = _run_tasks(args, [args.sensitivity_weight])
    aggregate = {tag: rpt.aggregate([r[tag] for r in reps])
                 for tag in reps[0]["checkpoints"]}
    summary = [_aggregate_line(tag, agg) for tag, agg in aggregate.items()]
    return _write_report(args, {"repetitions": reps, "aggregate": aggregate},
                         t0, summary)


def cmd_evaluate(args):
    if args.out is not None and (Path(args.out).is_dir()
                                 or not Path(args.out).parent.is_dir()):
        raise UsageError(f"--out {args.out}: not a file in an existing directory")
    kind, model, encoder = load_model(args.checkpoint)
    if args.spec is not None:
        ours, theirs = DatasetSpec.from_json(args.spec).to_dict(), encoder.spec.to_dict()
        wrong = [k for k in ("columns", "label", "sensitive") if ours[k] != theirs[k]]
        if wrong:
            raise DataError("spec does not match the checkpoint's encoder in its "
                            + " and ".join(wrong))
    raw = load_csv(args.data, encoder.spec)
    dataset = encoder.transform(raw)

    metrics = rpt.evaluate_model(None, model, dataset)
    report = rpt.base_report("evaluate", _echo_config(args), args.seed)
    report["model_kind"] = kind
    report["n_rows"] = dataset.n
    report["rejected_rows"] = raw.n_rejected
    report["metrics"] = metrics

    if args.out is not None:
        rpt.write_report(report, args.out)
        print(f"report written to {args.out}")
    else:
        print(rpt.render_report(report))
    return EXIT_OK


def cmd_tune(args):
    grid = sorted(set(_parse_list("--grid", float, "numbers", args.grid)))
    if not grid:
        raise UsageError("--grid must contain at least one value")
    rows, t0 = _run_tasks(args, grid)

    entries = []
    best = None  # (score, weight)
    for i, weight in enumerate(grid):
        point = rows[i * args.reps:(i + 1) * args.reps]
        mean_val = float(np.mean([r["validation"] for r in point]))
        entries.append({
            "sensitivity_weight": weight,
            "validation_balanced_accuracy": mean_val,
            "test": rpt.aggregate([r["test"] for r in point]),
        })
        if best is None or mean_val > best[0]:
            best = (mean_val, weight)
    for e in entries:
        e["selected"] = e["sensitivity_weight"] == best[1]

    fields = {"grid": entries, "best": {"sensitivity_weight": best[1],
                                        "validation_balanced_accuracy": best[0]}}
    return _write_report(args, fields, t0, [
        f"best sensitivity weight: {best[1]} "
        f"(validation balanced accuracy {best[0]:.4f})"])


def cmd_gradcheck(args):
    results = run_all(args.seed, args.instances)
    for res in results:
        print(res.line())
    if not all(res.passed for res in results):
        print("gradcheck: FAILURES detected", file=sys.stderr)
        return EXIT_NUMERIC
    print("gradcheck: all checks passed")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_train,
    "tune": cmd_tune,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FairselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
