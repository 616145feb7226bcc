"""One benchmark workload, run in a process of its own.

`run.py` starts this file with one of three modes:

- prepare: write the workload's generated inputs into the work directory
  (and, for bank-score, train and save the checkpoint it scores);
- setup: time `import fairsel.cli` plus the ingest calls the workload's
  operation makes first, once, and print the two times as JSON;
- run: perform operations and write their timings, output checks and
  report digests to result.json, with or without tracing.

Operation i works on input variant i % quality_ops, so every operation
past the first quality_ops repeats an earlier one exactly and its report
digest must match: each run checks the bit-reproducibility invariant.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "src" / "fairsel" / "specs"

WORKLOADS = ("proxy-train", "credit-compare", "bank-score", "credit-tune")

TUNE_GRID = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"

# Input sizes. "full" is what the benchmark measures; "tiny" only checks
# that the harness works end to end.
SIZES = {
    "full": {
        "proxy-train": {"n": 5000, "epochs": 80, "hidden": (32, 32)},
        "credit-compare": {"rows": 1000, "epochs": 30, "hidden": "200,200,200,200"},
        "bank-score": {"rows": 5000, "train_rows": 4000, "train_epochs": 3,
                       "hidden": (200, 200, 200, 200)},
        "credit-tune": {"rows": 1000, "epochs": 40, "hidden": "32,32",
                        "reps": 2, "grid": TUNE_GRID},
    },
    "tiny": {
        # the criterion-6 selection check needs the full protocol
        "proxy-train": {"n": 5000, "epochs": 80, "hidden": (32, 32)},
        "credit-compare": {"rows": 200, "epochs": 2, "hidden": "16,16"},
        "bank-score": {"rows": 400, "train_rows": 400, "train_epochs": 2,
                       "hidden": (16, 16)},
        "credit-tune": {"rows": 200, "epochs": 2, "hidden": "8,8",
                        "reps": 2, "grid": "0,1"},
    },
}

# the bank-score checkpoint is the same for every workload seed
CHECKPOINT_SEED = 0

# report config entries that hold paths of the work directory
PATH_FLAGS = ("data", "spec", "out", "checkpoint")


def digest(report):
    """sha256 of a report without wall-clock fields and work-dir paths."""
    import fairsel.report as rpt
    stripped = rpt.strip_wall_clock(report)
    if "config" in stripped:
        stripped["config"] = {k: v for k, v in stripped["config"].items()
                              if k not in PATH_FLAGS}
    text = json.dumps(stripped, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def _metric_problems(tag, metrics, names):
    return [f"{tag} {name} is {metrics.get(name)!r}, not a finite number"
            for name in names if not _finite(metrics.get(name))]


FIVE_METRICS = ("accuracy", "balanced_accuracy", "equal_opportunity_diff",
                "average_odds_diff", "theil_index")


def n_train(rows):
    return rows - 2 * (rows // 5)


class Workload:
    """Inputs, ingest and operation of one workload.

    op(i) returns (units, report, examples, quality, problems): units is
    the number of operations in the sense of the `ops` metric (one
    repetition, grid point or scoring call), quality the pair (test
    balanced accuracy, test |EOD|) and problems the failed output checks.
    """

    def __init__(self, name, size, work, seed):
        self.name = name
        self.cfg = SIZES[size][name]
        self.work = Path(work)
        self.seed = seed
        # proxy-train: (p_proxy, p_informative, EOD, baseline EOD) per variant
        self.outcomes = {}

    # -- inputs ---------------------------------------------------------
    @property
    def csv(self):
        return self.work / ("bank.csv" if self.name == "bank-score" else "german.csv")

    @property
    def checkpoint(self):
        return self.work / "bank-checkpoint.json"

    def prepare(self):
        import inputs
        if self.name in ("credit-compare", "credit-tune"):
            inputs.write_german_csv(self.csv, self.cfg["rows"], self.seed)
        elif self.name == "bank-score":
            inputs.write_bank_csv(self.csv, self.cfg["rows"], self.seed)
            self._train_checkpoint(inputs)

    def _train_checkpoint(self, inputs):
        from fairsel.checkpoint import save_model
        from fairsel.data import DatasetSpec, load_csv, prepare_splits
        from fairsel.training import TrainConfig, train
        path = inputs.write_bank_csv(self.work / "bank-train.csv",
                                     self.cfg["train_rows"], CHECKPOINT_SEED)
        spec = DatasetSpec.from_json(SPECS / "bank.json")
        tr, va, _ = prepare_splits(load_csv(path, spec), spec, CHECKPOINT_SEED)
        epochs = self.cfg["train_epochs"]
        config = TrainConfig(alpha_phi=1e-3, max_epochs=epochs, patience=epochs,
                             seed=CHECKPOINT_SEED, hidden_sizes=self.cfg["hidden"])
        save_model(self.checkpoint, train(tr, va, config), tr.encoder)

    def ingest(self):
        """The public calls the operation makes first."""
        import fairsel.cli as cli
        import fairsel.data as data
        from fairsel.checkpoint import load_model
        if self.name == "proxy-train":
            seed = cli.derive_seed(self.seed, 0)
            data.split(data.synth_proxy(self.cfg["n"], 0.95, seed), seed)
        elif self.name == "bank-score":
            _, _, encoder = load_model(self.checkpoint)
            encoder.transform(data.load_csv(self.csv, encoder.spec))
        else:
            spec = data.DatasetSpec.from_json(SPECS / "german.json")
            data.prepare_splits(data.load_csv(self.csv, spec), spec, 0)

    # -- operations -----------------------------------------------------
    def op(self, i, variant):
        return getattr(self, "_op_" + self.name.replace("-", "_"))(i, variant)

    def _op_proxy_train(self, i, variant):
        # acceptance criterion 6, one repetition, through the library API
        import fairsel.baseline as baseline
        import fairsel.cli as cli
        import fairsel.data as data
        import fairsel.report as rpt
        import fairsel.training as training
        from fairsel.checkpoint import KIND_ADVERSARIAL, KIND_LOGISTIC
        seed = cli.derive_seed(self.seed, variant)
        epochs = self.cfg["epochs"]
        tr, va, te = data.split(data.synth_proxy(self.cfg["n"], 0.95, seed), seed)
        config = training.TrainConfig(
            alpha_theta=1.5, alpha_phi=1e-3, batch_size=128, max_epochs=epochs,
            patience=epochs, seed=seed, hidden_sizes=self.cfg["hidden"],
            score_baseline=True)
        model = training.train(tr, va, config)
        base = baseline.train_logistic(tr, va, epochs=400, lr=0.5)
        adv = rpt.evaluate_model(KIND_ADVERSARIAL, model, te, sensitivity_seed=seed)
        ref = rpt.evaluate_model(KIND_LOGISTIC, base, te, sensitivity_seed=seed)
        p = [float(v) for v in model.selection_probabilities]
        report = {"seed": seed, "adversarial": adv, "baseline": ref,
                  "selection_probabilities": p, "best_epoch": model.best_epoch,
                  "epochs_run": len(model.training_log),
                  "diagnostics": model.diagnostics}
        problems = _metric_problems("adversarial", adv, FIVE_METRICS + ("mean_sensitivity",))
        problems += _metric_problems("baseline", ref, FIVE_METRICS)
        if model.diagnostics is not None:
            problems.append(f"training diverged: {model.diagnostics}")
        if report["epochs_run"] != epochs:
            problems.append(f"ran {report['epochs_run']} of {epochs} epochs")
        if not problems:
            self.outcomes[variant] = (p[1], p[2], adv["equal_opportunity_diff"],
                                      ref["equal_opportunity_diff"])
        quality = (adv.get("balanced_accuracy"), adv.get("equal_opportunity_diff"))
        return 1, report, tr.n * report["epochs_run"], quality, problems

    def outcome_problems(self):
        """Criterion 6 over the run's distinct repetitions.

        Criterion 6 is a claim about repetitions, not each one: it asks
        for proxy < 0.5 < informative and an EOD below the baseline's in
        at least 4 of 5. About 1 repetition in 45 misses it (the proxy's
        probability ends just above 0.5, or its EOD above the
        baseline's), so the check is on the means of the run's
        repetitions: the proxy is selected less often than the
        informative feature, and the EOD is below the baseline's.
        """
        if not self.outcomes:
            return []
        p_proxy, p_info, eod, eod_base = (
            sum(column) / len(self.outcomes) for column in zip(*self.outcomes.values()))
        tag = f"over {len(self.outcomes)} repetitions"
        problems = []
        if not p_proxy < p_info:
            problems.append(f"mean selection p_proxy={p_proxy:.3f} not below "
                            f"p_informative={p_info:.3f} {tag}")
        if not eod < eod_base:
            problems.append(f"mean EOD {eod:.3f} not below the baseline's "
                            f"{eod_base:.3f} {tag}")
        return problems

    def outcome_summary(self):
        """How many of the run's repetitions meet criterion 6 one by one."""
        held = sum(pp < 0.5 < pi and e < eb for pp, pi, e, eb in self.outcomes.values())
        return f"criterion 6 holds in {held} of {len(self.outcomes)} repetitions"

    def units(self):
        return len(self.cfg["grid"].split(",")) if self.name == "credit-tune" else 1

    def _cli(self, argv, out):
        import jsonschema
        import fairsel.cli as cli
        import fairsel.report as rpt
        code = cli.main([str(a) for a in argv] + ["--out", str(out)])
        if code != 0:
            return None, [f"fairsel {argv[0]} exited with {code}"]
        report_path = out / "report.json" if out.suffix != ".json" else out
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        try:
            rpt.validate_report(report)
        except jsonschema.ValidationError as exc:
            return report, [f"report fails its schema: {exc.message}"]
        return report, []

    def _op_credit_compare(self, i, variant):
        epochs = self.cfg["epochs"]
        out = self.work / f"out{i}"
        report, problems = self._cli(
            ["compare", "--data", self.csv, "--spec", SPECS / "german.json",
             "--seed", variant, "--reps", 1, "--max-epochs", epochs,
             "--patience", epochs, "--alpha-phi", "1e-3",
             "--hidden", self.cfg["hidden"]], out)
        shutil.rmtree(out, ignore_errors=True)
        if report is None:
            return 1, None, 0, (None, None), problems
        rep = report["repetitions"][0]
        if rep["diagnostics"] is not None:
            problems.append(f"training diverged: {rep['diagnostics']}")
        if rep["epochs_run"] != epochs:
            problems.append(f"ran {rep['epochs_run']} of {epochs} epochs")
        problems += _metric_problems("adversarial", rep["adversarial"], FIVE_METRICS)
        adv = rep["adversarial"]
        quality = (adv["balanced_accuracy"], adv["equal_opportunity_diff"])
        return 1, report, n_train(self.cfg["rows"]) * rep["epochs_run"], quality, problems

    def _op_credit_tune(self, i, variant):
        epochs = self.cfg["epochs"]
        out = self.work / f"out{i}"
        report, problems = self._cli(
            ["tune", "--data", self.csv, "--spec", SPECS / "german.json",
             "--seed", variant, "--reps", self.cfg["reps"], "--max-epochs", epochs,
             "--patience", epochs, "--alpha-phi", "1e-3",
             "--hidden", self.cfg["hidden"], "--grid", self.cfg["grid"]], out)
        shutil.rmtree(out, ignore_errors=True)
        if report is None:
            return self.units(), None, 0, (None, None), problems
        entries = report["grid"]
        if len(entries) != self.units():
            problems.append(f"{len(entries)} grid points reported, {self.units()} asked")
        selected = [e["sensitivity_weight"] for e in entries if e["selected"]]
        if selected != [report["best"]["sensitivity_weight"]]:
            problems.append(f"selected {selected}, best {report['best']}")
        for e in entries:
            means = {name: e["test"][name]["mean"] for name in FIVE_METRICS}
            problems += _metric_problems(f"grid {e['sensitivity_weight']}", means,
                                         FIVE_METRICS)
        quality = tuple(
            _mean([e["test"][name]["mean"] for e in entries])
            for name in ("balanced_accuracy", "equal_opportunity_diff"))
        examples = self.units() * self.cfg["reps"] * n_train(self.cfg["rows"]) * epochs
        return self.units(), report, examples, quality, problems

    def _op_bank_score(self, i, variant):
        out = self.work / f"evaluate{i}.json"
        report, problems = self._cli(
            ["evaluate", "--checkpoint", self.checkpoint, "--data", self.csv,
             "--seed", variant], out)
        out.unlink(missing_ok=True)
        if report is None:
            return 1, None, 0, (None, None), problems
        if report["n_rows"] != self.cfg["rows"]:
            problems.append(f"scored {report['n_rows']} of {self.cfg['rows']} rows")
        problems += _metric_problems("evaluate", report["metrics"],
                                     FIVE_METRICS + ("mean_sensitivity",))
        m = report["metrics"]
        quality = (m["balanced_accuracy"], m["equal_opportunity_diff"])
        return 1, report, report["n_rows"], quality, problems

    def guard_training(self):
        """credit-tune trains in pool workers, and its report carries no
        per-repetition diagnostics: check every model where the CLI
        receives it. Forked workers inherit this wrapper."""
        if self.name != "credit-tune":
            return
        import functools
        import fairsel.cli as cli
        train, epochs = cli.train, self.cfg["epochs"]

        @functools.wraps(train)
        def checked_train(*args, **kwargs):
            model = train(*args, **kwargs)
            if model.diagnostics is not None or len(model.training_log) != epochs:
                raise RuntimeError(f"training ran {len(model.training_log)} of "
                                   f"{epochs} epochs: {model.diagnostics}")
            return model

        cli.train = checked_train


def _mean(values):
    # sorted, so the mean does not depend on completion order
    return math.fsum(sorted(values)) / len(values) if values else None


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Yardstick:
    """Fixed numpy work timed next to every operation.

    The machines this runs on share their cores with other tenants, and
    their speed drifts by tens of percent within a minute. An operation's
    wall time divided by the yardstick's, timed just before and just
    after it, cancels most of that drift. The yardstick is a numpy-only
    stand-in for the workload's numerics (see YARDSTICKS): the same
    layer shapes and batch size, the same per-batch mix of forward passes,
    gradient products and small Python-level steps, so that contention
    slows both alike, and it runs in as many processes as the workload
    (FAIRSEL_THREADS). It shares no code with fairsel, so a change to
    fairsel moves only the operation's side of the ratio. It must never
    change, or the ratios of older runs stop being comparable.
    """

    def __init__(self, d, hidden, rows, steps=0, scoring=0, batch=128, procs=1):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(20190909)
        sizes = [d, *hidden, 2]
        self.ws = [rng.normal(0, i ** -0.5, size=(o, i))
                   for i, o in zip(sizes[:-1], sizes[1:])]
        self.bs = [np.zeros(o) for o in sizes[1:]]
        self.x = rng.random((rows, d))
        self.rng = rng
        self.steps, self.scoring, self.batch = steps, scoring, batch
        self.pool, self.procs = None, procs
        if procs > 1:
            import multiprocessing
            self.pool = multiprocessing.get_context("fork").Pool(
                procs, initializer=_start_yardstick,
                initargs=((d, hidden, rows, steps, scoring, batch),))

    def close(self):
        if self.pool is not None:
            self.pool.close()
            self.pool.join()

    def _acts(self, x):
        np = self.np
        acts = [x]
        for i, (w, b) in enumerate(zip(self.ws, self.bs)):
            z = acts[-1] @ w.T + b
            if i == len(self.ws) - 1:
                e = np.exp(z - z.max(axis=1, keepdims=True))
                acts.append(e / e.sum(axis=1, keepdims=True))
            else:
                acts.append(np.where(z > 0, 1.0507 * z, 1.7581 * np.expm1(z)))
        return acts

    def _grads(self, x, g):
        np = self.np
        acts = self._acts(x)
        p = acts[-1]
        delta = p * (g - (g * p).sum(axis=1, keepdims=True))
        grads = []
        for i in range(len(self.ws) - 1, -1, -1):
            grads.append(delta.T @ acts[i])
            if i:
                delta = (delta @ self.ws[i]) * np.where(acts[i] > 0, 1.0507, acts[i] + 1.7581)
        return grads[::-1]

    def __call__(self):
        """Seconds one pass of the fixed work takes (in every process)."""
        if self.pool is None:
            return self.work()
        t0 = time.perf_counter()
        self.pool.map(_yardstick_pass, range(self.procs))
        return time.perf_counter() - t0

    def work(self):
        np = self.np
        t0 = time.perf_counter()
        n, d = self.x.shape
        p = np.full(d, 0.5)
        m = [np.zeros_like(w) for w in self.ws]
        for step in range(self.steps):
            lo = (step * self.batch) % max(1, n - self.batch)
            xb = self.x[lo:lo + self.batch]
            xs = xb * (self.rng.random(xb.shape) < p)
            xw = xs.copy()
            xw[:, 0] = xb[:, 0]
            diff = self._acts(xw)[-1] - self._acts(xs)[-1]
            norms = np.linalg.norm(diff, axis=1)
            p = np.clip(p + 0.01 * (norms[:, None] * (xs > 0)).mean(axis=0), 0.05, 0.95)
            for x in (xs, xw):
                for k, g in enumerate(self._grads(x, diff)):
                    if not np.isfinite(g).all():
                        raise FloatingPointError("yardstick gradient is not finite")
                    m[k] = 0.9 * m[k] + 0.1 * g
        for _ in range(self.scoring):
            self._acts(self.x)
        return time.perf_counter() - t0


_pool_yardstick = None  # set only in the processes of a yardstick pool


def _start_yardstick(shape):
    global _pool_yardstick
    _pool_yardstick = Yardstick(*shape)


def _yardstick_pass(_):
    return _pool_yardstick.work()


# yardstick shapes per workload: (input width, hidden layers, rows,
# training steps, scoring passes), each a fifth to a third of a second
YARDSTICKS = {
    "proxy-train": (5, (32, 32), 3000, 400, 0),
    "credit-compare": (55, (200, 200, 200, 200), 600, 15, 0),
    "bank-score": (51, (200, 200, 200, 200), 5000, 0, 2),
    "credit-tune": (55, (32, 32), 600, 200, 0),
}


def run_ops(workload, seconds, min_ops, max_ops, quality_ops, tracer=None):
    """Operations until `seconds` have passed and at least `min_ops` ran,
    never more than `max_ops`, each between two yardstick passes."""
    yardstick = Yardstick(*YARDSTICKS[workload.name],
                          procs=int(os.environ.get("FAIRSEL_THREADS", "1")))
    try:
        return _run_ops(workload, seconds, min_ops, max_ops, quality_ops, tracer,
                        yardstick)
    finally:
        yardstick.close()


def _run_ops(workload, seconds, min_ops, max_ops, quality_ops, tracer, yardstick):
    ops, digests, batches = [], [], []
    yardstick()  # first touch of the arrays and BLAS buffers
    ref_before = yardstick()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < max_ops and (i < min_ops or time.perf_counter() < deadline):
        variant = i % quality_ops
        t0 = time.perf_counter()
        try:
            units, report, examples, quality, problems = workload.op(i, variant)
        except Exception as exc:  # the operation failed; count it and go on
            traceback.print_exc()
            units, report, examples, quality = workload.units(), None, 0, (None, None)
            problems = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        ref_after = yardstick()
        ref, ref_before = (ref_before + ref_after) / 2, ref_after
        if tracer is not None:
            batches.append(tracer.take())
        d = digest(report) if report is not None else None
        if i >= quality_ops and d != digests[variant]:
            problems.append(f"report differs from operation {variant}, "
                            "which had the same inputs")
        digests.append(d)
        ops.append({"index": i, "variant": variant, "wall_s": wall, "ref_s": ref,
                    "units": units, "examples": examples, "quality": quality,
                    "digest": d, "problems": problems})
        i += 1
    return ops, batches


# one span per module entry point; a module whose span is missing did not run
MODULE_SPANS = ("data.load_csv", "data.encode", "selector.sample", "nets.forward",
                "nets.backward", "nets.adam", "training.train", "training.predict",
                "training.mean_sensitivity", "baseline.train", "metrics.call",
                "report.write", "checkpoint.save", "checkpoint.load", "cli.rep")


def layer_metrics(batches, first_op_batches, pool_starts, wall_total):
    """Per-module metrics from the traced operations (see BENCHMARK.json
    per_layer); also names the modules that did not run."""
    from spans import summarize, train_readouts
    s = summarize(b for op in batches for b in op)

    def get(name, key="s"):
        return float(s[name][key]) if name in s else 0.0

    fwd_s, bwd_s = get("nets.forward"), get("nets.backward")
    gflop = (get("nets.forward", "flop") + get("nets.backward", "flop")) / 1e9
    examples = get("training.selector_step", "rows")
    step_fwd = get("nets.forward", "step_rows") + get("nets.backward", "step_rows")
    readouts = train_readouts(first_op_batches)
    m = {
        "data.load_csv_s": get("data.load_csv"),
        "data.encode_s": get("data.encode"),
        "data.rows_loaded": get("data.load_csv", "rows"),
        "data.rows_rejected": get("data.load_csv", "rejected"),
        "selector.sample_calls": get("selector.sample", "calls"),
        "selector.sample_s": get("selector.sample"),
        "nets.forward_calls": get("nets.forward", "calls"),
        "nets.forward_s": fwd_s,
        "nets.backward_calls": get("nets.backward", "calls"),
        "nets.backward_s": bwd_s,
        "nets.adam_calls": get("nets.adam", "calls"),
        "nets.adam_s": get("nets.adam"),
        "nets.gflop": gflop,
        "nets.gflop_per_s": gflop / (fwd_s + bwd_s) if fwd_s + bwd_s > 0 else 0.0,
        "nets.activation_mb": (get("nets.forward", "act_bytes")
                               + get("nets.backward", "act_bytes")) / 1e6,
        "nets.activation_peak_mb": max(get("nets.forward", "act_peak_bytes"),
                                       get("nets.backward", "act_peak_bytes")) / 1e6,
        "training.selector_step_s": get("training.selector_step"),
        "training.predictor_step_s": get("training.predictor_step"),
        "training.train_self_s": get("training.train", "self_s"),
        "training.batches": get("training.selector_step", "calls"),
        "training.epochs": get("training.train", "epochs"),
        "training.forward_rows_per_example": step_fwd / examples if examples else 0.0,
        "training.backward_rows_per_example":
            get("nets.backward", "step_rows") / examples if examples else 0.0,
        "training.predict_s": get("training.predict"),
        "training.mean_sensitivity_s": get("training.mean_sensitivity"),
        "training.final_ce": _mean([r[0] for r in readouts]) or 0.0,
        "training.final_sensitivity": _mean([r[1] for r in readouts]) or 0.0,
        "baseline.train_s": get("baseline.train"),
        "metrics.calls": get("metrics.call", "calls"),
        "metrics.s": get("metrics.call"),
        "report.evaluate_model_s": get("report.evaluate_model"),
        "report.write_s": get("report.write"),
        "checkpoint.save_s": get("checkpoint.save"),
        "checkpoint.bytes": get("checkpoint.save", "bytes"),
        "checkpoint.load_s": get("checkpoint.load"),
        "cli.train_calls": get("training.train", "cli_calls"),
        "cli.pool_starts": float(pool_starts),
        "cli.concurrency": get("training.train", "cli_s") / wall_total,
    }
    idle = [f"{name} did not run" for name in MODULE_SPANS if name not in s]
    if pool_starts and not get("cli.rep", "calls"):
        idle.append("pool workers sent no spans (they were not forked)")
    return m, idle


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("prepare", "setup", "run"))
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--max-ops", type=int, default=10 ** 6)
    ap.add_argument("--quality-ops", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = Workload(args.workload, args.size, args.work, args.seed)

    if args.mode == "prepare":
        workload.prepare()
        return 0

    t0 = time.perf_counter()
    import fairsel.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    if args.mode == "setup":
        workload.ingest()
        t2 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "ingest_s": t2 - t1}))
        return 0

    workload.guard_training()
    tracer = None
    if args.trace:
        from spans import Tracer, instrument
        spill = Path(args.work) / "spans"
        spill.mkdir(exist_ok=True)
        tracer = Tracer(spill)
        instrument(tracer)
    ops, batches = run_ops(workload, args.seconds, args.min_ops, args.max_ops,
                           args.quality_ops, tracer)
    import numpy as np
    for op in ops[:args.quality_ops]:
        op["problems"] += workload.outcome_problems()
    first = [op["quality"] for op in ops[:args.quality_ops]]
    result = {"ops": ops, "peak_rss_mb": peak_rss_mb(),
              "test_balanced_accuracy": _mean([q[0] for q in first if q[0] is not None]),
              "test_abs_eod": _mean([q[1] for q in first if q[1] is not None]),
              "numpy": np.__version__, "blas": _blas_config(np)}
    if workload.outcomes:
        result["outcome"] = workload.outcome_summary()
    if tracer is not None:
        wall_total = sum(op["wall_s"] for op in ops)
        result["per_layer"], result["idle"] = layer_metrics(
            batches, batches[0], tracer.pool_starts, wall_total)
    with open(Path(args.work) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _blas_config(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        return None


if __name__ == "__main__":
    sys.exit(main())
