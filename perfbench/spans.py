"""Span tracing for the benchmark's traced runs.

`instrument` replaces public fairsel functions with timing wrappers at
the place where their callers look them up (for example
`fairsel.training.forward`, because `training` imports the name from
`nets`). Each call records a span: name, start, end, parent span and a
few counts taken from its arguments or result. Spans stay in memory and
are summarised when the benchmark asks; nothing inside the program is
changed.

Pool workers forked by the CLI inherit the wrappers. A worker starts a
fresh span list and, whenever one of its top-level spans ends, appends
the finished spans to a file under the spill directory, which the
benchmark process reads back after each operation.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _rows(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _layer_macs(net):
    return sum(w.shape[0] * w.shape[1] for w in net.weights)


def _widths(net):
    return [w.shape[0] for w in net.weights]


def _forward_counts(args, kwargs, result):
    net, rows = args[0], _rows(args[1])
    return {"rows": rows, "flop": 2 * rows * _layer_macs(net),
            "act_bytes": 8 * rows * sum(_widths(net)),
            "act_peak_bytes": 8 * rows * max(_widths(net))}


def _backward_counts(args, kwargs, result):
    # backward recomputes the forward pass (2 flop per MAC), then takes
    # the weight and input gradients (2 more matmuls, 4 flop per MAC)
    net, rows = args[0], _rows(args[1])
    return {"rows": rows, "flop": 6 * rows * _layer_macs(net),
            "act_bytes": 8 * rows * sum(_widths(net)),
            "act_peak_bytes": 8 * rows * max(_widths(net))}


def _batch_counts(args, kwargs, result):
    return {"rows": _rows(args[1])}


def _train_counts(args, kwargs, result):
    log = result.training_log
    counts = {"epochs": len(log)}
    if log:
        counts["final_ce"] = float(log[-1].prediction_loss)
        counts["final_sensitivity"] = float(log[-1].sensitivity)
    return counts


def _load_csv_counts(args, kwargs, result):
    return {"rows": int(result.n_rows), "rejected": int(result.n_rejected)}


def _save_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# ("module:attribute", span name, counts taken from the call)
PATCHES = [
    ("fairsel.cli:load_csv", "data.load_csv", _load_csv_counts),
    ("fairsel.data:Encoder.fit", "data.encode", None),
    ("fairsel.data:Encoder.transform", "data.encode", None),
    ("fairsel.training:sample_selection_batch", "selector.sample", None),
    ("fairsel.training:forward", "nets.forward", _forward_counts),
    ("fairsel.training:backward", "nets.backward", _backward_counts),
    ("fairsel.training:adam_step", "nets.adam", None),
    ("fairsel.training:selector_step", "training.selector_step", _batch_counts),
    ("fairsel.training:predictor_step", "training.predictor_step", None),
    ("fairsel.training:train", "training.train", _train_counts),
    ("fairsel.cli:train", "training.train", _train_counts),
    ("fairsel.training:predict", "training.predict", None),
    ("fairsel.report:predict", "training.predict", None),
    ("fairsel.cli:predict", "training.predict", None),
    ("fairsel.report:mean_sensitivity", "training.mean_sensitivity", None),
    ("fairsel.baseline:train_logistic", "baseline.train", None),
    ("fairsel.cli:train_logistic", "baseline.train", None),
    ("fairsel.metrics:accuracy", "metrics.call", None),
    ("fairsel.metrics:balanced_accuracy", "metrics.call", None),
    ("fairsel.metrics:equal_opportunity_diff", "metrics.call", None),
    ("fairsel.metrics:average_odds_diff", "metrics.call", None),
    ("fairsel.metrics:theil_index", "metrics.call", None),
    ("fairsel.baseline:balanced_accuracy", "metrics.call", None),
    ("fairsel.cli:balanced_accuracy", "metrics.call", None),
    ("fairsel.report:evaluate_model", "report.evaluate_model", None),
    ("fairsel.report:write_report", "report.write", None),
    ("fairsel.cli:save_model", "checkpoint.save", _save_counts),
    ("fairsel.cli:load_model", "checkpoint.load", None),
    ("fairsel.cli:_train_one_rep", "cli.rep", None),
    ("fairsel.cli:_tune_point", "cli.rep", None),
]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, spill_dir):
        self.main_pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.pool_starts = 0
        self._restart()

    def _restart(self):
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent index, counts]
        self.stack = []

    def wrap(self, name, fn, counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._restart()  # forked worker: drop the parent's spans
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            if not tracer.stack and tracer.pid != tracer.main_pid:
                tracer._spill()
            return result

        return traced

    def _spill(self):
        with open(self.spill_dir / f"{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def take(self):
        """Span lists recorded since the last call, one per process batch:
        this process's spans plus every batch a worker spilled."""
        batches = [self.spans] if self.spans else []
        self.spans = []
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                batches.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        return batches


def instrument(tracer):
    """Install the wrappers of PATCHES, one wrapper per distinct function,
    and count the process pools the CLI starts."""
    wrappers = {}
    for target, name, counts in PATCHES:
        mod_name, path = target.split(":")
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(name, fn, counts)
        wrapped = wrappers[id(fn)]
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.pool_starts += 1
            super().__init__(*args, **kwargs)

    concurrent.futures.ProcessPoolExecutor = CountingPool


STEP_SPANS = {"training.selector_step", "training.predictor_step"}


def summarize(batches):
    """Per-name totals over span batches.

    Each name gets calls, inclusive seconds `s`, self seconds `self_s`
    (duration minus the time its child spans cover) and its summed
    counts (the largest value for `*peak*` counts). `step_rows` sums the
    rows of spans nested in a selector or predictor step; `cli_calls` and
    `cli_s` count and time the spans nested in a CLI repetition.
    """
    out = defaultdict(lambda: defaultdict(float))
    for spans in batches:
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                agg[key] = max(agg[key], value) if "peak" in key else agg[key] + value
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            if counts and "rows" in counts and ancestors & STEP_SPANS:
                agg["step_rows"] += counts["rows"]
            if "cli.rep" in ancestors:
                agg["cli_calls"] += 1
                agg["cli_s"] += end - start
    return out


def train_readouts(batches):
    """(final_ce, final_sensitivity) of every training.train span."""
    return [(c["final_ce"], c["final_sensitivity"])
            for spans in batches for name, _, _, _, c in spans
            if name == "training.train" and c and "final_ce" in c]
