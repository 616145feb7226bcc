"""Run reports: metric evaluation, aggregation and serialization.

Reports are dicts with a fixed field order and a schema version; bump
REPORT_SCHEMA_VERSION whenever a field is added, removed or renamed.
Wall-clock fields (any key starting with "wall_clock") are the only
nondeterministic content, so byte-level reproducibility checks strip
them first.
"""

from __future__ import annotations

import json
import math

import jsonschema
import numpy as np

from . import metrics as M
from .baseline import predict_logistic_batch
from .checkpoint import KIND_ADVERSARIAL, KIND_LOGISTIC
from .errors import DataError
from .selector import sigmoid
from .training import mean_sensitivity, predict

REPORT_SCHEMA_VERSION = 3

METRIC_NAMES = ("accuracy", "balanced_accuracy", "equal_opportunity_diff",
                "average_odds_diff", "theil_index", "mean_sensitivity")

_METRICS_SCHEMA = {
    "type": "object",
    "properties": {name: {"type": "number"} for name in METRIC_NAMES},
    "required": list(METRIC_NAMES),
}

_AGGREGATE_SCHEMA = {
    "type": "object",
    "properties": {name: {
        "type": "object",
        "properties": {"mean": {"type": "number"}, "std": {"type": "number"}},
        "required": ["mean", "std"],
    } for name in METRIC_NAMES},
    "required": list(METRIC_NAMES),
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "command": {"enum": ["train", "evaluate", "compare", "tune"]},
        "config": {"type": "object"},
        "master_seed": {"type": "integer"},
    },
    "required": ["schema_version", "command", "config", "master_seed"],
    "allOf": [
        {
            # compare is train plus the baseline
            "if": {"properties": {"command": {"enum": ["train", "compare"]}}},
            "then": {
                "required": ["repetitions", "aggregate"],
                "properties": {
                    "repetitions": {"type": "array", "items": {
                        "type": "object",
                        "required": ["index", "seed", "adversarial",
                                     "selection_probabilities", "checkpoints"],
                        "properties": {"adversarial": _METRICS_SCHEMA,
                                       "baseline": _METRICS_SCHEMA},
                    }},
                    "aggregate": {
                        "type": "object",
                        "required": ["adversarial"],
                        "properties": {"adversarial": _AGGREGATE_SCHEMA,
                                       "baseline": _AGGREGATE_SCHEMA},
                    },
                },
            },
        },
        {
            "if": {"properties": {"command": {"const": "compare"}}},
            "then": {"properties": {
                "repetitions": {"items": {"required": ["baseline"]}},
                "aggregate": {"required": ["baseline"]}}},
        },
        {
            "if": {"properties": {"command": {"const": "evaluate"}}},
            "then": {
                "required": ["model_kind", "metrics"],
                "properties": {"metrics": _METRICS_SCHEMA},
            },
        },
        {
            "if": {"properties": {"command": {"const": "tune"}}},
            "then": {
                "required": ["grid", "best"],
                "properties": {"grid": {"type": "array", "items": {
                    "type": "object",
                    "required": ["sensitivity_weight",
                                 "validation_balanced_accuracy", "selected"],
                }}},
            },
        },
    ],
}


def validate_report(report):
    """Check a report against the published schema; raises the error
    jsonschema.validate would. The schema itself is checked by the tests,
    not on every call."""
    validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    error = jsonschema.exceptions.best_match(validator.iter_errors(report))
    if error is not None:
        raise error


# sensitivity_seed is ignored: perfbench still passes it (ROADMAP item 7)
def evaluate_model(kind, model, dataset, sensitivity_seed=None):
    """All report metrics for one model on one encoded dataset.

    mean_sensitivity is the row mean of the norm of the change in the
    model's probability row when the sensitive value is restored to the
    input the model deploys; it is deterministic for both model kinds.
    """
    if dataset.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    X = dataset.features
    if kind == KIND_ADVERSARIAL:
        y_pred, _ = predict(model, X)
        sens = mean_sensitivity(model.net, model.policy, X)
    elif kind == KIND_LOGISTIC:
        y_pred, probs = predict_logistic_batch(model, X)
        k = dataset.sensitive_index
        # both entries of the row (1 - p, p) move by |p - p_zeroed|
        zeroed = sigmoid(X @ model.weights + model.bias - model.weights[k] * X[:, k])
        sens = math.sqrt(2) * float(np.abs(probs - zeroed).mean())
    else:
        raise ValueError(f"unknown model kind {kind!r}")

    outcomes = dataset.outcomes(y_pred)
    return {
        "accuracy": M.accuracy(outcomes),
        "balanced_accuracy": M.balanced_accuracy(outcomes),
        "equal_opportunity_diff": M.equal_opportunity_diff(outcomes),
        "average_odds_diff": M.average_odds_diff(outcomes),
        "theil_index": M.theil_index(outcomes),
        "mean_sensitivity": sens,
    }


def aggregate(per_rep):
    """Mean and sample standard deviation per metric across repetitions."""
    out = {}
    for name in METRIC_NAMES:
        arr = np.asarray([r[name] for r in per_rep], dtype=np.float64)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        out[name] = {"mean": float(arr.mean()), "std": std}
    return out


def base_report(command, config_echo, master_seed):
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "config": config_echo,
        "master_seed": master_seed,
    }


def render_report(report):
    """A report, validated, as JSON text."""
    validate_report(report)
    return json.dumps(report, indent=2)


def write_report(report, path):
    text = render_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def strip_wall_clock(obj):
    """Copy of a report with every wall-clock field removed (reports are
    byte-identical across reruns only after this)."""
    if isinstance(obj, dict):
        return {k: strip_wall_clock(v) for k, v in obj.items()
                if not k.startswith("wall_clock")}
    if isinstance(obj, list):
        return [strip_wall_clock(v) for v in obj]
    return obj
