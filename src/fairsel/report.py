"""Run reports: metric evaluation, aggregation and serialization.

Every model, adversarial or baseline, is a net and the columns it keeps,
and `evaluate_model` scores both by the same paired pass.
Reports are dicts with a fixed field order and a schema version; bump
REPORT_SCHEMA_VERSION whenever a field is added, removed or renamed.
Wall-clock fields (any key starting with "wall_clock") are the only
nondeterministic content, so byte-level reproducibility checks strip
them first.
"""

from __future__ import annotations

import json

import jsonschema
import numpy as np

from . import metrics as M
from .errors import DataError
from .training import mean_sensitivity, predict  # perfbench patches predict here

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


# kind and sensitivity_seed are ignored: perfbench still passes them
# (ROADMAP item 7)
def evaluate_model(kind, model, dataset, sensitivity_seed=None):
    """All report metrics for one deployed model (a net and the columns
    it keeps) on one encoded dataset.

    The labels and mean_sensitivity come from one paired pass: the row
    mean of the norm of the change in the model's probability row when
    the sensitive value is restored to the kept input, and the argmax of
    each deployed probability row (ties go to class 0, as in `predict`).
    """
    if dataset.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    sens, probs = mean_sensitivity(model.net, model.kept, dataset.sensitive_index,
                                   dataset.features)
    y_pred = probs.argmax(axis=1)

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
