"""Prediction-quality and group-fairness metrics.

All metrics operate on binary outcomes (favorable label = 1) tagged
with a privileged / unprivileged group flag. Degenerate inputs (a group
missing the class a rate needs) raise DegenerateGroupError rather than
silently reporting zero, because a silent zero would fake fairness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateGroupError, DimensionError


@dataclass
class GroupedOutcomes:
    """True labels, predicted labels and group membership, row-aligned.

    Labels are 0/1 with 1 the favorable outcome; privileged is a boolean
    flag per record.
    """

    y_true: np.ndarray
    y_pred: np.ndarray
    privileged: np.ndarray

    def __post_init__(self):
        y_true, y_pred = np.asarray(self.y_true), np.asarray(self.y_pred)
        self.privileged = np.asarray(self.privileged, dtype=bool)
        n = y_true.shape[0]
        if y_pred.shape != (n,) or self.privileged.shape != (n,):
            raise DimensionError("outcome arrays", (n,),
                                 (y_pred.shape, self.privileged.shape))
        # checked before the cast, which would truncate 0.9 to 0
        for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
            if not ((arr == 0) | (arr == 1)).all():
                raise DataError(f"{name} must contain only 0/1 labels")
        self.y_true = y_true.astype(np.int64, copy=False)
        self.y_pred = y_pred.astype(np.int64, copy=False)

    def __len__(self):
        return self.y_true.shape[0]


def _rates(y_true, y_pred, label, group):
    """The TPR (label 1) or TNR (label 0) of each row of 0/1 predicted
    labels y_pred (m, n) against the labels y_true (n,) of group's
    records, as (m,) float64."""
    actual = y_true == label
    n = int(np.count_nonzero(actual))
    if n == 0:
        raise DegenerateGroupError(
            f"{group} has no {'positive' if label else 'negative'} "
            f"(label {label}) examples")
    return np.count_nonzero(y_pred[:, actual] == label, axis=1) / n


def _rate(outcomes, label, privileged):
    """The TPR (label 1) or TNR (label 0) of the privileged (True) or
    unprivileged (False) group."""
    mask = outcomes.privileged == privileged
    group = "privileged group" if privileged else "unprivileged group"
    return float(_rates(outcomes.y_true[mask], outcomes.y_pred[None, mask], label, group)[0])


def _require_nonempty(outcomes):
    if len(outcomes) == 0:
        raise DataError("metric requires at least one outcome record")


def _require_groups(outcomes):
    _require_nonempty(outcomes)
    if not outcomes.privileged.any():
        raise DegenerateGroupError("privileged group is empty")
    if outcomes.privileged.all():
        raise DegenerateGroupError("unprivileged group is empty")


def accuracy(outcomes):
    """Fraction of records classified correctly."""
    _require_nonempty(outcomes)
    return float((outcomes.y_true == outcomes.y_pred).mean())


def balanced_accuracies(y_true, y_pred):
    """Balanced accuracy, the mean of the true positive and true negative
    rates, of each row of 0/1 predicted labels y_pred (m, n) against the
    0/1 labels y_true (n,), as (m,) float64. Labels that lack a class
    raise DegenerateGroupError, even when y_pred has no rows."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape[0] == 0:
        raise DataError("metric requires at least one outcome record")
    return 0.5 * (_rates(y_true, y_pred, 1, "population")
                  + _rates(y_true, y_pred, 0, "population"))


def balanced_accuracy(outcomes):
    """Average of true positive rate and true negative rate."""
    return float(balanced_accuracies(outcomes.y_true, outcomes.y_pred[None])[0])


def equal_opportunity_diff(outcomes):
    """Absolute gap in true positive rate between the groups."""
    _require_groups(outcomes)
    return abs(_rate(outcomes, 1, True) - _rate(outcomes, 1, False))


def average_odds_diff(outcomes):
    """Absolute average odds difference in its standard (AIF360) form,
    |(TPR_p - TPR_u) + (FPR_p - FPR_u)| / 2: the gaps add up when one
    group gets more favorable predictions on both labels."""
    _require_groups(outcomes)
    tpr_p, tpr_u = _rate(outcomes, 1, True), _rate(outcomes, 1, False)
    fpr_p, fpr_u = 1 - _rate(outcomes, 0, True), 1 - _rate(outcomes, 0, False)
    return 0.5 * abs((tpr_p - tpr_u) + (fpr_p - fpr_u))


def theil_index(outcomes):
    """Generalized-entropy (alpha = 1) dispersion of per-record benefits.

    Benefit b_i = predicted_i - true_i + 1, so a correct prediction
    scores 1, a false positive 2 and a false negative 0. Returns
    (1/n) * sum (b_i/mu) ln(b_i/mu) with 0 ln 0 = 0; zero means every
    record received the same benefit.
    """
    _require_nonempty(outcomes)
    b = outcomes.y_pred - outcomes.y_true + 1
    mu = float(b.mean())
    if mu == 0.0:
        raise DataError("Theil index undefined: zero mean benefit "
                        "(every record is a false negative)")
    ratios = b / mu
    terms = np.where(b > 0, ratios * np.log(np.where(b > 0, ratios, 1.0)), 0.0)
    return float(terms.mean())
