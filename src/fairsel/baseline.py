"""Reference model: logistic regression on all features.

The comparison baseline deliberately uses every feature, including the
sensitive one, so fairness gaps of the adversarial model can be read
against an unconstrained learner. Trained by full-batch gradient
descent on binary cross-entropy; the parameters kept are those of the
first epoch with the highest validation balanced accuracy, scored in
blocks of EPOCH_BLOCK epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
# perfbench/spans.py times calls made through this module's balanced_accuracy
from .metrics import balanced_accuracies, balanced_accuracy  # noqa: F401
from .selector import sigmoid

# epochs whose validation labels are scored in one balanced-accuracy call
EPOCH_BLOCK = 64


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise NumericalError("non-finite logistic parameters")
        self.bias = float(self.bias)


def logistic_grad(weights, bias, X, y):
    """The exact gradient (grad_w, grad_b) of the mean binary
    cross-entropy, and the probabilities it was read off."""
    p = sigmoid(X @ weights + bias)
    resid = p - y
    # sum() / n is what np.mean computes, without its Python wrapper
    return X.T @ resid / X.shape[0], float(resid.sum() / X.shape[0]), p


def logistic_loss_and_grad(weights, bias, X, y):
    """Mean binary cross-entropy and its exact gradient."""
    grad_w, grad_b, p = logistic_grad(weights, bias, X, y)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(np.maximum(p, eps))
                          + (1 - y) * np.log(np.maximum(1 - p, eps))))
    return loss, grad_w, grad_b


def train_logistic(train_data, val_data, *, epochs=500, lr=0.1):
    """Fit by full-batch gradient descent; keep the parameters of the
    first epoch with the highest validation balanced accuracy, scoring
    the labels of EPOCH_BLOCK epochs in one call. Deterministic (zero
    initialization, convex loss). A validation split that lacks a class
    raises DegenerateGroupError before the first epoch."""
    # written so that NaN fails every comparison
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if not 0 < lr < np.inf:
        raise ValueError("lr must be positive and finite")
    X, y = train_data.features, train_data.labels
    Xv, yv = val_data.features, val_data.labels
    balanced_accuracies(yv, np.empty((0, yv.shape[0])))  # checks yv's classes
    w, b = np.zeros(X.shape[1]), 0.0

    labels = np.empty((min(epochs, EPOCH_BLOCK), Xv.shape[0]), dtype=bool)
    params = np.empty((labels.shape[0], X.shape[1] + 1))
    best = (-np.inf, w, b)
    for epoch in range(epochs):
        gw, gb, _ = logistic_grad(w, b, X, y)
        w = w - lr * gw
        b = b - lr * gb
        # a non-finite gradient leaves non-finite parameters too
        if not (np.isfinite(w).all() and math.isfinite(b)):
            raise NumericalError("logistic training diverged; lower the learning rate")
        slot = epoch % EPOCH_BLOCK
        np.greater_equal(sigmoid(Xv @ w + b), 0.5, out=labels[slot])
        params[slot, :-1], params[slot, -1] = w, b
        if slot == labels.shape[0] - 1 or epoch == epochs - 1:
            scores = balanced_accuracies(yv, labels[:slot + 1])
            i = int(scores.argmax())
            if scores[i] > best[0]:
                best = (scores[i], params[i, :-1].copy(), float(params[i, -1]))
    _, w, b = best
    return LogisticModel(w, b)


def predict_logistic_batch(model, X):
    """(labels, probabilities) for a batch of inputs; probability 0.5
    predicts the favorable label."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise DimensionError("input", f"(n, {model.weights.shape[0]})", X.shape)
    probs = sigmoid(X @ model.weights + model.bias)
    return (probs >= 0.5).astype(np.int64), probs
