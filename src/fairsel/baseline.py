"""Reference model: logistic regression on all features.

The comparison baseline deliberately uses every feature, including the
sensitive one, so fairness gaps of the adversarial model can be read
against an unconstrained learner. Trained by full-batch gradient
descent on binary cross-entropy; parameters from the epoch with the
best validation balanced accuracy are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .metrics import balanced_accuracy
from .selector import sigmoid


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise NumericalError("non-finite logistic parameters")
        self.bias = float(self.bias)


def logistic_loss_and_grad(weights, bias, X, y):
    """Mean binary cross-entropy and its exact gradient."""
    z = X @ weights + bias
    p = sigmoid(z)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(np.maximum(p, eps))
                          + (1 - y) * np.log(np.maximum(1 - p, eps))))
    resid = p - y
    grad_w = X.T @ resid / X.shape[0]
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


def train_logistic(train_data, val_data, *, epochs=500, lr=0.1):
    """Fit by full-batch gradient descent; keep the best-validation
    parameters. Deterministic (zero initialization, convex loss)."""
    # written so that NaN fails every comparison
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if not 0 < lr < np.inf:
        raise ValueError("lr must be positive and finite")
    X = train_data.features
    y = train_data.labels
    w = np.zeros(X.shape[1])
    b = 0.0

    best = (-np.inf, w.copy(), b)
    for _ in range(epochs):
        loss, gw, gb = logistic_loss_and_grad(w, b, X, y)
        if not (np.isfinite(loss) and np.isfinite(gw).all() and np.isfinite(gb)):
            raise NumericalError(
                f"logistic training diverged (loss={loss}); lower the learning rate")
        w = w - lr * gw
        b = b - lr * gb
        labels, _ = predict_logistic_batch(LogisticModel(w, b), val_data.features)
        score = balanced_accuracy(val_data.outcomes(labels))
        if score > best[0]:
            best = (score, w.copy(), b)
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
