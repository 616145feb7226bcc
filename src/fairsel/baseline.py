"""Reference model: logistic regression on all features.

The comparison baseline deliberately uses every feature, including the
sensitive one, so fairness gaps of the adversarial model can be read
against an unconstrained learner. `fit_logistic` trains it in float64 by
full-batch gradient descent on binary cross-entropy and keeps the
parameters of the first epoch with the highest validation balanced
accuracy, with every epoch's labels scored in one call. `train_logistic`
deploys that fit as the model every other model is: a float32 `(d, 2)`
softmax net with no hidden layer (`logistic_net`) that keeps every
column, so it is predicted, scored and saved by the same code as the
adversarial model.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
# perfbench/spans.py times calls made through this module's balanced_accuracy
from .metrics import balanced_accuracies, balanced_accuracy  # noqa: F401
from .nets import DenseNet
from .selector import sigmoid
from .training import TrainedModel, builtin_number


def logistic_grad(weights, bias, X, y):
    """The exact gradient (grad_w, grad_b) of the mean binary
    cross-entropy. It is also the gradient of `logistic_net(weights,
    bias)`'s mean softmax cross-entropy in its class-1 row."""
    resid = sigmoid(X @ weights + bias) - y
    # sum() / n is what np.mean computes, without its Python wrapper
    return X.T @ resid / X.shape[0], float(resid.sum() / X.shape[0])


def logistic_net(weights, bias):
    """The float64 `(d, 2)` softmax net of the logistic (weights, bias):
    class 0's logit is 0 and class 1's is x @ weights + bias, so its
    class-1 probability is the logistic's."""
    return DenseNet.from_layers([np.stack([np.zeros(len(weights)), weights])],
                                [np.array([0.0, bias])])


def fit_logistic(train_data, val_data, *, epochs, lr):
    """Fit (w, b) in float64 by full-batch gradient descent; keep the
    parameters of the first epoch with the highest validation balanced
    accuracy of the labels `x @ w + b > 0` (a tie is class 0, as in
    `predict`), scoring every epoch's labels in one call after the last.
    epochs is an integer and lr a real number, by `TrainConfig`'s rule.
    Deterministic (zero initialization, convex loss). A validation split
    that lacks a class raises DegenerateGroupError before the first epoch."""
    epochs, lr = builtin_number("epochs", epochs, True), builtin_number("lr", lr, False)
    # written so that NaN fails every comparison
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if not 0 < lr < np.inf:
        raise ValueError("lr must be positive and finite")
    X, y = train_data.features, train_data.labels
    Xv, yv = val_data.features, val_data.labels
    balanced_accuracies(yv, np.empty((0, yv.shape[0])))  # checks yv's classes
    w, b = np.zeros(X.shape[1]), 0.0
    labels = np.empty((epochs, Xv.shape[0]), dtype=bool)
    params = np.empty((epochs, X.shape[1] + 1))
    for epoch in range(epochs):
        gw, gb = logistic_grad(w, b, X, y)
        w = w - lr * gw
        b = b - lr * gb
        # a non-finite gradient leaves non-finite parameters too
        if not (np.isfinite(w).all() and math.isfinite(b)):
            raise NumericalError("logistic training diverged; lower the learning rate")
        np.greater(Xv @ w + b, 0.0, out=labels[epoch])
        params[epoch, :-1], params[epoch, -1] = w, b
    best = int(balanced_accuracies(yv, labels).argmax())  # the first of the best
    return params[best, :-1].copy(), float(params[best, -1])


def train_logistic(train_data, val_data, *, epochs=500, lr=0.1):
    """`fit_logistic`'s (w, b) as a deployed model: `logistic_net`
    rounded to float32, keeping every column."""
    net = logistic_net(*fit_logistic(train_data, val_data, epochs=epochs, lr=lr))
    return TrainedModel(DenseNet(net.sizes, net.theta.astype(np.float32)))
