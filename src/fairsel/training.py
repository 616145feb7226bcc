"""Adversarial training of the selector/predictor pair.

Each mini-batch plays one round of the game around one paired forward
pass: sample a selection vector per example (the sensitive feature is
always masked out of it), run the predictor on the selected input and,
where adding the sensitive feature changes it, on the selected input
plus that feature (`sensitivity_pair`), and read both players' updates
off that pair. The selector pushes its logits up the score-function
gradient of the pair's sensitivity norms; the predictor takes an Adam
step down the gradient of (sensitivity_weight * sensitivity +
cross-entropy) computed from the same pair (`pair_loss_and_grads`).
The selector maximizes sensitivity, the predictor minimizes it while
keeping classification accuracy, so at convergence the chosen features
carry little information the sensitive feature could add.

The predictor trains in float32 (`train` casts the net, the input rows
and the one-hot labels once per run); the selector logits, its
score-function gradient, the sensitivity means and every metric stay
float64. Training is deterministic given the config seed: identical runs
produce bit-identical logs and parameters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, DimensionError, NumericalError
from .metrics import balanced_accuracies, balanced_accuracy
from .nets import (PROB_FLOOR, AdamState, DenseNet, adam_step, backward,
                   check_rows, forward, layer_outputs, reduce_classes)
from .selector import (SelectorPolicy, log_pi_grad, probabilities,
                       sample_selection_batch)

# sensitivity norms below this are treated as exactly zero (the norm is
# not differentiable there; zero is a valid subgradient). It is absolute,
# so float32's resolution near 1 (1.2e-7) does not bear on it: a float32
# norm above 1e-12 is a sum of c squares, the largest at least 1e-24 / c,
# a normal float32 number (the smallest is 1.2e-38), so the norm and
# diff / norm keep full float32 precision
NORM_EPS = 1e-12

# rows per paired pass in mean_sensitivity (which also gives the scored
# rows' labels): bounds the cached layer outputs when a whole evaluation
# set is scored. The labels' bits depend on it, not on the rows alone
# (README, Metrics). One pass over 5,000x51
# bank-shaped rows (86% of them change when the sensitive value is
# restored, so the stack holds up to 1.86x the block), random float32
# 4x200 net, one BLAS thread, 2-core Xeon (2 MB L2 per core), median of
# 15 runs with the values interleaved, by SENSITIVITY_BLOCK:
# 96: 61 ms, 128: 58 ms, 160: 57 ms, 192: 56 ms, 224: 79 ms, 256: 77 ms
# The step past 192 (about 400 stacked rows) costs 40%; 128 stays below
# it even when every row changes.
SENSITIVITY_BLOCK = 128


def builtin_number(name, value, integer, positive):
    """value as its builtin int (integer) or float, which float32
    arithmetic takes at float32 (NEP 50); a numpy scalar passes. A bool,
    a float for an integer, a value not above 0 (positive) or below 0, or
    a real that is not finite is a ValueError that names name."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        number = (int if integer else float)(value)
    except OverflowError:  # an integer past float range
        number = math.inf if value > 0 else -math.inf
    if not ((0 < number if positive else 0 <= number) and number < math.inf):
        bound = ("positive" if positive else "nonnegative") + ("" if integer else " and finite")
        raise ValueError(f"{name} must be {bound}, got {number}")
    return number


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run.

    patience is clamped to max_epochs so the invariant
    patience <= max_epochs always holds.
    """

    alpha_theta: float = 1e-4
    alpha_phi: float = 1e-4
    batch_size: int = 128
    max_epochs: int = 200
    patience: int = 20
    sensitivity_weight: float = 1.0
    seed: int = 0
    hidden_sizes: tuple = (200, 200, 200, 200)
    score_baseline: bool = False

    def __post_init__(self):
        # a np.float64 alpha_phi would make Adam's float32 step *= lr
        # compute in float64 and move the trained bits
        for name, integer, positive in (
                ("alpha_theta", False, True), ("alpha_phi", False, True),
                ("batch_size", True, True), ("max_epochs", True, False),
                ("patience", True, False), ("sensitivity_weight", False, False),
                ("seed", True, False)):
            setattr(self, name, builtin_number(name, getattr(self, name), integer, positive))
        if not isinstance(self.score_baseline, bool):
            raise ValueError(f"score_baseline must be true or false, "
                             f"got {self.score_baseline!r}")
        if not (isinstance(self.hidden_sizes, (list, tuple)) and self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be a nonempty list, "
                             f"got {self.hidden_sizes!r}")
        self.hidden_sizes = tuple(builtin_number(f"hidden_sizes[{i}]", h, True, True)
                                  for i, h in enumerate(self.hidden_sizes))
        self.patience = min(self.patience, self.max_epochs)


@dataclass
class EpochRecord:
    prediction_loss: float
    sensitivity: float
    val_balanced_accuracy: float


@dataclass
class TrainedModel:
    """A deployed model: a net and the columns it reads (`kept`). The
    adversarial model also holds its selector; a model without one (the
    logistic baseline) reads every column."""

    net: DenseNet
    policy: SelectorPolicy = None
    training_log: list = field(default_factory=list)
    best_epoch: int = -1
    diagnostics: str = None

    @property
    def selection_probabilities(self):
        return probabilities(self.policy)

    @property
    def kept(self):
        """The columns (d,) the model reads: threshold05, selection probability >= 1/2."""
        if self.policy is None:
            return np.ones(self.net.input_dim, dtype=bool)
        return probabilities(self.policy) >= 0.5


class SensitivityPair(NamedTuple):
    """The predictor's output on the selected input and on the selected
    input plus the sensitive feature, for one batch of selections. Only
    rows where adding the feature changes the input run a second time;
    every other row's sensitivity is exactly zero."""

    changed: np.ndarray  # (m,) indices of the rows adding feature k changes
    rows: np.ndarray     # (n + m, d): X * S, then those m rows with k added
    outputs: list        # layer_outputs(net, rows)
    p_sel: np.ndarray    # (n, c) probability rows of the first half
    diff: np.ndarray     # (n, c) second half minus p_sel; 0 on unchanged rows
    norms: np.ndarray    # (n,) per-row Euclidean length of diff


def sensitivity_pair(net, X, S, k):
    """Run the paired forward pass of one batch of input rows X (n, d)
    under selection rows S (n, d) as one stacked pass: every sensitivity
    norm and every predictor gradient is read off this pair.

    A row whose selection already holds feature k, or zeroes a feature
    value that is 0, has the same input in both halves; it runs once."""
    X = np.asarray(X, dtype=net.theta.dtype)
    if X.ndim != 2 or np.shape(S) != X.shape:
        raise DimensionError("input and selection rows", "two (n, d) arrays",
                             (X.shape, np.shape(S)))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    n = X.shape[0]
    selected = X * S
    changed = np.flatnonzero(selected[:, k] != X[:, k])
    rows = np.concatenate([selected, selected[changed]])
    rows[n:, k] = X[changed, k]
    outputs = layer_outputs(net, rows)
    p_sel = outputs[-1][:n]
    diff = np.zeros(p_sel.shape, p_sel.dtype)
    diff[changed] = outputs[-1][n:] - p_sel[changed]
    # np.linalg.norm(diff, axis=1), the same bits
    return SensitivityPair(changed, rows, outputs, p_sel, diff,
                           np.sqrt(reduce_classes(np.add, diff * diff)))


def selector_step(policy, X, net, alpha_theta, rng, baseline=None):
    """One gradient-ascent step on the selector logits.

    Samples one selection per row of the batch X (n, d), scores each by
    its sensitivity norm, and moves the logits along the batch mean of
    norm * log_pi_grad. Returns (updated policy, sensitivity pair) so the
    paired predictor step reuses the same samples and forward pass.

    baseline, if given, is subtracted from the norms before weighting
    (variance reduction; leaves the expected update unchanged).
    """
    p = probabilities(policy)
    S = sample_selection_batch(p, X.shape[0], rng)
    pair = sensitivity_pair(net, X, S, policy.sensitive_index)
    if not np.isfinite(pair.norms).all():
        raise NumericalError("sensitivity estimate is non-finite; aborting epoch")
    norms = pair.norms.astype(np.float64, copy=False)
    coeff = norms - baseline if baseline is not None else norms
    # sum(axis=0) / n is what mean(axis=0) computes, without its wrapper
    grad = (coeff[:, None] * log_pi_grad(p, S)).sum(axis=0) / S.shape[0]
    if not np.isfinite(grad).all():
        raise NumericalError("selector gradient estimate is non-finite; aborting epoch")
    logits = policy.logits + alpha_theta * grad
    # the shape and index are the policy's: only an overflow can fail __post_init__
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite selector logits")
    stepped = object.__new__(SelectorPolicy)
    stepped.logits, stepped.sensitive_index = logits, policy.sensitive_index
    return stepped, pair


def pair_loss_and_grads(net, pair, Y, sensitivity_weight, ce_weight=1.0):
    """Batch-mean predictor loss and its exact parameter gradients, read
    off a pair that `sensitivity_pair` computed on `net`.

    Y holds one one-hot label row per pair row. Loss per example:
    sensitivity_weight * ||sensitivity diff|| plus
    ce_weight * cross-entropy on the selected input; ce_weight=0 gives
    the sensitivity-only half of the adversarial objective. Examples
    whose sensitivity norm is below NORM_EPS contribute a zero
    sensitivity gradient (valid subgradient at the kink); rows the pair
    ran once, whose norm is exactly 0, give `backward` no second row.

    Returns (loss, gradient laid out like net.theta, mean cross-entropy,
    mean sensitivity norm). The loss is formed from the two means in
    Python floats, so its last bit may differ from the per-example mean's.
    """
    p_sel, diff, norms = pair.p_sel, pair.diff, pair.norms
    if np.shape(Y) != p_sel.shape:
        raise DimensionError("label rows", p_sel.shape, np.shape(Y))
    n = p_sel.shape[0]

    p_true = np.maximum(reduce_classes(np.add, p_sel * Y), PROB_FLOOR)
    ce = -np.log(p_true)
    # sum() / n, in the rows' dtype, is np.mean without its Python wrapper
    ce_mean, sens_mean = float(ce.sum() / n), float(norms.sum() / n)

    unit = np.divide(diff, norms[:, None], out=np.zeros(diff.shape, diff.dtype),
                     where=(norms > NORM_EPS)[:, None])

    grad_with = (sensitivity_weight / n) * unit[pair.changed]
    grad_sel = (-(sensitivity_weight / n) * unit
                - ce_weight * (Y / np.maximum(p_sel, PROB_FLOOR)) / n)
    grad = backward(net, pair.rows, pair.outputs, np.concatenate([grad_sel, grad_with]))
    return sensitivity_weight * sens_mean + ce_weight * ce_mean, grad, ce_mean, sens_mean


def predictor_step(net, pair, Y, adam_state, alpha_phi, sensitivity_weight):
    """One Adam descent step on the composite predictor loss, in place on
    net and adam_state (`adam_step`).

    Must be fed the pair of the paired selector step, computed on this
    same net. Returns (net, adam state, mean cross-entropy, mean
    sensitivity norm).
    """
    _, grad, ce_mean, sens_mean = pair_loss_and_grads(net, pair, Y, sensitivity_weight)
    net, adam_state = adam_step(net, grad, adam_state, alpha_phi)
    return net, adam_state, ce_mean, sens_mean


def predict(model, X):
    """Predicted classes (n,) and probability rows (n, c), in the net's
    dtype (float32 for a trained model), for a batch of input rows X
    (n, d) reduced to the model's kept columns. Ties break toward the
    lower class index."""
    probs = forward(model.net, check_rows(model.net, X) * model.kept)
    return probs.argmax(axis=1), probs


def mean_sensitivity(net, kept, k, X):
    """The deployed model's sensitivity and probability rows, from one
    paired pass over the input rows X (n, d) reduced to the columns kept
    (d,) with the sensitive column k cleared: the float64 row mean of the
    norm of the change in the probability row when the sensitive value is
    restored, and the deployed rows (n, c) in the net's dtype, which are
    the restored half where kept[k] holds. Run in blocks of
    SENSITIVITY_BLOCK rows."""
    X = np.asarray(X, dtype=net.theta.dtype)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    selected = np.array(kept, dtype=bool)
    selected[k] = False
    S = np.broadcast_to(selected, (X.shape[0], selected.size))
    norms, probs = [], []
    for lo in range(0, X.shape[0], SENSITIVITY_BLOCK):
        pair = sensitivity_pair(net, X[lo:lo + SENSITIVITY_BLOCK],
                                S[lo:lo + SENSITIVITY_BLOCK], k)
        if kept[k]:  # deploy the restored half; the pair is not read again
            pair.p_sel[pair.changed] = pair.outputs[-1][len(pair.p_sel):]
        norms.append(pair.norms)
        probs.append(pair.p_sel)
    return float(np.concatenate(norms).mean(dtype=np.float64)), np.concatenate(probs)


def train(train_data, val_data, config):
    """Run the adversarial training loop and return the model from the
    best validation epoch.

    Stops early once validation balanced accuracy has not improved for
    `config.patience` epochs. If the optimization produces non-finite
    values, the run aborts, the parameters from the last finished epoch
    are returned, and the diagnostics field says why.

    Each epoch is scored by `predict`'s balanced accuracy on val_data; a
    split that lacks a class raises DegenerateGroupError, and a training
    split with no rows DataError, before epoch 0.
    """
    balanced_accuracies(val_data.labels, np.empty((0, val_data.n)))  # checks the classes
    if train_data.n == 0:
        raise DataError("the training split has no rows")
    X = train_data.features.astype(np.float32)
    Y = np.eye(2, dtype=np.float32)[train_data.labels]
    k = train_data.sensitive_index
    n, d = X.shape

    rng = np.random.default_rng(config.seed)
    net = DenseNet.initialize(d, config.hidden_sizes, Y.shape[1], rng)
    # drawn in float64 and rounded, so the draws after it do not change
    net = DenseNet(net.sizes, net.theta.astype(np.float32))
    policy = SelectorPolicy.initialize(d, k, rng)
    adam = AdamState.for_net(net)

    log = []
    best = None  # (score, epoch, net, policy)
    baseline = None
    diagnostics = None

    for epoch in range(config.max_epochs):
        # a selector step returns a fresh policy, and the Adam moments are
        # not read after a rollback, so only the parameters are copied
        theta_start, policy_start = net.theta.copy(), policy
        order = rng.permutation(n)
        # gathered once per epoch: each batch is a slice view of these
        X_epoch, Y_epoch = X[order], Y[order]
        ce_sum = sens_sum = 0.0
        try:
            for batch, lo in enumerate(range(0, n, config.batch_size)):
                X_batch = X_epoch[lo:lo + config.batch_size]
                policy, pair = selector_step(
                    policy, X_batch, net, config.alpha_theta, rng,
                    baseline=baseline if config.score_baseline else None)
                net, adam, ce_mean, sens_mean = predictor_step(
                    net, pair, Y_epoch[lo:lo + config.batch_size], adam,
                    config.alpha_phi, config.sensitivity_weight)
                if config.score_baseline:
                    baseline = (sens_mean if baseline is None
                                else 0.9 * baseline + 0.1 * sens_mean)
                ce_sum += ce_mean * len(X_batch)
                sens_sum += sens_mean * len(X_batch)
        except NumericalError as exc:
            net, policy = DenseNet(net.sizes, theta_start), policy_start
            diagnostics = f"training aborted during epoch {epoch}, batch {batch}: {exc}"
            break

        val_score = balanced_accuracy(val_data.outcomes(
            predict(TrainedModel(net, policy), val_data.features)[0]))
        log.append(EpochRecord(ce_sum / n, sens_sum / n, val_score))
        if best is None or val_score > best[0]:
            best = (val_score, epoch, DenseNet(net.sizes, net.theta.copy()), policy)
        elif epoch - best[1] >= config.patience:
            break

    if diagnostics is not None or best is None:
        # diverged (keep last finite parameters) or never trained
        return TrainedModel(net, policy, log, -1, diagnostics)
    _, best_epoch, best_net, best_policy = best
    return TrainedModel(best_net, best_policy, log, best_epoch, None)
