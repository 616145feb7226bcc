"""Adversarial training of the selector/predictor pair.

Each mini-batch plays one round of the game around one paired forward
pass: sample a selection vector per example, run the predictor on the
selected input and on the selected input plus the sensitive feature
(`sensitivity_pair`), and read both players' updates off that pair. The
selector pushes its logits up the score-function gradient of the
pair's sensitivity norms; the predictor takes an Adam step down the
gradient of (sensitivity_weight * sensitivity + cross-entropy) computed
from the same pair (`pair_loss_and_grads`). The selector maximizes
sensitivity, the predictor minimizes it while keeping classification
accuracy, so at convergence the chosen features carry little
information the sensitive feature could add.

Training is deterministic given the config seed: identical runs produce
bit-identical logs and parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericalError
from .metrics import GroupedOutcomes, balanced_accuracy
from .nets import (PROB_FLOOR, AdamState, DenseNet, adam_step, backward,
                   forward)
from .selector import (SelectorPolicy, enumerate_selections, probabilities,
                       sample_selection_batch)

INFERENCE_POLICIES = ("threshold05", "expected-input", "mc-average")

# sensitivity norms below this are treated as exactly zero (the norm is
# not differentiable there; zero is a valid subgradient)
NORM_EPS = 1e-12

# selections per chunk in score_function_estimate (bounds its memory)
ESTIMATE_CHUNK = 20000


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run.

    patience is clamped to max_epochs so the invariant
    patience <= max_epochs always holds. Field order is the checkpoint's
    key order (`dataclasses.asdict`).
    """

    alpha_theta: float = 1e-4
    alpha_phi: float = 1e-4
    batch_size: int = 128
    max_epochs: int = 200
    patience: int = 20
    sensitivity_weight: float = 1.0
    seed: int = 0
    inference_policy: str = "threshold05"
    mc_samples: int = 32
    hidden_sizes: tuple = (200, 200, 200, 200)
    mask_sensitive: bool = True
    score_baseline: bool = False

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not (0 < self.alpha_theta < math.inf and 0 < self.alpha_phi < math.inf):
            raise ValueError("learning rates must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if self.patience < 0:
            raise ValueError("patience must be nonnegative")
        if not 0 <= self.sensitivity_weight < math.inf:
            raise ValueError("sensitivity_weight must be nonnegative and finite")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")
        if self.inference_policy not in INFERENCE_POLICIES:
            raise ValueError(f"inference_policy must be one of {INFERENCE_POLICIES}, "
                             f"got {self.inference_policy!r}")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be a nonempty tuple of positive ints")
        self.patience = min(int(self.patience), self.max_epochs)


@dataclass
class EpochRecord:
    prediction_loss: float
    sensitivity: float
    val_balanced_accuracy: float


@dataclass
class TrainedModel:
    net: DenseNet
    policy: SelectorPolicy
    config: TrainConfig
    training_log: list = field(default_factory=list)
    best_epoch: int = -1
    diagnostics: str = None

    @property
    def selection_probabilities(self):
        return probabilities(self.policy)


def apply_selection(x, s):
    """Zero out unselected features: out_j = x_j if s_j = 1 else 0."""
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(s)
    if x.shape[-1] != s.shape[-1]:
        raise DimensionError("selection vector", x.shape[-1], s.shape[-1])
    return x * s


class SensitivityPair(NamedTuple):
    """The predictor's output on the selected input and on the selected
    input plus the sensitive feature, for one batch of selections."""

    S: np.ndarray       # (n, d) sampled selections
    x_sel: np.ndarray   # selected input
    x_with: np.ndarray  # selected input with feature k added
    p_sel: np.ndarray   # forward(net, x_sel)
    diff: np.ndarray    # forward(net, x_with) - p_sel
    norms: np.ndarray   # per-row Euclidean length of diff


def sensitivity_pair(net, X, S, k):
    """Run the paired forward pass of one batch of input rows X (n, d)
    under selection rows S (n, d): every sensitivity norm and every
    predictor gradient is read off this pair."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or np.shape(S) != X.shape:
        raise DimensionError("input and selection rows", "two (n, d) arrays",
                             (X.shape, np.shape(S)))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    x_sel = apply_selection(X, S)
    x_with = x_sel.copy()
    x_with[:, k] = X[:, k]
    p_sel = forward(net, x_sel)
    diff = forward(net, x_with) - p_sel
    return SensitivityPair(S, x_sel, x_with, p_sel, diff,
                           np.linalg.norm(diff, axis=1))


def selector_step(policy, X, net, alpha_theta, rng, baseline=None):
    """One gradient-ascent step on the selector logits.

    Samples one selection per row of the batch X (n, d), scores each by
    its sensitivity norm,
    and moves the logits along the batch-mean score-function estimate
    norm * (s - p). Returns (updated policy, sensitivity pair) so the
    paired predictor step reuses the same samples and forward pass.

    baseline, if given, is subtracted from the norms before weighting
    (variance reduction; leaves the expected update unchanged).
    """
    p = probabilities(policy)
    S = sample_selection_batch(p, X.shape[0], rng)
    pair = sensitivity_pair(net, X, S, policy.sensitive_index)
    if not np.isfinite(pair.norms).all():
        raise NumericalError("sensitivity estimate is non-finite; aborting epoch")
    coeff = pair.norms - baseline if baseline is not None else pair.norms
    grad = (coeff[:, None] * (S - p)).mean(axis=0)
    if not np.isfinite(grad).all():
        raise NumericalError("selector gradient estimate is non-finite; aborting epoch")
    return policy.with_logits(policy.logits + alpha_theta * grad), pair


def pair_loss_and_grads(net, pair, Y, sensitivity_weight, ce_weight=1.0,
                        fault=None):
    """Batch-mean predictor loss and its exact parameter gradients, read
    off a pair that `sensitivity_pair` computed on `net`.

    Y holds one one-hot label row per pair row. Loss per example:
    sensitivity_weight * ||sensitivity diff|| plus
    ce_weight * cross-entropy on the selected input; ce_weight=0 gives
    the sensitivity-only half of the adversarial objective. Examples
    whose sensitivity norm is below NORM_EPS contribute a zero
    sensitivity gradient (valid subgradient at the kink).

    Returns (loss, grads, mean cross-entropy, mean sensitivity norm).

    fault is a test hook for the gradient checker; "sen-grad-sign" flips
    the sign of the sensitivity gradient term without touching the loss.
    """
    p_sel, diff, norms = pair.p_sel, pair.diff, pair.norms
    if np.shape(Y) != p_sel.shape:
        raise DimensionError("label rows", p_sel.shape, np.shape(Y))
    n = p_sel.shape[0]

    p_true = np.maximum((p_sel * Y).sum(axis=1), PROB_FLOOR)
    ce = -np.log(p_true)
    loss = float(np.mean(sensitivity_weight * norms + ce_weight * ce))

    unit = np.zeros_like(diff)
    active = norms > NORM_EPS
    unit[active] = diff[active] / norms[active, None]
    if fault == "sen-grad-sign":
        unit = -unit

    grad_with = (sensitivity_weight / n) * unit
    grad_sel = (-(sensitivity_weight / n) * unit
                - ce_weight * (Y / np.maximum(p_sel, PROB_FLOOR)) / n)
    grads_a = backward(net, pair.x_with, grad_with)
    grads_b = backward(net, pair.x_sel, grad_sel)
    grads = [ga + gb for ga, gb in zip(grads_a, grads_b)]
    return loss, grads, float(ce.mean()), float(norms.mean())


def predictor_step(net, pair, Y, adam_state, alpha_phi, sensitivity_weight):
    """One Adam descent step on the composite predictor loss.

    Must be fed the pair of the paired selector step, computed on this
    same net. Returns (updated net, updated adam state, mean
    cross-entropy, mean sensitivity norm).
    """
    _, grads, ce_mean, sens_mean = pair_loss_and_grads(
        net, pair, Y, sensitivity_weight)
    params, adam_state = adam_step(net.params(), grads, adam_state, alpha_phi)
    return net.with_params(params), adam_state, ce_mean, sens_mean


def _predict_probs(net, policy, config, X, rng):
    p = probabilities(policy)
    k = policy.sensitive_index
    if config.inference_policy == "threshold05":
        s_det = (p >= 0.5).astype(np.float64)
        s_det[k] = 0.0
        return forward(net, X * s_det)
    if config.inference_policy == "expected-input":
        return forward(net, X * p)
    # mc-average
    acc = np.zeros((X.shape[0], net.num_classes))
    for _ in range(config.mc_samples):
        S = sample_selection_batch(p, X.shape[0], rng)
        acc += forward(net, apply_selection(X, S))
    return acc / config.mc_samples


def predict(model, X, rng=None):
    """Predicted classes (n,) and probability rows (n, c) for a batch of
    input rows X (n, d) under the model's inference policy.

    Ties break toward the lower class index. For the mc-average policy
    an rng may be passed; otherwise a generator derived from the config
    seed is used, so repeated calls give identical output.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.net.input_dim:
        raise DimensionError("input", f"(n, {model.net.input_dim})", X.shape)
    if rng is None:
        rng = np.random.default_rng([model.config.seed, 0x9E3779B9])
    probs = _predict_probs(model.net, model.policy, model.config, X, rng)
    return probs.argmax(axis=1), probs


def mean_sensitivity(net, policy, X, n_samples=16, rng=None):
    """Monte-Carlo estimate of the expected sensitivity norm over the
    selection distribution, averaged over the rows of X (n, d)."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    X = np.asarray(X, dtype=np.float64)
    p = probabilities(policy)
    total = 0.0
    for _ in range(n_samples):
        S = sample_selection_batch(p, X.shape[0], rng)
        total += sensitivity_pair(net, X, S, policy.sensitive_index).norms.mean()
    return total / n_samples


def enumerate_sensitivity(net, policy, x):
    """Exact expected sensitivity norm and its logit gradient for one
    input, by enumerating every selection vector.

    Oracle-grade reference for the sampled estimates; only sensible for
    small feature counts.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    p = probabilities(policy)
    masked = policy.sensitive_index if policy.mask_sensitive else None
    S_all = enumerate_selections(d, masked_index=masked)
    pi = np.prod(np.where(S_all == 1, p, 1.0 - p), axis=1)
    X_rep = np.broadcast_to(x, (S_all.shape[0], d))
    norms = sensitivity_pair(net, X_rep, S_all, policy.sensitive_index).norms
    expected = float(np.dot(pi, norms))
    grad = ((pi * norms)[:, None] * (S_all - p)).sum(axis=0)
    return expected, grad


def score_function_estimate(net, policy, x, n_samples, rng):
    """Monte-Carlo estimate of the logit gradient of the expected
    sensitivity norm for one input: mean of norm * (s - p) over sampled
    selections. The sampled counterpart of `enumerate_sensitivity`."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    x = np.asarray(x, dtype=np.float64)
    p = probabilities(policy)
    total = np.zeros_like(p)
    remaining = n_samples
    while remaining > 0:
        m = min(ESTIMATE_CHUNK, remaining)
        S = sample_selection_batch(p, m, rng)
        X_rep = np.broadcast_to(x, (m, x.shape[0]))
        norms = sensitivity_pair(net, X_rep, S, policy.sensitive_index).norms
        total += (norms[:, None] * (S - p)).sum(axis=0)
        remaining -= m
    return total / n_samples


def _validation_score(net, policy, config, val_data, epoch):
    rng = np.random.default_rng([config.seed, 1, epoch])
    probs = _predict_probs(net, policy, config, val_data.features, rng)
    return balanced_accuracy(GroupedOutcomes(
        val_data.labels.argmax(axis=1), probs.argmax(axis=1), val_data.group_tags))


def train(train_data, val_data, config):
    """Run the adversarial training loop and return the model from the
    best validation epoch.

    Stops early once validation balanced accuracy has not improved for
    `config.patience` epochs. If the optimization produces non-finite
    values, the run aborts, the parameters from the last finished epoch
    are returned, and the diagnostics field says why.

    Validation is scored by `metrics.balanced_accuracy`, so a
    validation split that lacks a class raises DegenerateGroupError.
    """
    X, Y = train_data.features, train_data.labels
    k = train_data.sensitive_index
    n, d = X.shape

    rng = np.random.default_rng(config.seed)
    net = DenseNet.initialize(d, config.hidden_sizes, Y.shape[1], rng)
    policy = SelectorPolicy.initialize(d, k, rng,
                                       mask_sensitive=config.mask_sensitive)
    adam = AdamState.for_params(net.params())

    log = []
    best = None  # (score, epoch, net, policy)
    baseline = None
    diagnostics = None

    for epoch in range(config.max_epochs):
        epoch_start = (net, policy, adam)
        order = rng.permutation(n)
        ce_sum = sens_sum = 0.0
        try:
            for lo in range(0, n, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                policy, pair = selector_step(
                    policy, X[idx], net, config.alpha_theta, rng,
                    baseline=baseline if config.score_baseline else None)
                net, adam, ce_mean, sens_mean = predictor_step(
                    net, pair, Y[idx], adam,
                    config.alpha_phi, config.sensitivity_weight)
                if config.score_baseline:
                    m = float(pair.norms.mean())
                    baseline = m if baseline is None else 0.9 * baseline + 0.1 * m
                ce_sum += ce_mean * len(idx)
                sens_sum += sens_mean * len(idx)
        except NumericalError as exc:
            net, policy, adam = epoch_start
            diagnostics = f"training aborted during epoch {epoch}: {exc}"
            break

        val_score = _validation_score(net, policy, config, val_data, epoch)
        log.append(EpochRecord(ce_sum / n, sens_sum / n, val_score))
        if best is None or val_score > best[0]:
            best = (val_score, epoch, net, policy)
        elif epoch - best[1] >= config.patience:
            break

    if diagnostics is not None or best is None:
        # diverged (keep last finite parameters) or never trained
        return TrainedModel(net, policy, config, log, -1, diagnostics)
    _, best_epoch, best_net, best_policy = best
    return TrainedModel(best_net, best_policy, config, log, best_epoch, None)
