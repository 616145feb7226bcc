"""Randomized self-checks of every analytic gradient and estimator.

Each check builds seeded random instances, compares an analytic
quantity against an independent oracle (central finite differences, or
exhaustive enumeration of selection vectors), and reports the worst
error seen (`nets.worst_error`, so a NaN error fails the check). The
CLI `gradcheck` command runs these; the test suite reuses them at the
tolerances they were designed for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import logistic_loss_and_grad
from .nets import DenseNet, grad_check, relative_error, worst_error
from .selector import (SelectorPolicy, enumerate_selections, log_pi_grad,
                       pi_prob, probabilities, sample_selection_batch, sigmoid)
from .training import (enumerate_sensitivity, pair_loss_and_grads,
                       score_function_estimate, sensitivity_pair)


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.worst_error = float(self.worst_error)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{status} {self.name}: worst error {self.worst_error:.3e} "
                f"vs tolerance {self.tolerance:.1e}{extra}")


def _gate(name, errors, tolerance):
    """Pass iff the worst error, NaN if any is NaN, is within tolerance."""
    worst = worst_error(errors)
    return CheckResult(name, worst <= tolerance, worst, tolerance)


def random_instance(rng, batch=3):
    """A small seeded net plus a batch of inputs, labels and selections.

    Biases are randomized: with the zero-bias initialization an
    all-zero selected input would place every pre-activation exactly on
    the SELU kink, where finite differences straddle the two branches
    and cannot agree with any one-sided derivative.
    """
    d = int(rng.integers(3, 7))
    c = int(rng.integers(2, 4))
    hidden = tuple(int(h) for h in rng.integers(4, 9, size=2))
    net = DenseNet.initialize(d, hidden, c, rng)
    net = DenseNet(net.weights, [rng.normal(0.0, 0.3, size=b.shape)
                                 for b in net.biases])
    k = int(rng.integers(0, d))
    X = rng.random((batch, d))
    Y = np.zeros((batch, c))
    Y[np.arange(batch), rng.integers(0, c, size=batch)] = 1.0
    S = (rng.random((batch, d)) < 0.5).astype(np.int8)
    S[:, k] = 0
    return net, X, Y, S, k


def _check_pair_gradients(name, n_instances, seed, tolerance, weights,
                          fault=None):
    """Worst finite-difference error of `pair_loss_and_grads` over seeded
    instances, at the (sensitivity_weight, ce_weight) that
    `weights(rng)` gives for each instance."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_instances):
        net, X, Y, S, k = random_instance(rng)
        sensitivity_weight, ce_weight = weights(rng)

        def lag(net_):
            pair = sensitivity_pair(net_, X, S, k)
            loss, grads, _, _ = pair_loss_and_grads(
                net_, pair, Y, sensitivity_weight, ce_weight, fault=fault)
            return loss, grads
        errors.append(grad_check(net, lag, tolerance=tolerance).max_rel_error)
    return _gate(name, errors, tolerance)


def check_prediction_gradients(n_instances=100, seed=0, tolerance=1e-4):
    """Cross-entropy parameter gradients vs central differences."""
    return _check_pair_gradients("prediction-loss gradient", n_instances,
                                 seed, tolerance, lambda rng: (0.0, 1.0))


def check_sensitivity_gradients(n_instances=100, seed=1, tolerance=1e-4,
                                fault=None):
    """Sensitivity-norm parameter gradients vs central differences."""
    return _check_pair_gradients("sensitivity-loss gradient", n_instances,
                                 seed, tolerance, lambda rng: (1.0, 0.0), fault)


def check_composite_gradients(n_instances=100, seed=2, tolerance=1e-4,
                              fault=None):
    """Combined training-loss gradients vs central differences."""
    return _check_pair_gradients(
        "composite-loss gradient", n_instances, seed, tolerance,
        lambda rng: (float(rng.uniform(0.2, 1.5)), 1.0), fault)


def check_logistic_gradient(n_instances=100, seed=3, tolerance=1e-6, h=1e-6):
    """Logistic-regression gradients vs central differences."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_instances):
        n, d = 8, int(rng.integers(2, 6))
        X = rng.random((n, d))
        y = (rng.random(n) < 0.5).astype(np.float64)
        w = rng.normal(0, 1, size=d)
        b = float(rng.normal())
        _, gw, gb = logistic_loss_and_grad(w, b, X, y)
        theta = np.append(w, b)
        analytic = np.append(gw, gb)
        for j in range(d + 1):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            lp, _, _ = logistic_loss_and_grad(tp[:d], tp[d], X, y)
            lm, _, _ = logistic_loss_and_grad(tm[:d], tm[d], X, y)
            errors.append(relative_error(analytic[j], (lp - lm) / (2 * h)))
    return _gate("logistic gradient", errors, tolerance)


def check_pi_normalization(n_policies=50, seed=4, tolerance=1e-9, max_dim=10):
    """Selection probabilities must sum to one over all 2^d vectors."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_policies):
        d = int(rng.integers(2, max_dim + 1))
        logits = rng.normal(0, 2, size=d)
        policy = SelectorPolicy(logits, int(rng.integers(0, d)),
                                mask_sensitive=bool(rng.integers(0, 2)))
        p = probabilities(policy)
        masked = policy.sensitive_index if policy.mask_sensitive else None
        total = sum(pi_prob(p, s) for s in enumerate_selections(d, masked))
        errors.append(abs(total - 1.0))
    return _gate("selection-distribution normalization", errors, tolerance)


def check_log_pi_gradient(n_policies=50, seed=5, tolerance=1e-6, h=1e-6):
    """Score function s - p vs finite differences of log pi(sigmoid(logits))."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_policies):
        d = int(rng.integers(2, 8))
        logits = rng.normal(0, 1.5, size=d)
        s = (rng.random(d) < 0.5).astype(np.int8)
        analytic = log_pi_grad(sigmoid(logits), s)
        for j in range(d):
            tp, tm = logits.copy(), logits.copy()
            tp[j] += h
            tm[j] -= h
            lp = np.log(pi_prob(sigmoid(tp), s))
            lm = np.log(pi_prob(sigmoid(tm), s))
            errors.append(relative_error(analytic[j], (lp - lm) / (2 * h)))
    return _gate("log-selection-probability gradient", errors, tolerance)


def estimator_instance(d=6):
    """Fixed instance for the unbiasedness check.

    A single SELU unit operating in its exponential region makes the
    sensitivity norm multiplicative in the selected features, so every
    unmasked gradient coordinate is large relative to the Monte-Carlo
    noise floor at 200k draws. A near-zero-gradient instance could not
    distinguish a biased estimator from an unbiased one at any feasible
    sample count.
    """
    if not 3 <= d <= 8:
        raise ValueError("estimator instance supports 3 <= d <= 8")
    k = 0
    alphas = np.linspace(0.85, 1.2, d)
    w1 = np.zeros((1, d))
    w1[0, :] = alphas
    w1[0, k] = 1.0
    b1 = np.array([-(alphas[1:].sum() + 1.5)])
    w2 = np.zeros((2, 1))
    w2[0, 0] = 2.0
    b2 = np.array([3.4, 0.0])
    net = DenseNet([w1, w2], [b1, b2])
    policy = SelectorPolicy(np.zeros(d), k, mask_sensitive=True)
    x = np.linspace(1.0, 0.85, d)
    return net, policy, x


def check_estimator_unbiasedness(d=6, n_samples=200_000, seed=22,
                                 rel_tolerance=0.02):
    """Score-function gradient estimate vs exhaustive enumeration.

    Compares the empirical mean of norm * (s - p) over sampled
    selections against the exact gradient computed from every selection
    vector, coordinate by coordinate (the masked coordinate is zero on
    both sides and is skipped). The tolerance is calibrated for the
    default sample count; small seed-to-seed excursions near it are
    sampling noise, not estimator bias.
    """
    net, policy, x = estimator_instance(d=d)
    _, exact = enumerate_sensitivity(net, policy, x)
    rng = np.random.default_rng([seed, 7])
    estimate = score_function_estimate(net, policy, x, n_samples, rng)
    return _gate(f"score-function estimator (d={d}, {n_samples} draws)",
                 [abs(estimate[j] - exact[j]) / abs(exact[j])
                  for j in range(d) if j != policy.sensitive_index], rel_tolerance)


def run_all(seed=0, instances=100, dims=None, samples=200_000, fault=None):
    """The full check suite; `dims` enables the enumeration-based
    estimator check at that feature count."""
    results = [
        check_prediction_gradients(instances, seed),
        check_sensitivity_gradients(instances, seed + 1, fault=fault),
        check_composite_gradients(instances, seed + 2, fault=fault),
        check_logistic_gradient(instances, seed + 3),
        check_pi_normalization(50, seed + 4),
        check_log_pi_gradient(50, seed + 5),
    ]
    if dims is not None:
        results.append(check_estimator_unbiasedness(d=dims, n_samples=samples))
    return results
