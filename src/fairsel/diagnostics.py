"""Randomized self-checks of every analytic gradient and estimator.

Each check runs the code that trains on seeded random instances (the
estimator check drives `selector_step` itself), compares it against an
independent oracle (central finite differences by `difference_errors`, or
`enumerate_sensitivity`'s exhaustive enumeration), and reports the worst
error seen (`worst_error`, so a NaN error fails the check). `gradcheck`
runs these; the tests reuse them at the tolerances they were designed for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import logistic_grad, logistic_net
from .errors import NumericalError
from .nets import DenseNet, forward
from .selector import (SelectorPolicy, enumerate_selections, log_pi_grad,
                       pi_prob, probabilities, sigmoid)
from .training import pair_loss_and_grads, selector_step, sensitivity_pair

# draws in check_estimator_unbiasedness, the count its tolerance is
# calibrated for, taken ESTIMATE_CHUNK per selector_step (a divisor of it
# that bounds the step's memory)
ESTIMATE_SAMPLES = 200_000
ESTIMATE_CHUNK = 20000


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    tolerance: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: worst error {self.worst_error:.3e} "
                f"vs tolerance {self.tolerance:.1e}")


# relative_error compares near-zero pairs absolutely at this scale
RELATIVE_ERROR_FLOOR = 1e-6


def relative_error(a, b):
    """|a - b| relative to the larger magnitude, floored at
    RELATIVE_ERROR_FLOOR."""
    return abs(a - b) / max(abs(a), abs(b), RELATIVE_ERROR_FLOOR)


def worst_error(errors):
    """The largest of a nonempty sequence of errors, NaN if any is NaN
    (`max()` would drop a NaN and let a gate pass on it)."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("no errors to reduce: the check covered nothing")
    return float(errors.max())


def difference_errors(loss, theta, analytic, h):
    """Relative error of each coordinate of `analytic`, the claimed
    gradient of loss at the flat vector theta, against the central
    difference of loss with step h."""
    errors = []
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        errors.append(relative_error(analytic[j], (loss(tp) - loss(tm)) / (2 * h)))
    return errors


def net_gradient_errors(net, loss_and_grad):
    """`difference_errors` at step 1e-5 of every coordinate of a net's
    parameter gradient; loss_and_grad(net) returns (loss, gradient laid
    out like net.theta)."""
    _, analytic = loss_and_grad(net)
    return difference_errors(lambda theta: loss_and_grad(DenseNet(net.sizes, theta))[0],
                             net.theta, analytic, 1e-5)


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

    The sensitive column is 0/1, as `Encoder` makes it, so some rows have
    the same input in both halves of the pair and run once.
    """
    d = int(rng.integers(3, 7))
    c = int(rng.integers(2, 4))
    hidden = tuple(int(h) for h in rng.integers(4, 9, size=2))
    net = DenseNet.initialize(d, hidden, c, rng)
    net = DenseNet.from_layers(net.weights, [rng.normal(0.0, 0.3, size=b.shape)
                                             for b in net.biases])
    k = int(rng.integers(0, d))
    X = rng.random((batch, d))
    X[:, k] = X[:, k] < 0.5
    Y = np.zeros((batch, c))
    Y[np.arange(batch), rng.integers(0, c, size=batch)] = 1.0
    S = (rng.random((batch, d)) < 0.5).astype(np.int8)
    S[:, k] = 0
    return net, X, Y, S, k


def _check_pair_gradients(name, n_instances, seed, tolerance, weights):
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
                net_, pair, Y, sensitivity_weight, ce_weight)
            return loss, grads
        errors.extend(net_gradient_errors(net, lag))
    return _gate(name, errors, tolerance)


def check_prediction_gradients(n_instances=100, seed=0, tolerance=1e-4):
    """Cross-entropy parameter gradients vs central differences."""
    return _check_pair_gradients("prediction-loss gradient", n_instances,
                                 seed, tolerance, lambda rng: (0.0, 1.0))


def check_sensitivity_gradients(n_instances=100, seed=1, tolerance=1e-4):
    """Sensitivity-norm parameter gradients vs central differences."""
    return _check_pair_gradients("sensitivity-loss gradient", n_instances,
                                 seed, tolerance, lambda rng: (1.0, 0.0))


def check_composite_gradients(n_instances=100, seed=2, tolerance=1e-4):
    """Combined training-loss gradients vs central differences."""
    return _check_pair_gradients(
        "composite-loss gradient", n_instances, seed, tolerance,
        lambda rng: (float(rng.uniform(0.2, 1.5)), 1.0))


def check_logistic_gradient(n_instances=100, seed=3, tolerance=1e-6, h=1e-6):
    """The gradient the logistic baseline trains on (`logistic_grad`) vs
    central differences of the mean cross-entropy of the float64 `(d, 2)`
    net it deploys as (`logistic_net`)."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_instances):
        n, d = 8, int(rng.integers(2, 6))
        X = rng.random((n, d))
        y = (rng.random(n) < 0.5).astype(np.int64)
        w = rng.normal(0, 1, size=d)
        b = float(rng.normal())
        gw, gb, _ = logistic_grad(w, b, X, y)

        def loss(theta):
            p = forward(logistic_net(theta[:d], theta[d]), X)[np.arange(n), y]
            return float(-np.log(p).mean())
        errors.extend(difference_errors(loss, np.append(w, b), np.append(gw, gb), h))
    return _gate("logistic gradient", errors, tolerance)


def check_pi_normalization(n_policies=50, seed=4, tolerance=1e-9, max_dim=10):
    """Selection probabilities must sum to one over all 2^d vectors, or
    over the 2^(d-1) the selector allows when it masks a feature."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_policies):
        d = int(rng.integers(2, max_dim + 1))
        logits = rng.normal(0, 2, size=d)
        k = int(rng.integers(0, d))
        masked = k if rng.integers(0, 2) else None   # the selector, or plain gates
        p = sigmoid(logits) if masked is None else probabilities(SelectorPolicy(logits, k))
        # Python's sequential sum; numpy's pairwise sum changes the error
        total = sum(pi_prob(p, enumerate_selections(d, masked)))
        errors.append(abs(total - 1.0))
    return _gate("selection-distribution normalization", errors, tolerance)


def check_log_pi_gradient(n_policies=50, seed=5, tolerance=1e-6, h=1e-6):
    """`log_pi_grad` vs finite differences of log pi(sigmoid(logits))."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_policies):
        d = int(rng.integers(2, 8))
        logits = rng.normal(0, 1.5, size=d)
        S = (rng.random((1, d)) < 0.5).astype(np.int8)
        errors.extend(difference_errors(
            lambda theta: np.log(pi_prob(sigmoid(theta), S)[0]), logits,
            log_pi_grad(sigmoid(logits), S)[0], h))
    return _gate("log-selection-probability gradient", errors, tolerance)


def enumerate_sensitivity(net, policy, x):
    """Exact expected sensitivity norm and its logit gradient for one
    input, by enumerating every selection vector.

    Oracle-grade reference for the sampled estimates; only sensible for
    small feature counts.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    p = probabilities(policy)
    S_all = enumerate_selections(d, masked_index=policy.sensitive_index)
    pi = pi_prob(p, S_all)
    X_rep = np.broadcast_to(x, (S_all.shape[0], d))
    norms = sensitivity_pair(net, X_rep, S_all, policy.sensitive_index).norms
    expected = float(np.dot(pi, norms))
    grad = ((pi * norms)[:, None] * log_pi_grad(p, S_all)).sum(axis=0)
    return expected, grad


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
    net = DenseNet.from_layers([w1, w2], [b1, b2])
    policy = SelectorPolicy(np.zeros(d), k)
    x = np.linspace(1.0, 0.85, d)
    return net, policy, x


def check_estimator_unbiasedness(d=6, seed=22, rel_tolerance=0.02):
    """The selector's training update vs exhaustive enumeration.

    Runs `selector_step` on ESTIMATE_SAMPLES draws, ESTIMATE_CHUNK per
    step; at the instance's zero logits a unit step moves them by exactly
    its estimate. The draw-weighted mean move is compared with the exact
    gradient per coordinate (the masked one, zero on both sides, is
    skipped). The tolerance is calibrated for that draw count; small
    seed-to-seed excursions near it are sampling noise, not bias.
    """
    net, policy, x = estimator_instance(d=d)
    _, exact = enumerate_sensitivity(net, policy, x)
    rng = np.random.default_rng([seed, 7])
    total = np.zeros(d)
    rows = np.broadcast_to(x, (ESTIMATE_CHUNK, d))
    for _ in range(ESTIMATE_SAMPLES // ESTIMATE_CHUNK):
        try:
            stepped, _ = selector_step(policy, rows, net, 1.0, rng)
        except NumericalError:   # a non-finite estimate fails the gate
            total[:] = np.nan
            break
        total += ESTIMATE_CHUNK * (stepped.logits - policy.logits)
    estimate = total / ESTIMATE_SAMPLES
    return _gate(f"score-function estimator (d={d}, {ESTIMATE_SAMPLES} draws)",
                 [abs(estimate[j] - exact[j]) / abs(exact[j])
                  for j in range(d) if j != policy.sensitive_index], rel_tolerance)


def run_all(seed=0, instances=100, dims=None):
    """The full check suite; `dims` enables the enumeration-based
    estimator check at that feature count."""
    results = [
        check_prediction_gradients(instances, seed),
        check_sensitivity_gradients(instances, seed + 1),
        check_composite_gradients(instances, seed + 2),
        check_logistic_gradient(instances, seed + 3),
        check_pi_normalization(50, seed + 4),
        check_log_pi_gradient(50, seed + 5),
    ]
    if dims is not None:
        results.append(check_estimator_unbiasedness(d=dims))
    return results
