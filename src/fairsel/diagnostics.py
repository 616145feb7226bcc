"""Randomized self-checks of every analytic gradient and estimator.

Each check runs the code that trains on seeded random instances (the
estimator check drives `selector_step` itself), compares it against an
independent oracle (central finite differences by `difference_errors`, or
`enumerate_sensitivity`'s exhaustive enumeration), and reports the worst
error seen (`worst_error`, so a NaN error fails the check) against a
fixed tolerance. `gradcheck` runs these, and so do the tests.
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

# the estimator gate's feature count and draws, the count its tolerance
# is calibrated for, taken ESTIMATE_CHUNK per selector_step (a divisor of
# it that bounds the step's memory)
ESTIMATE_DIM = 6
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

# the logistic gate trusts each float64 loss value to this many units in
# its last place, so rounding alone moves a central difference of step h
# by up to LOSS_ULPS * eps * (|L(theta + h)| + |L(theta - h)|) / (2 h)
LOSS_ULPS = 2


def relative_error(a, b, rounding=0.0):
    """|a - b| less `rounding`, never below 0, relative to the larger
    magnitude, floored at RELATIVE_ERROR_FLOOR."""
    excess = max(abs(a - b) - rounding, 0.0)   # a NaN first argument stays NaN
    return excess / max(abs(a), abs(b), RELATIVE_ERROR_FLOOR)


def worst_error(errors):
    """The largest of a nonempty sequence of errors, NaN if any is NaN
    (`max()` would drop a NaN and let a gate pass on it)."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("no errors to reduce: the check covered nothing")
    return float(errors.max())


def difference_errors(loss, theta, analytic, h, loss_ulps=0):
    """Relative error of each coordinate of `analytic`, the claimed
    gradient of loss at the flat vector theta, against the central
    difference of loss with step h, less the rounding error of that
    difference if each loss value is trusted to loss_ulps units in its
    last place."""
    errors = []
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        lp, lm = loss(tp), loss(tm)
        rounding = loss_ulps * np.finfo(np.float64).eps * (abs(lp) + abs(lm)) / (2 * h)
        errors.append(relative_error(analytic[j], (lp - lm) / (2 * h), rounding))
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


def _seeded_gate(name, n_instances, seed, tolerance, instance_errors):
    """Gate the errors of n_instances instances, each drawn and checked
    by instance_errors(rng) from one generator seeded with seed."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_instances):
        errors.extend(instance_errors(rng))
    return _gate(name, errors, tolerance)


# random_instance redraws while a hidden activation of its pair lies within
# this distance of 0. SELU's slope near 0 is at most 1.76, so each
# pre-activation is then over 57 of net_gradient_errors' 1e-5 steps from
# the kink, and one step on one parameter moves it by under 3 steps (2.6
# at most over 300 draws): both sides of each difference stay on one branch.
KINK_MARGIN = 1e-3


def random_instance(rng):
    """A small seeded net plus a batch of 3 inputs, labels and selections.

    Finite differences across the SELU kink straddle its two branches
    and cannot agree with any one-sided derivative. Biases are therefore
    randomized (with zero biases an all-zero selected input would put
    every pre-activation on the kink), and a draw with a hidden
    activation within KINK_MARGIN of 0 is redrawn.

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
    X = rng.random((3, d))
    X[:, k] = X[:, k] < 0.5
    Y = np.zeros((3, c))
    Y[np.arange(3), rng.integers(0, c, size=3)] = 1.0
    S = (rng.random((3, d)) < 0.5).astype(np.int8)
    S[:, k] = 0
    acts = sensitivity_pair(net, X, S, k).outputs[:-1]
    if min(np.abs(a).min() for a in acts) <= KINK_MARGIN:
        return random_instance(rng)   # too near the kink: redraw
    return net, X, Y, S, k


def _pair_gate(name, n_instances, seed, weights):
    """Gate `pair_loss_and_grads` on each `random_instance` at the
    (sensitivity_weight, ce_weight) that weights(rng) then draws."""
    def instance_errors(rng):
        net, X, Y, S, k = random_instance(rng)
        sensitivity_weight, ce_weight = weights(rng)

        def lag(net_):
            pair = sensitivity_pair(net_, X, S, k)
            loss, grads, _, _ = pair_loss_and_grads(
                net_, pair, Y, sensitivity_weight, ce_weight)
            return loss, grads
        return net_gradient_errors(net, lag)
    return _seeded_gate(name, n_instances, seed, 1e-4, instance_errors)


def check_prediction_gradients(n_instances=100, seed=0):
    """Cross-entropy parameter gradients vs central differences."""
    return _pair_gate("prediction-loss gradient", n_instances, seed, lambda rng: (0.0, 1.0))


def check_sensitivity_gradients(n_instances=100, seed=1):
    """Sensitivity-norm parameter gradients vs central differences."""
    return _pair_gate("sensitivity-loss gradient", n_instances, seed, lambda rng: (1.0, 0.0))


def check_composite_gradients(n_instances=100, seed=2):
    """Combined training-loss gradients vs central differences."""
    return _pair_gate("composite-loss gradient", n_instances, seed,
                      lambda rng: (float(rng.uniform(0.2, 1.5)), 1.0))


def check_logistic_gradient(n_instances=100, seed=3):
    """The gradient the logistic baseline trains on (`logistic_grad`) vs
    central differences of the mean cross-entropy of the float64 `(d, 2)`
    net it deploys as (`logistic_net`), less their rounding (LOSS_ULPS):
    about eps |L| / h = 1e-10, more than the tolerance on the gradient's
    coordinates of 1e-5. The other gates need no such allowance."""
    def instance_errors(rng):
        n, d = 8, int(rng.integers(2, 6))
        X = rng.random((n, d))
        y = (rng.random(n) < 0.5).astype(np.int64)
        w = rng.normal(0, 1, size=d)
        b = float(rng.normal())
        gw, gb = logistic_grad(w, b, X, y)

        def loss(theta):
            p = forward(logistic_net(theta[:d], theta[d]), X)[np.arange(n), y]
            return float(-np.log(p).mean())
        return difference_errors(loss, np.append(w, b), np.append(gw, gb), 1e-6,
                                 loss_ulps=LOSS_ULPS)
    return _seeded_gate("logistic gradient", n_instances, seed, 1e-6, instance_errors)


def check_pi_normalization(n_instances=50, seed=4):
    """Selection probabilities (d <= 10) must sum to one over all 2^d
    vectors, or over the 2^(d-1) the selector allows when it masks one."""
    def instance_errors(rng):
        d = int(rng.integers(2, 11))
        logits = rng.normal(0, 2, size=d)
        k = int(rng.integers(0, d))
        masked = k if rng.integers(0, 2) else None   # the selector, or plain gates
        p = sigmoid(logits) if masked is None else probabilities(SelectorPolicy(logits, k))
        # Python's sequential sum; numpy's pairwise sum changes the error
        return [abs(sum(pi_prob(p, enumerate_selections(d, masked))) - 1.0)]
    return _seeded_gate("selection-distribution normalization", n_instances,
                        seed, 1e-9, instance_errors)


def check_log_pi_gradient(n_instances=50, seed=5):
    """`log_pi_grad` vs finite differences of log pi(sigmoid(logits))."""
    def instance_errors(rng):
        d = int(rng.integers(2, 8))
        logits = rng.normal(0, 1.5, size=d)
        S = (rng.random((1, d)) < 0.5).astype(np.int8)
        return difference_errors(lambda theta: np.log(pi_prob(sigmoid(theta), S)[0]),
                                 logits, log_pi_grad(sigmoid(logits), S)[0], 1e-6)
    return _seeded_gate("log-selection-probability gradient", n_instances, seed,
                        1e-6, instance_errors)


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


def estimator_instance():
    """Fixed instance for the unbiasedness check, ESTIMATE_DIM features.

    A single SELU unit operating in its exponential region makes the
    sensitivity norm multiplicative in the selected features, so every
    unmasked gradient coordinate is large relative to the Monte-Carlo
    noise floor at 200k draws. A near-zero-gradient instance could not
    distinguish a biased estimator from an unbiased one at any feasible
    sample count.
    """
    d, k = ESTIMATE_DIM, 0
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


def check_estimator_unbiasedness():
    """The selector's training update vs exhaustive enumeration.

    Runs `selector_step` on ESTIMATE_SAMPLES draws, ESTIMATE_CHUNK per
    step; at the instance's zero logits a unit step moves them by exactly
    its estimate. The draw-weighted mean move is compared with the exact
    gradient per coordinate (the masked one, zero on both sides, is
    skipped). The relative tolerance 0.02 is calibrated for that draw
    count at the fixed seed 22; small seed-to-seed excursions near it are
    sampling noise, not bias.
    """
    net, policy, x = estimator_instance()
    d = ESTIMATE_DIM
    _, exact = enumerate_sensitivity(net, policy, x)
    rng = np.random.default_rng([22, 7])
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
                  for j in range(d) if j != policy.sensitive_index], 0.02)


def run_all(seed, instances):
    """The full check suite: six randomized gates of `instances` instances
    each, seeded from `seed` up, then the fixed estimator gate."""
    return [
        check_prediction_gradients(instances, seed),
        check_sensitivity_gradients(instances, seed + 1),
        check_composite_gradients(instances, seed + 2),
        check_logistic_gradient(instances, seed + 3),
        check_pi_normalization(instances, seed + 4),
        check_log_pi_gradient(instances, seed + 5),
        check_estimator_unbiasedness(),
    ]
