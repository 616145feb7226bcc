import dataclasses
import math

import numpy as np
import pytest

from conftest import (forward_row, make_net, naive_forward, recorded_selections,
                      selu_deriv)
from fairsel.data import synth_proxy, split
from fairsel.errors import DegenerateGroupError, DimensionError, NumericalError
from fairsel.nets import (PROB_FLOOR, AdamState, DenseNet, adam_step, backward,
                         forward, layer_outputs)
from fairsel.selector import (SelectorPolicy, enumerate_selections, pi_prob,
                              probabilities)
from fairsel import training
from fairsel.cli import _tune_point
from fairsel.diagnostics import enumerate_sensitivity
from fairsel.training import (TrainConfig, mean_sensitivity,
                              pair_loss_and_grads, predict, predictor_step,
                              selector_step, sensitivity_pair, train)


def sensitivity_norm(net, x, s, k):
    return float(sensitivity_pair(net, x[None, :], s[None, :], k).norms[0])


def cross_entropy(net, x, s, y):
    """Loss of the pair routine with the sensitivity term weighted 0."""
    pair = sensitivity_pair(net, x[None, :], s[None, :], 0)
    loss, _, _, _ = pair_loss_and_grads(net, pair, y[None, :], 0.0)
    return loss


def threshold05_sensitivity(net, policy, X):
    """mean_sensitivity over threshold05's selection of the policy."""
    kept = probabilities(policy) >= 0.5
    return mean_sensitivity(net, kept, policy.sensitive_index, X)


def predict_row(model, x):
    labels, probs = predict(model, x[None, :])
    return int(labels[0]), probs[0]


def sensitivity_only(net, X, S, k):
    """Loss and gradient of the pair routine with the cross-entropy term
    weighted 0."""
    pair = sensitivity_pair(net, X, S, k)
    loss, grad, _, _ = pair_loss_and_grads(
        net, pair, np.zeros_like(pair.p_sel), 1.0, ce_weight=0.0)
    return loss, grad


def selected_rows(x, s, k):
    """The pair's stacked input rows for one example: x * s, then x * s
    with feature k added if that changes it."""
    net = make_net(0, d=x.shape[0], hidden=(3,), c=2)
    return sensitivity_pair(net, x[None, :], s[None, :], k).rows


class TestApplySelection:
    """The selection zeroes unselected features: out_j = x_j if s_j = 1
    else 0, and the second half of the pair adds feature k back, on rows
    where that changes the input."""

    def test_partial(self):
        out = selected_rows(np.array([0.2, 0.7, 0.9]), np.array([1, 0, 1]), 1)
        assert np.array_equal(out, [[0.2, 0.0, 0.9], [0.2, 0.7, 0.9]])

    def test_full_identity(self):
        # feature 0 is already selected: the second half holds no row
        x = np.array([0.1, 0.2])
        assert np.array_equal(selected_rows(x, np.ones(2, dtype=int), 0), [x])

    def test_empty_zero(self):
        out = selected_rows(np.array([0.1, 0.2]), np.zeros(2, dtype=int), 1)
        assert np.array_equal(out, [[0.0, 0.0], [0.0, 0.2]])


class TestSensitivityLoss:
    def test_k_already_selected_is_zero(self):
        net = make_net(0, d=3, hidden=(4,), c=2)
        x = np.array([0.5, 0.2, 0.9])
        s = np.array([1, 1, 0])  # k = 1 already in s (the selector never samples it)
        assert sensitivity_norm(net, x, s, 1) == 0.0

    def test_dead_sensitive_column_is_zero(self):
        net = make_net(1, d=3, hidden=(4,), c=2)
        net.weights[0][:, 2] = 0.0
        x = np.array([0.4, 0.6, 0.8])
        assert sensitivity_norm(net, x, np.array([1, 0, 0]), 2) == \
            pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_definition_oracle(self, seed):
        # independent path: mask by hand, run the loop-based forward oracle
        net = make_net(seed, d=4, hidden=(5,), c=3)
        rng = np.random.default_rng(seed + 10)
        x = rng.random(4)
        s = np.array([1, 0, 0, 1])
        k = 2
        with_k = [xv if (sv or j == k) else 0.0
                  for j, (xv, sv) in enumerate(zip(x, s))]
        without = [xv if sv else 0.0 for xv, sv in zip(x, s)]
        diff = naive_forward(net, with_k) - naive_forward(net, without)
        expected = math.sqrt(float((diff ** 2).sum()))
        assert sensitivity_norm(net, x, s, k) == pytest.approx(expected, rel=1e-12)


class TestPredictionLoss:
    def test_certain_true_class_is_zero(self):
        net = DenseNet.from_layers([np.zeros((2, 3))], [np.array([60.0, 0.0])])
        loss = cross_entropy(net, np.ones(3), np.ones(3, dtype=int),
                             np.array([1.0, 0.0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_gives_log_c(self):
        net = DenseNet.from_layers([np.zeros((4, 2))], [np.zeros(4)])
        loss = cross_entropy(net, np.ones(2), np.ones(2, dtype=int),
                             np.array([0.0, 1.0, 0.0, 0.0]))
        assert loss == pytest.approx(math.log(4), rel=1e-12)

    def test_quarter_probability_frozen_value(self):
        # output [0.25, 0.75] via bias ln(3) on class 1
        net = DenseNet.from_layers([np.zeros((2, 2))], [np.array([0.0, math.log(3.0)])])
        loss = cross_entropy(net, np.ones(2), np.ones(2, dtype=int),
                             np.array([1.0, 0.0]))
        assert loss == pytest.approx(1.3862943611198906, rel=1e-12)


class TestSelectorStep:
    def test_zero_sensitivity_leaves_logits(self):
        net = make_net(0, d=4, hidden=(5,), c=2)
        net.weights[0][:, 1] = 0.0  # sensitive column dead -> all norms 0
        policy = SelectorPolicy(np.array([0.3, -0.2, 0.1, 0.4]), 1)
        X = np.random.default_rng(0).random((8, 4))
        new_policy, pair = selector_step(policy, X, net, 0.5,
                                         np.random.default_rng(1))
        assert np.array_equal(new_policy.logits, policy.logits)
        assert np.all(pair.norms == pytest.approx(0.0, abs=1e-15))

    def test_masked_coordinate_never_moves(self, monkeypatch):
        net = make_net(2, d=5, hidden=(6,), c=2)
        policy = SelectorPolicy.initialize(5, 3, np.random.default_rng(3))
        X = np.random.default_rng(4).random((16, 5))
        rng = np.random.default_rng(5)
        seen = recorded_selections(monkeypatch)
        for _ in range(50):
            policy, _ = selector_step(policy, X, net, 0.7, rng)
        assert len(seen) == 50
        assert all(np.all(S[:, 3] == 0) for S in seen)
        assert policy.logits[3] == SelectorPolicy.initialize(
            5, 3, np.random.default_rng(3)).logits[3]

    def test_nonfinite_net_aborts(self):
        net = make_net(0, d=3, hidden=(4,), c=2)
        net.weights[1][0, 0] = np.inf
        policy = SelectorPolicy(np.zeros(3), 0)
        # the infinite weight overflows the forward pass before the check
        with pytest.warns(RuntimeWarning), pytest.raises(NumericalError):
            selector_step(policy, np.random.default_rng(0).random((4, 3)),
                          net, 0.5, np.random.default_rng(1))

    def test_average_update_aligns_with_enumeration_gradient(self):
        from fairsel.diagnostics import estimator_instance
        net, policy, x = estimator_instance()
        _, exact = enumerate_sensitivity(net, policy, x)
        rng = np.random.default_rng(0)
        X = np.tile(x, (64, 1))
        total = np.zeros(x.size)
        for _ in range(1000):  # 64k draws in total
            stepped, _ = selector_step(policy, X, net, 1.0, rng)
            total += stepped.logits - policy.logits
        cos = float(total @ exact / (np.linalg.norm(total) * np.linalg.norm(exact)))
        assert cos >= 0.95

    def test_baseline_subtraction_keeps_expectation(self):
        from fairsel.diagnostics import estimator_instance
        net, policy, x = estimator_instance()
        _, exact = enumerate_sensitivity(net, policy, x)
        rng = np.random.default_rng(1)
        X = np.tile(x, (64, 1))
        total = np.zeros(x.size)
        for _ in range(1000):
            stepped, _ = selector_step(policy, X, net, 1.0, rng, baseline=0.1)
            total += stepped.logits - policy.logits
        cos = float(total @ exact / (np.linalg.norm(total) * np.linalg.norm(exact)))
        assert cos >= 0.95


class TestPredictorStep:
    def test_lambda_zero_is_plain_cross_entropy_step(self):
        # oracle: fused softmax/CE gradient (p - y), independent derivation
        # from the VJP route used by the implementation
        net = make_net(3, d=4, hidden=(5,), c=3)
        rng = np.random.default_rng(7)
        X = rng.random((6, 4))
        Y = np.zeros((6, 3))
        Y[np.arange(6), rng.integers(0, 3, 6)] = 1.0
        S = (rng.random((6, 4)) < 0.6).astype(np.int8)
        S[:, 0] = 0

        x_sel = X * S
        from fairsel.nets import selu, softmax
        z1 = x_sel @ net.weights[0].T + net.biases[0]
        a1 = selu(z1)
        probs = softmax(a1 @ net.weights[1].T + net.biases[1])
        delta2 = (probs - Y) / 6.0
        gw2 = delta2.T @ a1
        gb2 = delta2.sum(axis=0)
        delta1 = (delta2 @ net.weights[1]) * selu_deriv(z1)
        gw1 = delta1.T @ x_sel
        gb1 = delta1.sum(axis=0)
        oracle_grad = np.concatenate([g.ravel() for g in (gw1, gb1, gw2, gb2)])
        oracle, _ = adam_step(net, oracle_grad, AdamState.for_net(net), 1e-3)

        stepped, _, _, _ = predictor_step(net, sensitivity_pair(net, X, S, 0), Y,
                                          AdamState.for_net(net), 1e-3, 0.0)
        assert np.allclose(stepped.theta, oracle.theta, rtol=1e-10, atol=1e-12)

    def test_zero_gradients_leave_net_bit_identical(self):
        # dead sensitive pathway (zero weights) and a saturated output:
        # every gradient underflows against O(10) parameters
        net = DenseNet.from_layers([np.zeros((2, 3))], [np.array([80.0, 10.0])])
        X = np.random.default_rng(0).random((4, 3))
        Y = np.tile([1.0, 0.0], (4, 1))
        S = np.zeros((4, 3), dtype=np.int8)
        stepped, _, _, _ = predictor_step(net, sensitivity_pair(net, X, S, 0), Y,
                                          AdamState.for_net(net), 1e-4, 1.0)
        assert np.array_equal(stepped.theta, net.theta)

    def test_composite_gradient_passes_finite_differences(self):
        from fairsel.diagnostics import (net_gradient_errors, random_instance,
                                         worst_error)
        rng = np.random.default_rng(11)
        net, X, Y, S, k = random_instance(rng)

        def lag(net_):
            pair = sensitivity_pair(net_, X, S, k)
            loss, grads, _, _ = pair_loss_and_grads(net_, pair, Y, 0.8)
            return loss, grads

        assert worst_error(net_gradient_errors(net, lag)) <= 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_backward_matches_two_backward_sum(self, seed):
        # oracle: the two full halves of the pair through backward one by
        # one, each with its own layer outputs, and their gradients summed;
        # rows whose two inputs are the same take the zero subgradient
        from fairsel.diagnostics import random_instance
        net, X, Y, S, k = random_instance(np.random.default_rng(seed))
        weight, n = 0.8, X.shape[0]
        pair = sensitivity_pair(net, X, S, k)
        _, grad, _, _ = pair_loss_and_grads(net, pair, Y, weight)
        # the sensitive column is 0/1 and never selected: rows holding a 0
        # there skip the second half
        assert np.array_equal(pair.changed, np.flatnonzero(X[:, k]))

        x_sel = X * S
        x_with = x_sel.copy()
        x_with[:, k] = X[:, k]
        p_sel = layer_outputs(net, x_sel)[-1]
        diff = layer_outputs(net, x_with)[-1] - p_sel
        norms = np.linalg.norm(diff, axis=1)
        live = (X[:, k] != 0)[:, None]
        unit = np.divide(diff, norms[:, None], out=np.zeros_like(diff), where=live)
        grad_with = weight / n * unit
        grad_sel = -weight / n * unit - Y / p_sel / n
        summed = (backward(net, x_with, layer_outputs(net, x_with), grad_with)
                  + backward(net, x_sel, layer_outputs(net, x_sel), grad_sel))
        assert np.allclose(grad, summed, rtol=1e-12, atol=1e-15)

    def test_tiny_norm_uses_zero_subgradient(self):
        net = make_net(4, d=3, hidden=(4,), c=2)
        net.weights[0][:, 1] = 0.0
        X = np.random.default_rng(1).random((3, 3))
        S = np.array([[1, 0, 0]] * 3, dtype=np.int8)
        loss, grad = sensitivity_only(net, X, S, 1)
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(grad, 0.0, atol=1e-15)


def full_pair_reference(net, X, S, Y, k, sensitivity_weight, ce_weight):
    """Loss, gradient and norms of the pair as all 2n stacked rows: every
    row runs a second time with feature k added, changed or not."""
    n = X.shape[0]
    x_sel = X * S
    x_with = x_sel.copy()
    x_with[:, k] = X[:, k]
    rows = np.vstack([x_sel, x_with])
    outputs = layer_outputs(net, rows)
    p_sel = outputs[-1][:n]
    diff = outputs[-1][n:] - p_sel
    norms = np.linalg.norm(diff, axis=1)
    ce = -np.log(np.maximum((p_sel * Y).sum(axis=1), PROB_FLOOR))
    loss = np.mean(sensitivity_weight * norms + ce_weight * ce)
    unit = np.divide(diff, norms[:, None], out=np.zeros_like(diff),
                     where=(norms > training.NORM_EPS)[:, None])
    G = np.vstack([-sensitivity_weight / n * unit
                   - ce_weight * Y / np.maximum(p_sel, PROB_FLOOR) / n,
                   sensitivity_weight / n * unit])
    return loss, backward(net, rows, outputs, G), norms


def skip_instance(case, n=37, d=6, k=2, seed=0):
    """Rows X, selections S and labels Y where adding feature k changes:
    masked, 0/1 column: rows with X_k = 1; unmasked: rows with S_k = 0
    and X_k != 0; none: no row; all: every row."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    S = (rng.random((n, d)) < 0.5).astype(np.int8)
    if case in ("masked-binary", "unmasked-binary", "none"):
        X[:, k] = rng.random(n) < 0.5
    if case in ("masked-binary", "all"):
        S[:, k] = 0
    if case == "none":
        S[:, k] = X[:, k]   # selects each 1, drops each 0: never a change
    Y = np.eye(2)[rng.integers(0, 2, size=n)]
    return X, S, Y


SKIP_CASES = ["masked-binary", "unmasked-binary", "unmasked-continuous",
              "none", "all"]


class TestSkippedRows:
    """A row whose two pair inputs are the same runs once: its sensitivity
    is exactly 0, and every value agrees with the full 2n-row pair."""

    @pytest.mark.parametrize("case", SKIP_CASES)
    def test_second_half_holds_only_changed_rows(self, case):
        X, S, _ = skip_instance(case)
        pair = sensitivity_pair(make_net(0, d=6, hidden=(8,), c=2), X, S, 2)
        changed = np.flatnonzero((S[:, 2] == 0) & (X[:, 2] != 0))
        assert np.array_equal(pair.changed, changed)
        assert pair.rows.shape == (37 + changed.size, 6)
        if case in ("none", "all"):
            assert changed.size == {"none": 0, "all": 37}[case]
        else:
            assert 0 < changed.size < 37

    def test_unchanged_rows_are_exactly_zero_at_odd_batch_sizes(self):
        # a 4x200 net on credit-shaped rows: run in one stacked batch, the
        # two copies of a row can round differently at the last bit
        net = DenseNet.initialize(55, (200,) * 4, 2, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(20):
            X = rng.random((37, 55))
            X[:, 3] = rng.random(37) < 0.65
            S = (rng.random((37, 55)) < 0.5).astype(np.int8)
            S[:, 3] = 0
            norms = sensitivity_pair(net, X, S, 3).norms
            assert np.all(norms[X[:, 3] == 0] == 0.0)
            assert np.all(norms[X[:, 3] == 1] > 0.0)

    @pytest.mark.parametrize("case", SKIP_CASES)
    @pytest.mark.parametrize("weights", [(0.8, 1.0), (1.0, 0.0)])
    def test_loss_and_gradient_match_full_pair(self, case, weights):
        X, S, Y = skip_instance(case, seed=3)
        net = make_net(5, d=6, hidden=(8, 7), c=2)
        loss, grad, _, sens = pair_loss_and_grads(
            net, sensitivity_pair(net, X, S, 2), Y, *weights)
        ref_loss, ref_grad, ref_norms = full_pair_reference(net, X, S, Y, 2, *weights)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert sens == pytest.approx(ref_norms.mean(), rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("binary", [True, False])
    def test_mean_sensitivity_matches_full_pair(self, binary):
        net = make_net(6, d=6, hidden=(8,), c=2)
        policy = SelectorPolicy(np.array([0.3, -0.5, 0.2, 0.9, -0.1, 0.4]), 2)
        rng = np.random.default_rng(7)
        X = rng.random((300, 6))
        if binary:
            X[:, 2] = rng.random(300) < 0.5
        S = np.tile(probabilities(policy) >= 0.5, (300, 1))
        expected = full_pair_reference(net, X, S, np.zeros((300, 2)),
                                       2, 1.0, 0.0)[2].mean()
        assert threshold05_sensitivity(net, policy, X)[0] == pytest.approx(expected, rel=1e-12)


class TestAdversarialSigns:
    """First-order directional checks against enumeration gradients."""

    def _instance(self):
        net = make_net(8, d=5, hidden=(8,), c=2)
        net = DenseNet.from_layers([2.5 * w for w in net.weights], net.biases)
        policy = SelectorPolicy(np.random.default_rng(2).normal(0, 0.4, 5), 0)
        x = np.random.default_rng(3).random(5)
        return net, policy, x

    def test_selector_ascent_increases_objective(self):
        net, policy, x = self._instance()
        value, grad = enumerate_sensitivity(net, policy, x)
        assert np.linalg.norm(grad) > 1e-8
        stepped = SelectorPolicy(policy.logits + 1e-4 * grad, policy.sensitive_index)
        value2, _ = enumerate_sensitivity(net, stepped, x)
        assert value2 > value

    def test_predictor_descent_decreases_objective(self):
        net, policy, x = self._instance()
        p = probabilities(policy)
        S_all = enumerate_selections(5, masked_index=0)
        pi = pi_prob(p, S_all)

        def expected_value_and_grads(net_):
            val, acc = 0.0, np.zeros_like(net_.theta)
            for weight, s in zip(pi, S_all):
                loss, grad = sensitivity_only(net_, x[None, :], s[None, :], 0)
                val += weight * loss
                acc += weight * grad
            return val, acc

        value, grad = expected_value_and_grads(net)
        stepped = DenseNet(net.sizes, net.theta - 1e-4 * grad)
        value2, _ = expected_value_and_grads(stepped)
        assert value2 < value


class TestTrain:
    def _data(self, n=300, seed=0):
        ds = synth_proxy(n, 0.9, seed)
        return split(ds, seed + 1)

    def _config(self, **kw):
        base = dict(alpha_theta=0.5, alpha_phi=1e-3, batch_size=64,
                    max_epochs=4, patience=4, seed=5, hidden_sizes=(8, 8))
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_returns_initial_model(self):
        tr, va, _ = self._data()
        model = train(tr, va, self._config(max_epochs=0))
        assert model.training_log == []
        assert model.best_epoch == -1
        fresh = np.random.default_rng(5)
        expected = DenseNet.initialize(tr.features.shape[1], (8, 8), 2, fresh)
        # train draws in float64 and steps the float32 cast of the draw
        assert model.net.theta.dtype == np.float32
        assert np.array_equal(model.net.weights[0], expected.weights[0].astype(np.float32))

    def test_bit_identical_reruns(self):
        tr, va, _ = self._data()
        m1 = train(tr, va, self._config())
        m2 = train(tr, va, self._config())
        assert m1.training_log == m2.training_log
        assert np.array_equal(m1.net.theta, m2.net.theta)
        assert np.array_equal(m1.policy.logits, m2.policy.logits)

    def test_masking_invariant_over_full_run(self, monkeypatch):
        tr, va, _ = self._data()
        seen = recorded_selections(monkeypatch)
        train(tr, va, self._config())
        assert seen, "hook never called"
        for S in seen:
            assert np.all(S[:, tr.sensitive_index] == 0)

    def test_early_stopping_respects_patience(self):
        tr, va, _ = self._data()
        model = train(tr, va, self._config(max_epochs=30, patience=2))
        stopped_at = len(model.training_log)
        assert stopped_at <= 30
        if stopped_at < 30:
            assert stopped_at - 1 - model.best_epoch >= 2

    def test_returns_best_validation_epoch(self):
        tr, va, _ = self._data()
        model = train(tr, va, self._config(max_epochs=8, patience=8))
        scores = [r.val_balanced_accuracy for r in model.training_log]
        assert model.best_epoch == int(np.argmax(scores))

    def test_divergence_restores_last_finite_epoch(self, monkeypatch):
        tr, va, _ = self._data()
        real = training.predictor_step
        calls = {"n": 0}

        def poisoned(*args, **kw):
            calls["n"] += 1
            if calls["n"] == 8:
                raise NumericalError("injected blow-up")
            return real(*args, **kw)

        monkeypatch.setattr(training, "predictor_step", poisoned)
        model = train(tr, va, self._config(max_epochs=6))
        assert model.diagnostics is not None
        assert "injected" in model.diagnostics
        assert all(np.isfinite(w).all() for w in model.net.weights)
        assert len(model.training_log) < 6

    def test_divergence_names_epoch_batch_and_block(self, monkeypatch):
        tr, va, _ = self._data()
        real = training.pair_loss_and_grads
        calls = {"n": 0}

        def poisoned(*args, **kw):
            loss, grad, ce, sens = real(*args, **kw)
            calls["n"] += 1
            if calls["n"] == 6:  # epoch 1, batch 2: the last of 3 per epoch
                grad = grad.copy()
                grad[-1] = np.nan  # the last bias coordinate
            return loss, grad, ce, sens

        monkeypatch.setattr(training, "pair_loss_and_grads", poisoned)
        config = self._config(max_epochs=6)
        assert math.ceil(tr.n / config.batch_size) == 3
        model = train(tr, va, config)
        assert model.diagnostics == (
            "training aborted during epoch 1, batch 2: "
            "non-finite gradient in parameter block layer2.bias")
        assert len(model.training_log) == 1

    def test_one_paired_forward_per_batch(self, monkeypatch):
        # both players read one stacked pass per batch (layer_outputs);
        # forward runs only for the threshold05 validation, once per epoch
        tr, va, _ = self._data()
        calls = {"forward": 0, "layer_outputs": 0}

        def counting(name):
            real = getattr(training, name)

            def counted(*args, **kw):
                calls[name] += 1
                return real(*args, **kw)
            return counted

        for name in calls:
            monkeypatch.setattr(training, name, counting(name))
        config = self._config()
        model = train(tr, va, config)
        epochs = len(model.training_log)
        assert epochs == config.max_epochs
        batches = epochs * math.ceil(tr.n / config.batch_size)
        assert calls == {"forward": epochs, "layer_outputs": batches}

    def test_one_class_validation_split_is_a_data_error(self):
        tr, va, _ = self._data()
        one_class = va.subset(va.labels == 0)
        with pytest.raises(DegenerateGroupError):
            train(tr, one_class, self._config(max_epochs=1))

    @pytest.mark.parametrize("max_epochs", [0, 1])
    def test_one_class_validation_split_fails_before_training(self, monkeypatch,
                                                              max_epochs):
        tr, va, _ = self._data()
        steps = []
        monkeypatch.setattr(training, "selector_step",
                            lambda *args, **kw: steps.append(None))
        with pytest.raises(DegenerateGroupError,
                           match=r"^population has no positive \(label 1\) examples$"):
            train(tr, va.subset(va.labels == 0), self._config(max_epochs=max_epochs))
        assert steps == []

    @pytest.mark.parametrize("seed", [5, 6])
    def test_logged_score_is_the_deployed_models(self, seed):
        # each epoch is scored by predict, as tune scores the returned model
        tr, va, _ = self._data()
        model = train(tr, va, self._config(max_epochs=6, patience=6, seed=seed))
        assert model.best_epoch >= 0
        assert (model.training_log[model.best_epoch].val_balanced_accuracy
                == _tune_point(model, va))


class TestPredict:
    def _model(self, logits, seed=0):
        net = make_net(seed, d=4, hidden=(6,), c=2)
        pol = SelectorPolicy(np.asarray(logits, dtype=float), 1)
        return training.TrainedModel(net, pol)

    def test_threshold_all_ones_equals_forward_with_k_zeroed(self):
        model = self._model([30.0, 30.0, 30.0, 30.0])
        x = np.random.default_rng(1).random(4)
        masked = x.copy()
        masked[1] = 0.0
        label, probs = predict_row(model, x)
        assert np.array_equal(probs, forward_row(model.net, masked))
        assert label == int(np.argmax(probs))

    def test_threshold_is_deterministic(self):
        model = self._model([0.3, -0.4, 0.8, -0.2])
        x = np.random.default_rng(2).random(4)
        out1 = predict_row(model, x)
        out2 = predict_row(model, x)
        assert out1[0] == out2[0]
        assert np.array_equal(out1[1], out2[1])

    def test_tie_breaks_toward_lower_class(self):
        net = DenseNet.from_layers([np.zeros((3, 2))], [np.zeros(3)])
        pol = SelectorPolicy(np.zeros(2), 0)
        label, probs = predict_row(training.TrainedModel(net, pol),
                                   np.array([0.4, 0.6]))
        assert label == 0
        assert np.allclose(probs, 1 / 3)

    def test_batch_predictions_match_rows(self):
        model = self._model([0.3, -0.4, 0.8, -0.2])
        X = np.random.default_rng(6).random((5, 4))
        labels, probs = predict(model, X)
        for i in range(5):
            li, pi = predict_row(model, X[i])
            assert li == labels[i]
            # batched and single-row matmuls may differ in the last ulp
            assert np.allclose(pi, probs[i], rtol=1e-10, atol=1e-14)


def deployed_sensitivity_oracle(net, policy, X):
    """Two `forward` calls per row of X: threshold05's input with the
    sensitive value zeroed and present; the float64 row mean of the
    norms of the difference of the probability rows."""
    k = policy.sensitive_index
    kept = probabilities(policy) >= 0.5
    norms = []
    for x in X:
        zeroed = x * kept
        present = zeroed.copy()
        present[k] = x[k]
        diff = (forward(net, present[None, :])[0].astype(np.float64)
                - forward(net, zeroed[None, :])[0].astype(np.float64))
        norms.append(math.sqrt(float(diff @ diff)))
    return math.fsum(norms) / len(norms)


class TestMeanSensitivity:
    """The deployed model's sensitivity: one deterministic paired pass
    over threshold05's input."""

    @staticmethod
    def _instance(seed, n=300):
        net = make_net(seed, d=7, hidden=(9, 6), c=2)
        policy = SelectorPolicy(np.array([0.3, -0.5, 0.2, 0.9, -0.1, 0.4, -0.7]), 2)
        rng = np.random.default_rng(seed + 1)
        X = rng.random((n, 7))
        X[:, 2] = rng.random(n) < 0.6  # the 0/1 sensitive column
        return net, policy, X

    def test_matches_two_forward_oracle_float64(self):
        net, policy, X = self._instance(4)
        assert threshold05_sensitivity(net, policy, X)[0] == \
            pytest.approx(deployed_sensitivity_oracle(net, policy, X), rel=1e-12)

    def test_matches_two_forward_oracle_float32(self):
        # the batched pair and the one-row calls sum the float32 matmuls in
        # different orders: with a random 4x200 float32 net on 5,000
        # bank-shaped rows, row norms (up to 0.15) differed by at most
        # 7.6e-7 and their means by 3.1e-9; 1e-6 bounds even one row
        net, policy, X = self._instance(5)
        net32 = DenseNet(net.sizes, net.theta.astype(np.float32))
        got, want = (threshold05_sensitivity(net32, policy, X)[0],
                     deployed_sensitivity_oracle(net32, policy, X))
        assert want > 1e-3
        assert got == pytest.approx(want, abs=1e-6)

    def test_dead_column_gives_zero(self):
        net = make_net(0, d=3, hidden=(4,), c=2)
        net.weights[0][:, 0] = 0.0
        policy = SelectorPolicy(np.zeros(3), 0)
        X = np.random.default_rng(0).random((10, 3))
        assert threshold05_sensitivity(net, policy, X)[0] == pytest.approx(0.0, abs=1e-15)

    def test_blocks_match_one_unblocked_pair(self):
        # 600 rows run as 600 // SENSITIVITY_BLOCK full blocks and a short
        # final block of 600 % SENSITIVITY_BLOCK rows
        assert training.SENSITIVITY_BLOCK < 600
        assert 600 % training.SENSITIVITY_BLOCK != 0
        net, policy, X = self._instance(3, n=600)
        S = np.tile(probabilities(policy) >= 0.5, (600, 1))
        unblocked = sensitivity_pair(net, X, S, 2)
        sens, probs = threshold05_sensitivity(net, policy, X)
        assert sens == pytest.approx(unblocked.norms.mean(), rel=1e-12, abs=0)
        np.testing.assert_allclose(probs, unblocked.p_sel, rtol=1e-12, atol=0)

    def test_float32_net_gives_a_float_near_float64(self):
        # the float32 norms are averaged in float64 into a Python float
        net, policy, X = self._instance(2)
        net32 = DenseNet(net.sizes, net.theta.astype(np.float32))
        (est32, probs32), (est64, probs64) = (threshold05_sensitivity(n, policy, X)
                                              for n in (net32, net))
        assert type(est32) is float and type(est64) is float
        assert est32 == pytest.approx(est64, rel=1e-5)
        assert (probs32.dtype, probs64.dtype) == (np.float32, np.float64)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_probability_rows_are_predicts(self, dtype):
        # 600 rows: several blocks and a short last one; predict runs them
        # in one call, so the bits may differ, but not the labels (249 of
        # the rows are class 1; the closest is 4.5e-5 from a tie)
        net, policy, X = self._instance(7, n=600)
        net = DenseNet(net.sizes, net.theta.astype(dtype))
        model = training.TrainedModel(net, policy)
        labels, want = predict(model, X)
        probs = threshold05_sensitivity(net, policy, X)[1]
        assert probs.shape == (600, 2) and probs.dtype == dtype
        np.testing.assert_allclose(probs, want, rtol=1e-12 if dtype is np.float64 else 1e-6)
        assert 0 < labels.sum() < 600
        assert np.array_equal(probs.argmax(axis=1), labels)

    def test_no_rows_is_an_empty_batch(self):
        net, policy, X = self._instance(0)
        with pytest.raises(ValueError, match="empty batch"):
            threshold05_sensitivity(net, policy, X[:0])


class TestTrainConfig:
    def test_patience_clamped_to_max_epochs(self):
        cfg = TrainConfig(max_epochs=5, patience=50)
        assert cfg.patience == 5

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha_theta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha_phi=-1e-4)

    def test_retired_inference_options_are_not_fields(self):
        # threshold05 is the one inference rule: a caller that still
        # names a policy or a draw count fails instead of being ignored
        assert len(dataclasses.fields(TrainConfig)) == 9
        for retired in ("inference_policy", "mc_samples"):
            with pytest.raises(TypeError, match=retired):
                TrainConfig(**{retired: 1})

    def test_negative_sensitivity_weight(self):
        with pytest.raises(ValueError):
            TrainConfig(sensitivity_weight=-0.1)

    def test_round_trip_dict(self):
        cfg = TrainConfig(sensitivity_weight=0.3, hidden_sizes=(16, 8))
        assert TrainConfig(**dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize("field,value", [
        ("alpha_theta", math.nan), ("alpha_phi", math.inf),
        ("sensitivity_weight", math.nan), ("sensitivity_weight", math.inf),
        ("patience", -1),
        # an integer past float range is no OverflowError
        pytest.param("alpha_theta", 10**400, id="alpha_theta-int-past-float"),
        pytest.param("sensitivity_weight", -10**400,
                     id="sensitivity_weight-int-past-float")])
    def test_non_finite_or_negative_value_is_rejected(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", ["32", (8.9, 6), (True, 6), (), [8, 0], (-1,),
                                       None, 32])
    def test_hidden_sizes_must_be_positive_ints(self, value):
        # int() would read "32" as (3, 2), 8.9 as 8 and True as 1
        with pytest.raises(ValueError, match="hidden_sizes must be"):
            TrainConfig(hidden_sizes=value)

    def test_hidden_sizes_list_becomes_tuple(self):
        assert TrainConfig(hidden_sizes=[16, 8]).hidden_sizes == (16, 8)

    def test_numpy_hidden_sizes_are_stored_as_ints(self):
        # as the counts are: a checkpoint must json-encode them
        cfg = TrainConfig(hidden_sizes=tuple(np.array([32, 32])))
        assert cfg.hidden_sizes == (32, 32)
        assert all(type(h) is int for h in cfg.hidden_sizes)


class TestBatchesOnly:
    """A single 1-D row is a DimensionError, never silently promoted."""

    def test_one_dimensional_arguments_raise(self):
        net = make_net(0, d=4, hidden=(5,), c=2)
        policy = SelectorPolicy(np.zeros(4), 1)
        model = training.TrainedModel(net, policy)
        x, s = np.full(4, 0.5), np.array([1, 0, 1, 1], dtype=np.int8)
        pair = sensitivity_pair(net, x[None, :], s[None, :], 1)
        rng = np.random.default_rng(0)
        calls = [lambda: predict(model, x),
                 lambda: sensitivity_pair(net, x, s, 1),
                 lambda: selector_step(policy, x, net, 0.1, rng),
                 lambda: pair_loss_and_grads(net, pair, np.array([0.0, 1.0]), 1.0),
                 lambda: threshold05_sensitivity(net, policy, x)]
        for call in calls:
            with pytest.raises(DimensionError):
                call()
