import dataclasses
import math

import numpy as np
import pytest

from conftest import forward_row, make_net, naive_forward, recorded_selections
from fairsel.data import synth_proxy, split
from fairsel.errors import DegenerateGroupError, DimensionError, NumericalError
from fairsel.nets import AdamState, DenseNet, adam_step
from fairsel.selector import (SelectorPolicy, enumerate_selections,
                              probabilities)
from fairsel import training
from fairsel.training import (TrainConfig, apply_selection,
                              enumerate_sensitivity, mean_sensitivity,
                              pair_loss_and_grads, predict, predictor_step,
                              selector_step, sensitivity_pair, train)


def sensitivity_norm(net, x, s, k):
    return float(sensitivity_pair(net, x[None, :], s[None, :], k).norms[0])


def cross_entropy(net, x, s, y):
    """Loss of the pair routine with the sensitivity term weighted 0."""
    pair = sensitivity_pair(net, x[None, :], s[None, :], 0)
    loss, _, _, _ = pair_loss_and_grads(net, pair, y[None, :], 0.0)
    return loss


def predict_row(model, x, rng=None):
    labels, probs = predict(model, x[None, :], rng=rng)
    return int(labels[0]), probs[0]


def sensitivity_only(net, X, S, k):
    """Loss and gradients of the pair routine with the cross-entropy term
    weighted 0."""
    pair = sensitivity_pair(net, X, S, k)
    loss, grads, _, _ = pair_loss_and_grads(
        net, pair, np.zeros_like(pair.p_sel), 1.0, ce_weight=0.0)
    return loss, grads


class TestApplySelection:
    def test_partial(self):
        out = apply_selection(np.array([0.2, 0.7, 0.9]), np.array([1, 0, 1]))
        assert np.array_equal(out, [0.2, 0.0, 0.9])

    def test_full_identity(self):
        x = np.array([0.1, 0.2])
        assert np.array_equal(apply_selection(x, np.ones(2, dtype=int)), x)

    def test_empty_zero(self):
        assert np.array_equal(
            apply_selection(np.array([0.1, 0.2]), np.zeros(2, dtype=int)),
            [0.0, 0.0])


class TestSensitivityLoss:
    def test_k_already_selected_is_zero(self):
        net = make_net(0, d=3, hidden=(4,), c=2)
        x = np.array([0.5, 0.2, 0.9])
        s = np.array([1, 1, 0])  # k = 1 already in s (mask disabled upstream)
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
        net = DenseNet([np.zeros((2, 3))], [np.array([60.0, 0.0])])
        loss = cross_entropy(net, np.ones(3), np.ones(3, dtype=int),
                             np.array([1.0, 0.0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_gives_log_c(self):
        net = DenseNet([np.zeros((4, 2))], [np.zeros(4)])
        loss = cross_entropy(net, np.ones(2), np.ones(2, dtype=int),
                             np.array([0.0, 1.0, 0.0, 0.0]))
        assert loss == pytest.approx(math.log(4), rel=1e-12)

    def test_quarter_probability_frozen_value(self):
        # output [0.25, 0.75] via bias ln(3) on class 1
        net = DenseNet([np.zeros((2, 2))], [np.array([0.0, math.log(3.0)])])
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

    def test_masked_coordinate_never_moves(self):
        net = make_net(2, d=5, hidden=(6,), c=2)
        policy = SelectorPolicy.initialize(5, 3, np.random.default_rng(3))
        X = np.random.default_rng(4).random((16, 5))
        rng = np.random.default_rng(5)
        for _ in range(50):
            policy, pair = selector_step(policy, X, net, 0.7, rng)
            assert np.all(pair.S[:, 3] == 0)
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
        net, policy, x = estimator_instance(d=5)
        _, exact = enumerate_sensitivity(net, policy, x)
        rng = np.random.default_rng(0)
        X = np.tile(x, (64, 1))
        total = np.zeros(5)
        for _ in range(1000):  # 64k draws in total
            stepped, _ = selector_step(policy, X, net, 1.0, rng)
            total += stepped.logits - policy.logits
        cos = float(total @ exact / (np.linalg.norm(total) * np.linalg.norm(exact)))
        assert cos >= 0.95

    def test_baseline_subtraction_keeps_expectation(self):
        from fairsel.diagnostics import estimator_instance
        net, policy, x = estimator_instance(d=5)
        _, exact = enumerate_sensitivity(net, policy, x)
        rng = np.random.default_rng(1)
        X = np.tile(x, (64, 1))
        total = np.zeros(5)
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
        from fairsel.nets import selu, selu_deriv, softmax
        z1 = x_sel @ net.weights[0].T + net.biases[0]
        a1 = selu(z1)
        probs = softmax(a1 @ net.weights[1].T + net.biases[1])
        delta2 = (probs - Y) / 6.0
        gw2 = delta2.T @ a1
        gb2 = delta2.sum(axis=0)
        delta1 = (delta2 @ net.weights[1]) * selu_deriv(z1)
        gw1 = delta1.T @ x_sel
        gb1 = delta1.sum(axis=0)
        oracle_params, _ = adam_step(net.params(), [gw1, gb1, gw2, gb2],
                                     AdamState.for_params(net.params()), 1e-3)

        stepped, _, _, _ = predictor_step(net, sensitivity_pair(net, X, S, 0), Y,
                                          AdamState.for_params(net.params()),
                                          1e-3, 0.0)
        for a, b in zip(stepped.params(), oracle_params):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_zero_gradients_leave_net_bit_identical(self):
        # dead sensitive pathway (zero weights) and a saturated output:
        # every gradient underflows against O(10) parameters
        net = DenseNet([np.zeros((2, 3))], [np.array([80.0, 10.0])])
        X = np.random.default_rng(0).random((4, 3))
        Y = np.tile([1.0, 0.0], (4, 1))
        S = np.zeros((4, 3), dtype=np.int8)
        stepped, _, _, _ = predictor_step(net, sensitivity_pair(net, X, S, 0), Y,
                                          AdamState.for_params(net.params()),
                                          1e-4, 1.0)
        for a, b in zip(stepped.params(), net.params()):
            assert np.array_equal(a, b)

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

    def test_tiny_norm_uses_zero_subgradient(self):
        net = make_net(4, d=3, hidden=(4,), c=2)
        net.weights[0][:, 1] = 0.0
        X = np.random.default_rng(1).random((3, 3))
        S = np.array([[1, 0, 0]] * 3, dtype=np.int8)
        loss, grads = sensitivity_only(net, X, S, 1)
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert all(np.allclose(g, 0.0, atol=1e-15) for g in grads)


class TestAdversarialSigns:
    """First-order directional checks against enumeration gradients."""

    def _instance(self):
        net = make_net(8, d=5, hidden=(8,), c=2)
        net = DenseNet([2.5 * w for w in net.weights], net.biases)
        policy = SelectorPolicy(np.random.default_rng(2).normal(0, 0.4, 5), 0)
        x = np.random.default_rng(3).random(5)
        return net, policy, x

    def test_selector_ascent_increases_objective(self):
        net, policy, x = self._instance()
        value, grad = enumerate_sensitivity(net, policy, x)
        assert np.linalg.norm(grad) > 1e-8
        stepped = policy.with_logits(policy.logits + 1e-4 * grad)
        value2, _ = enumerate_sensitivity(net, stepped, x)
        assert value2 > value

    def test_predictor_descent_decreases_objective(self):
        net, policy, x = self._instance()
        p = probabilities(policy)
        S_all = enumerate_selections(5, masked_index=0)
        pi = np.prod(np.where(S_all == 1, p, 1 - p), axis=1)

        def expected_value_and_grads(net_):
            val = 0.0
            acc = [np.zeros_like(g) for g in net_.params()]
            for weight, s in zip(pi, S_all):
                loss, grads = sensitivity_only(net_, x[None, :], s[None, :], 0)
                val += weight * loss
                acc = [a + weight * g for a, g in zip(acc, grads)]
            return val, acc

        value, grads = expected_value_and_grads(net)
        stepped = net.with_params([p_ - 1e-4 * g
                                   for p_, g in zip(net.params(), grads)])
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
        assert np.array_equal(model.net.weights[0], expected.weights[0])

    def test_bit_identical_reruns(self):
        tr, va, _ = self._data()
        m1 = train(tr, va, self._config())
        m2 = train(tr, va, self._config())
        assert m1.training_log == m2.training_log
        for a, b in zip(m1.net.params(), m2.net.params()):
            assert np.array_equal(a, b)
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

    def test_unmasked_ablation_can_select_sensitive(self, monkeypatch):
        tr, va, _ = self._data()
        seen = recorded_selections(monkeypatch)
        train(tr, va, self._config(mask_sensitive=False))
        total = sum(int(S[:, tr.sensitive_index].sum()) for S in seen)
        assert total > 0

    def test_one_paired_forward_per_batch(self, monkeypatch):
        # both players read one pair per batch: 2 forward calls, plus the
        # one threshold05 validation forward per epoch
        tr, va, _ = self._data()
        real = training.forward
        calls = {"n": 0}

        def counting(*args, **kw):
            calls["n"] += 1
            return real(*args, **kw)

        monkeypatch.setattr(training, "forward", counting)
        config = self._config()
        model = train(tr, va, config)
        epochs = len(model.training_log)
        assert epochs == config.max_epochs
        batches = epochs * math.ceil(tr.n / config.batch_size)
        assert calls["n"] == 2 * batches + epochs

    def test_one_class_validation_split_is_a_data_error(self):
        tr, va, _ = self._data()
        one_class = va.subset(va.label_indices() == 0)
        with pytest.raises(DegenerateGroupError):
            train(tr, one_class, self._config(max_epochs=1))


class TestPredict:
    def _model(self, logits, seed=0, policy="threshold05", mc=16):
        net = make_net(seed, d=4, hidden=(6,), c=2)
        pol = SelectorPolicy(np.asarray(logits, dtype=float), 1)
        cfg = TrainConfig(max_epochs=0, patience=0, seed=3,
                          inference_policy=policy, mc_samples=mc,
                          hidden_sizes=(6,))
        return training.TrainedModel(net, pol, cfg)

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

    def test_expected_input_policy(self):
        model = self._model([0.5, 2.0, -0.3, 0.1], policy="expected-input")
        x = np.random.default_rng(3).random(4)
        p = probabilities(model.policy)
        _, probs = predict_row(model, x)
        assert np.allclose(probs, forward_row(model.net, x * p))

    def test_mc_average_converges_to_enumeration(self):
        model = self._model([0.4, 1.0, -0.6, 0.2], policy="mc-average",
                            mc=40_000)
        x = np.random.default_rng(4).random(4)
        p = probabilities(model.policy)
        S_all = enumerate_selections(4, masked_index=1)
        pi = np.prod(np.where(S_all == 1, p, 1 - p), axis=1)
        exact = sum(w * forward_row(model.net, x * s) for w, s in zip(pi, S_all))
        _, probs = predict_row(model, x, rng=np.random.default_rng(9))
        assert np.all(np.abs(probs - exact) / exact < 0.01)

    def test_mc_average_default_rng_is_deterministic(self):
        model = self._model([0.4, 1.0, -0.6, 0.2], policy="mc-average", mc=32)
        x = np.random.default_rng(5).random(4)
        _, p1 = predict_row(model, x)
        _, p2 = predict_row(model, x)
        assert np.array_equal(p1, p2)

    def test_tie_breaks_toward_lower_class(self):
        net = DenseNet([np.zeros((3, 2))], [np.zeros(3)])
        pol = SelectorPolicy(np.zeros(2), 0)
        cfg = TrainConfig(max_epochs=0, patience=0, hidden_sizes=(1,))
        label, probs = predict_row(training.TrainedModel(net, pol, cfg),
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


class TestMeanSensitivity:
    def test_dead_column_gives_zero(self):
        net = make_net(0, d=3, hidden=(4,), c=2)
        net.weights[0][:, 0] = 0.0
        policy = SelectorPolicy(np.zeros(3), 0)
        X = np.random.default_rng(0).random((10, 3))
        assert mean_sensitivity(net, policy, X, n_samples=4,
                                rng=np.random.default_rng(1)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_matches_enumeration_on_single_row(self):
        from fairsel.diagnostics import estimator_instance
        net, policy, x = estimator_instance(d=5)
        exact, _ = enumerate_sensitivity(net, policy, x)
        est = mean_sensitivity(net, policy, x[None, :], n_samples=4000,
                               rng=np.random.default_rng(2))
        assert est == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_is_an_error(self, n_samples):
        net = make_net(0, d=3, hidden=(4,), c=2)
        policy = SelectorPolicy(np.zeros(3), 0)
        with pytest.raises(ValueError, match="n_samples"):
            mean_sensitivity(net, policy, np.ones((2, 3)), n_samples=n_samples)


class TestScoreFunctionEstimate:
    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_is_an_error(self, n_samples):
        from fairsel.diagnostics import estimator_instance
        net, policy, x = estimator_instance(d=5)
        with pytest.raises(ValueError, match="n_samples"):
            training.score_function_estimate(net, policy, x, n_samples,
                                             np.random.default_rng(0))


class TestTrainConfig:
    def test_patience_clamped_to_max_epochs(self):
        cfg = TrainConfig(max_epochs=5, patience=50)
        assert cfg.patience == 5

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha_theta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha_phi=-1e-4)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            TrainConfig(inference_policy="magic")

    def test_negative_sensitivity_weight(self):
        with pytest.raises(ValueError):
            TrainConfig(sensitivity_weight=-0.1)

    def test_round_trip_dict(self):
        cfg = TrainConfig(sensitivity_weight=0.3, hidden_sizes=(16, 8))
        assert TrainConfig(**dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize("field,value", [
        ("alpha_theta", math.nan), ("alpha_phi", math.inf),
        ("sensitivity_weight", math.nan), ("sensitivity_weight", math.inf),
        ("patience", -1)])
    def test_non_finite_or_negative_value_is_rejected(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})


class TestBatchesOnly:
    """A single 1-D row is a DimensionError, never silently promoted."""

    def test_one_dimensional_arguments_raise(self):
        net = make_net(0, d=4, hidden=(5,), c=2)
        policy = SelectorPolicy(np.zeros(4), 1)
        model = training.TrainedModel(net, policy, TrainConfig(hidden_sizes=(5,)))
        x, s = np.full(4, 0.5), np.array([1, 0, 1, 1], dtype=np.int8)
        pair = sensitivity_pair(net, x[None, :], s[None, :], 1)
        rng = np.random.default_rng(0)
        calls = [lambda: predict(model, x),
                 lambda: sensitivity_pair(net, x, s, 1),
                 lambda: selector_step(policy, x, net, 0.1, rng),
                 lambda: pair_loss_and_grads(net, pair, np.array([0.0, 1.0]), 1.0),
                 lambda: mean_sensitivity(net, policy, x, rng=rng)]
        for call in calls:
            with pytest.raises(DimensionError):
                call()
