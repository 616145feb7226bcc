import numpy as np
import pytest

from fairsel.baseline import (LogisticModel, logistic_loss_and_grad,
                              predict_logistic_batch, train_logistic)
from fairsel.data import Dataset, synth_proxy, split
from fairsel.errors import DimensionError
from fairsel.diagnostics import relative_error


def toy_dataset(X, y, k=0):
    n = len(y)
    labels = np.zeros((n, 2))
    labels[np.arange(n), y] = 1.0
    return Dataset(np.asarray(X, dtype=float), labels, k,
                   np.asarray(X)[:, k] > 0.5,
                   [f"f{i}" for i in range(np.asarray(X).shape[1])])


def separable():
    rng = np.random.default_rng(0)
    n = 80
    X = rng.random((n, 2))
    y = (X[:, 1] > X[:, 0]).astype(int)
    # keep a margin so the problem is strictly separable
    keep = np.abs(X[:, 1] - X[:, 0]) > 0.1
    return toy_dataset(X[keep], y[keep])


class TestTrainLogistic:
    def test_separable_toy_reaches_full_accuracy(self):
        ds = separable()
        model = train_logistic(ds, ds, epochs=500, lr=1.0)
        labels, _ = predict_logistic_batch(model, ds.features)
        assert (labels == ds.label_indices()).mean() == 1.0

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fewer_than_one_epoch_is_rejected(self, epochs):
        ds = separable()
        with pytest.raises(ValueError, match="epochs"):
            train_logistic(ds, ds, epochs=epochs)

    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf])
    def test_non_positive_or_non_finite_lr_is_rejected(self, lr):
        ds = separable()
        with pytest.raises(ValueError, match="lr"):
            train_logistic(ds, ds, epochs=5, lr=lr)

    @pytest.mark.parametrize("l2", [-0.5, np.nan, np.inf])
    def test_negative_or_non_finite_l2_is_rejected(self, l2):
        ds = separable()
        with pytest.raises(ValueError, match="l2"):
            train_logistic(ds, ds, epochs=5, l2=l2)

    def test_deterministic(self):
        ds = synth_proxy(400, 0.8, seed=1)
        tr, va, _ = split(ds, 2)
        m1 = train_logistic(tr, va, epochs=100, lr=0.3)
        m2 = train_logistic(tr, va, epochs=100, lr=0.3)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_loss_monotone_at_small_lr(self):
        rng = np.random.default_rng(3)
        X = rng.random((60, 4))
        y = (rng.random(60) < 0.5).astype(int)
        ds = toy_dataset(X, y)
        yv = ds.labels[:, 1]
        w = np.zeros(4)
        b = 0.0
        initial, _, _ = logistic_loss_and_grad(w, b, X, yv)
        for _ in range(200):
            _, gw, gb = logistic_loss_and_grad(w, b, X, yv)
            w, b = w - 1e-3 * gw, b - 1e-3 * gb
        final, _, _ = logistic_loss_and_grad(w, b, X, yv)
        assert final <= initial


class TestGradient:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 12, 3
        X = rng.random((n, d))
        y = (rng.random(n) < 0.5).astype(float)
        w = rng.normal(0, 1, size=d)
        b = float(rng.normal())
        _, gw, gb = logistic_loss_and_grad(w, b, X, y)
        h = 1e-6
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            lp, _, _ = logistic_loss_and_grad(wp, b, X, y)
            lm, _, _ = logistic_loss_and_grad(wm, b, X, y)
            assert relative_error(gw[j], (lp - lm) / (2 * h)) < 1e-6
        lp, _, _ = logistic_loss_and_grad(w, b + h, X, y)
        lm, _, _ = logistic_loss_and_grad(w, b - h, X, y)
        assert relative_error(gb, (lp - lm) / (2 * h)) < 1e-6

    def test_l2_term(self):
        rng = np.random.default_rng(1)
        X = rng.random((10, 2))
        y = (rng.random(10) < 0.5).astype(float)
        w = rng.normal(0, 1, size=2)
        base, gw0, _ = logistic_loss_and_grad(w, 0.0, X, y, l2=0.0)
        reg, gw1, _ = logistic_loss_and_grad(w, 0.0, X, y, l2=0.5)
        assert reg == pytest.approx(base + 0.25 * float(w @ w))
        assert np.allclose(gw1 - gw0, 0.5 * w)


class TestPredictLogistic:
    def test_zero_model_ties_to_favorable(self):
        model = LogisticModel(np.zeros(3), 0.0)
        labels, probs = predict_logistic_batch(model, np.ones((1, 3)))
        assert probs[0] == 0.5
        assert labels[0] == 1

    def test_large_bias_saturates(self):
        model = LogisticModel(np.zeros(2), 40.0)
        labels, probs = predict_logistic_batch(model, np.zeros((1, 2)))
        assert labels[0] == 1
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_sigmoid(self):
        import math
        rng = np.random.default_rng(4)
        model = LogisticModel(rng.normal(0, 1, 3), 0.3)
        x = rng.random(3)
        z = float(x @ model.weights + model.bias)
        _, probs = predict_logistic_batch(model, x[None, :])
        assert probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-12)

    def test_scaling_invariance_of_labels(self):
        rng = np.random.default_rng(5)
        model = LogisticModel(rng.normal(0, 1, 4), -0.2)
        scaled = LogisticModel(3.7 * model.weights, 3.7 * model.bias)
        X = rng.random((50, 4))
        l1, p1 = predict_logistic_batch(model, X)
        l2, p2 = predict_logistic_batch(scaled, X)
        assert np.array_equal(l1, l2)
        assert not np.allclose(p1, p2)

    def test_dimension_mismatch(self):
        model = LogisticModel(np.zeros(3), 0.0)
        with pytest.raises(DimensionError):
            predict_logistic_batch(model, np.ones((1, 4)))
