import math

import numpy as np
import pytest

import fairsel.baseline as baseline
import fairsel.data
import fairsel.metrics
from fairsel.baseline import (EPOCH_BLOCK, LogisticModel, logistic_loss_and_grad,
                              predict_logistic_batch, train_logistic)
from fairsel.data import (ColumnSpec, Dataset, DatasetSpec, Encoder, Predicate,
                          load_csv, prepare_splits, split, synth_proxy)
from fairsel.errors import DegenerateGroupError, DimensionError, NumericalError
from fairsel.diagnostics import relative_error
from fairsel.selector import sigmoid


def reference_trajectory(train_data, val_data, *, epochs, lr):
    """(score, weights, bias) after each epoch of train_logistic's loop as
    it was when every epoch built a LogisticModel and scored its labels
    on its own, with the gradient and balanced accuracy written out."""
    X, y = train_data.features, train_data.labels
    w, b = np.zeros(X.shape[1]), 0.0
    for _ in range(epochs):
        resid = sigmoid(X @ w + b) - y
        gw, gb = X.T @ resid / X.shape[0], float(resid.mean())
        if not (np.isfinite(gw).all() and np.isfinite(gb)):
            raise NumericalError("logistic training diverged")
        w = w - lr * gw
        b = b - lr * gb
        labels, _ = predict_logistic_batch(LogisticModel(w, b), val_data.features)
        rates = []
        for label in (1, 0):
            actual = val_data.labels == label
            n = int(actual.sum())
            if n == 0:
                raise DegenerateGroupError(
                    f"population has no {'positive' if label else 'negative'} "
                    f"(label {label}) examples")
            rates.append(int((actual & (labels == label)).sum()) / n)
        yield 0.5 * (rates[0] + rates[1]), w.copy(), b


def reference_train_logistic(train_data, val_data, *, epochs, lr):
    """The parameters of the first epoch with the best score."""
    best = (-np.inf, None, None)
    for score, w, b in reference_trajectory(train_data, val_data, epochs=epochs, lr=lr):
        if score > best[0]:
            best = (score, w, b)
    return LogisticModel(best[1], best[2])


def assert_same_fit(tr, va, epochs, lr):
    want = reference_train_logistic(tr, va, epochs=epochs, lr=lr)
    got = train_logistic(tr, va, epochs=epochs, lr=lr)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert math.copysign(1, got.bias) == math.copysign(1, want.bias)
    assert got.bias == want.bias


@pytest.fixture(scope="module")
def german_splits(german_csv, german_spec_path):
    spec = DatasetSpec.from_json(german_spec_path)
    raw = load_csv(german_csv, spec)
    return [prepare_splits(raw, spec, seed)[:2] for seed in range(3)]


def toy_dataset(X, y):
    """Numeric columns f0, f1, ... holding X, after a 0/1 sensitive column
    "group" that is 1 where f0 > 0.5; labels y."""
    X = np.asarray(X, dtype=float)
    names = [f"f{i}" for i in range(X.shape[1])]
    spec = DatasetSpec([ColumnSpec(c, "numeric") for c in ["group"] + names],
                       "y", "1", "group", Predicate(op="eq", value=1))
    layout = [{"name": "group", "role": "sensitive"}] + [
        {"name": c, "role": "numeric", "min": 0.0, "max": 1.0} for c in names]
    features = np.column_stack([X[:, 0] > 0.5, X])
    return Dataset(features, y, Encoder(spec, layout, ["0", "1"]))


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
        assert (labels == ds.labels).mean() == 1.0

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fewer_than_one_epoch_is_rejected(self, epochs):
        ds = separable()
        with pytest.raises(ValueError, match="epochs"):
            train_logistic(ds, ds, epochs=epochs, lr=0.1)

    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf])
    def test_non_positive_or_non_finite_lr_is_rejected(self, lr):
        ds = separable()
        with pytest.raises(ValueError, match="lr"):
            train_logistic(ds, ds, epochs=5, lr=lr)

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
        w = np.zeros(4)
        b = 0.0
        initial, _, _ = logistic_loss_and_grad(w, b, X, y)
        for _ in range(200):
            _, gw, gb = logistic_loss_and_grad(w, b, X, y)
            w, b = w - 1e-3 * gw, b - 1e-3 * gb
        final, _, _ = logistic_loss_and_grad(w, b, X, y)
        assert final <= initial


class TestBlockScoredFit:
    @pytest.mark.parametrize("n,corr,seed", [(300, 0.8, 1), (1000, 0.95, 2), (5000, 0.95, 3)])
    @pytest.mark.parametrize("epochs", [1, EPOCH_BLOCK - 1, EPOCH_BLOCK, EPOCH_BLOCK + 1, 400])
    def test_matches_the_per_epoch_loop_on_proxy_splits(self, n, corr, seed, epochs):
        tr, va, _ = split(synth_proxy(n, corr, seed), seed)
        assert_same_fit(tr, va, epochs, 0.5)

    @pytest.mark.parametrize("rep", range(3))
    def test_matches_the_per_epoch_loop_on_german_splits(self, german_splits, rep):
        tr, va = german_splits[rep]
        assert_same_fit(tr, va, 500, 0.1)

    def test_the_first_of_tied_epochs_wins_across_blocks(self):
        # the toy is separable, so validation (the training set itself)
        # reaches its best score and keeps it in later blocks
        ds = separable()
        epochs = 4 * EPOCH_BLOCK
        steps = list(reference_trajectory(ds, ds, epochs=epochs, lr=1.0))
        scores = [score for score, _, _ in steps]
        first = scores.index(max(scores))
        tied = [e for e, score in enumerate(scores) if score == max(scores)]
        assert first // EPOCH_BLOCK < tied[-1] // EPOCH_BLOCK
        assert not np.array_equal(steps[first][1], steps[tied[-1]][1])
        got = train_logistic(ds, ds, epochs=epochs, lr=1.0)
        assert got.weights.tobytes() == steps[first][1].tobytes()
        assert got.bias == steps[first][2]

    @pytest.mark.parametrize("missing", [0, 1])
    def test_validation_missing_a_class_fails_as_before(self, missing):
        tr, va, _ = split(synth_proxy(400, 0.8, 4), 4)
        va = va.subset(np.flatnonzero(va.labels != missing))
        with pytest.raises(DegenerateGroupError) as want:
            reference_train_logistic(tr, va, epochs=5, lr=0.5)
        with pytest.raises(DegenerateGroupError) as got:
            train_logistic(tr, va, epochs=5, lr=0.5)
        assert str(got.value) == str(want.value)

    def test_divergent_lr_fails_as_before(self):
        # the step overflows float64 within 200 epochs on this split
        tr, va, _ = split(synth_proxy(300, 0.8, 2), 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                reference_train_logistic(tr, va, epochs=200, lr=1.7e308)
            with pytest.raises(NumericalError, match="diverged"):
                train_logistic(tr, va, epochs=200, lr=1.7e308)

    def test_non_finite_gradient_fails(self, monkeypatch):
        real = baseline.logistic_grad

        def nan_at_third_epoch(*args, calls=[]):
            calls.append(None)
            gw, gb, p = real(*args)
            return (gw * np.nan, gb, p) if len(calls) == 3 else (gw, gb, p)

        monkeypatch.setattr(baseline, "logistic_grad", nan_at_third_epoch)
        tr, va, _ = split(synth_proxy(300, 0.8, 1), 1)
        with pytest.raises(NumericalError, match="diverged"):
            train_logistic(tr, va, epochs=10, lr=0.5)

    @pytest.mark.parametrize("epochs", [1, 10, 400])
    def test_per_epoch_metric_calls_do_not_grow_with_epochs(self, monkeypatch, epochs):
        calls = {"balanced_accuracy": 0, "balanced_accuracies": 0, "GroupedOutcomes": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (baseline, fairsel.metrics, fairsel.data):
            for name in calls:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
        tr, va, _ = split(synth_proxy(300, 0.8, 1), 1)
        train_logistic(tr, va, epochs=epochs, lr=0.5)
        # one up-front check of the validation labels, then one call per block
        assert calls == {"balanced_accuracy": 0, "GroupedOutcomes": 0,
                         "balanced_accuracies": 1 + math.ceil(epochs / EPOCH_BLOCK)}


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
