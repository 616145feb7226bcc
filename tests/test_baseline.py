import math

import numpy as np
import pytest

import fairsel.baseline as baseline
import fairsel.data
import fairsel.metrics
from conftest import logistic_model
from fairsel.baseline import (EPOCH_BLOCK, fit_logistic, logistic_grad,
                              logistic_net, train_logistic)
from fairsel.data import (ColumnSpec, Dataset, DatasetSpec, Encoder, Predicate,
                          load_csv, prepare_splits, split, synth_proxy)
from fairsel.errors import DegenerateGroupError, DimensionError, NumericalError
from fairsel.diagnostics import relative_error
from fairsel.nets import forward
from fairsel.report import evaluate_model
from fairsel.selector import sigmoid
from fairsel.training import predict


def cross_entropy(w, b, X, y):
    """Mean cross-entropy of the float64 (d, 2) net of (w, b)."""
    p = forward(logistic_net(w, b), X)[np.arange(len(y)), y]
    return float(-np.log(p).mean())


def reference_trajectory(train_data, val_data, *, epochs, lr):
    """(score, weights, bias) after each epoch of fit_logistic's loop as
    it was when every epoch scored its labels on its own, with the
    gradient, the labels and balanced accuracy written out."""
    X, y = train_data.features, train_data.labels
    w, b = np.zeros(X.shape[1]), 0.0
    for _ in range(epochs):
        resid = sigmoid(X @ w + b) - y
        gw, gb = X.T @ resid / X.shape[0], float(resid.mean())
        if not (np.isfinite(gw).all() and np.isfinite(gb)):
            raise NumericalError("logistic training diverged")
        w = w - lr * gw
        b = b - lr * gb
        labels = (val_data.features @ w + b > 0).astype(np.int64)
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
    """The (weights, bias) of the first epoch with the best score."""
    best = (-np.inf, None, None)
    for score, w, b in reference_trajectory(train_data, val_data, epochs=epochs, lr=lr):
        if score > best[0]:
            best = (score, w, b)
    return best[1], best[2]


def assert_same_fit(tr, va, epochs, lr):
    want_w, want_b = reference_train_logistic(tr, va, epochs=epochs, lr=lr)
    got_w, got_b = fit_logistic(tr, va, epochs=epochs, lr=lr)
    assert got_w.tobytes() == want_w.tobytes()
    assert math.copysign(1, got_b) == math.copysign(1, want_b)
    assert got_b == want_b


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
        labels, _ = predict(model, ds.features)
        assert (labels == ds.labels).mean() == 1.0

    def test_deployed_net_is_the_fit_rounded_to_float32(self):
        # a (d, 2) net with no hidden layer that reads every column: class
        # 0's row and bias are zero, class 1's are the float64 fit's
        tr, va, _ = split(synth_proxy(400, 0.8, seed=1), 2)
        w, b = fit_logistic(tr, va, epochs=100, lr=0.3)
        model = train_logistic(tr, va, epochs=100, lr=0.3)
        d = tr.features.shape[1]
        assert model.net.sizes == (d, 2)
        want = np.concatenate([np.zeros(d), w, [0.0, b]]).astype(np.float32)
        assert model.net.theta.dtype == np.float32
        assert model.net.theta.tobytes() == want.tobytes()
        assert model.policy is None
        assert model.kept.dtype == bool and model.kept.all()

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
        assert m1.net.theta.tobytes() == m2.net.theta.tobytes()

    def test_loss_monotone_at_small_lr(self):
        rng = np.random.default_rng(3)
        X = rng.random((60, 4))
        y = (rng.random(60) < 0.5).astype(int)
        w = np.zeros(4)
        b = 0.0
        initial = cross_entropy(w, b, X, y)
        for _ in range(200):
            gw, gb, _ = logistic_grad(w, b, X, y)
            w, b = w - 1e-3 * gw, b - 1e-3 * gb
        final = cross_entropy(w, b, X, y)
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
        got_w, got_b = fit_logistic(ds, ds, epochs=epochs, lr=1.0)
        assert got_w.tobytes() == steps[first][1].tobytes()
        assert got_b == steps[first][2]

    @pytest.mark.parametrize("missing", [0, 1])
    def test_validation_missing_a_class_fails_as_before(self, missing):
        tr, va, _ = split(synth_proxy(400, 0.8, 4), 4)
        va = va.subset(np.flatnonzero(va.labels != missing))
        with pytest.raises(DegenerateGroupError) as want:
            reference_train_logistic(tr, va, epochs=5, lr=0.5)
        with pytest.raises(DegenerateGroupError) as got:
            train_logistic(tr, va, epochs=5, lr=0.5)
        assert str(got.value) == str(want.value)

    def test_zero_logit_validation_row_is_class_zero(self, monkeypatch):
        # balanced training labels leave b at 0 after the first step, so the
        # all-zero validation row's logit is exactly 0: a tie, which is
        # class 0 here as in predict and evaluate_model
        rng = np.random.default_rng(7)
        tr = toy_dataset(rng.random((40, 2)), np.arange(40) % 2)
        va = toy_dataset(np.vstack([np.zeros(2), rng.random((9, 2))]), np.arange(10) % 2)
        seen = []
        real = baseline.balanced_accuracies
        monkeypatch.setattr(baseline, "balanced_accuracies",
                            lambda y, labels: seen.append(labels.copy()) or real(y, labels))
        w, b = fit_logistic(tr, va, epochs=1, lr=0.5)
        assert b == 0.0 and w.any() and not va.features[0].any()
        assert [labels.shape for labels in seen] == [(0, 10), (1, 10)]
        assert not seen[1][0, 0]

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
        # the gradient the fit steps on, against the cross-entropy of the
        # (d, 2) net the baseline deploys as
        rng = np.random.default_rng(seed)
        n, d = 12, 3
        X = rng.random((n, d))
        y = (rng.random(n) < 0.5).astype(np.int64)
        w = rng.normal(0, 1, size=d)
        b = float(rng.normal())
        gw, gb, _ = logistic_grad(w, b, X, y)
        h = 1e-6
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            lp, lm = cross_entropy(wp, b, X, y), cross_entropy(wm, b, X, y)
            assert relative_error(gw[j], (lp - lm) / (2 * h)) < 1e-6
        lp, lm = cross_entropy(w, b + h, X, y), cross_entropy(w, b - h, X, y)
        assert relative_error(gb, (lp - lm) / (2 * h)) < 1e-6


class TestPredictLogistic:
    def test_zero_model_ties_to_class_zero(self, monkeypatch):
        # every row's two logits are equal: predict and evaluate_model give
        # class 0, on the rows whose label comes from the first half of the
        # pair (sensitive value 0) and from the restored half (value 1)
        ds = toy_dataset(np.random.default_rng(2).random((40, 2)), np.arange(40) % 2)
        model = logistic_model(np.zeros(3), 0.0)
        labels, probs = predict(model, ds.features)
        assert np.all(probs == 0.5) and not labels.any()
        seen = []
        real = Dataset.outcomes
        monkeypatch.setattr(Dataset, "outcomes",
                            lambda self, y: seen.append(y) or real(self, y))
        evaluate_model(None, model, ds)
        assert 0 < ds.features[:, ds.sensitive_index].sum() < ds.n
        assert len(seen) == 1 and not seen[0].any()

    def test_large_bias_saturates(self):
        model = logistic_model(np.zeros(2), 40.0)
        labels, probs = predict(model, np.zeros((1, 2)))
        assert labels[0] == 1
        assert probs[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_sigmoid(self):
        rng = np.random.default_rng(4)
        w = rng.normal(0, 1, 3)
        model = logistic_model(w, 0.3)
        x = rng.random(3)
        z = float(x @ w + 0.3)
        _, probs = predict(model, x[None, :])
        # the net is float32
        assert probs[0, 1] == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-6)

    def test_scaling_invariance_of_labels(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0, 1, 4)
        model, scaled = logistic_model(w, -0.2), logistic_model(3.7 * w, 3.7 * -0.2)
        X = rng.random((50, 4))
        l1, p1 = predict(model, X)
        l2, p2 = predict(scaled, X)
        assert np.array_equal(l1, l2)
        assert not np.allclose(p1, p2)

    def test_dimension_mismatch(self):
        model = logistic_model(np.zeros(3), 0.0)
        with pytest.raises(DimensionError):
            predict(model, np.ones((1, 4)))
