from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_net
from fairsel import diagnostics, training
from fairsel.diagnostics import KINK_MARGIN, difference_errors
from fairsel.nets import DenseNet, layer_outputs

# wrong analytic gradients: finite but off by one everywhere, or NaN
CORRUPTIONS = {
    "shifted": lambda g: np.asarray(g, dtype=np.float64) + 1.0,
    "nan": lambda g: np.full_like(np.asarray(g, dtype=np.float64), np.nan),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
class TestWrongAnalyticGradientFails:
    """Each gradient family's check passes on the real gradient and
    FAILs once that gradient, and nothing else, is corrupted."""

    def test_network(self, monkeypatch, corruption):
        corrupt, real = CORRUPTIONS[corruption], diagnostics.pair_loss_and_grads
        assert diagnostics.check_prediction_gradients(n_instances=2).passed

        def patched(*args, **kwargs):
            loss, grads, ce, sens = real(*args, **kwargs)
            return loss, [corrupt(g) for g in grads], ce, sens
        monkeypatch.setattr(diagnostics, "pair_loss_and_grads", patched)
        res = diagnostics.check_prediction_gradients(n_instances=2)
        assert not res.passed
        assert np.isnan(res.worst_error) == (corruption == "nan")

    def test_logistic(self, monkeypatch, corruption):
        corrupt, real = CORRUPTIONS[corruption], diagnostics.logistic_grad
        assert diagnostics.check_logistic_gradient(n_instances=2).passed

        def patched(w, b, X, y):
            gw, gb = real(w, b, X, y)
            return corrupt(gw), float(corrupt(gb))
        monkeypatch.setattr(diagnostics, "logistic_grad", patched)
        res = diagnostics.check_logistic_gradient(n_instances=2)
        assert not res.passed
        assert np.isnan(res.worst_error) == (corruption == "nan")

    def test_log_selection_probability(self, monkeypatch, corruption):
        corrupt, real = CORRUPTIONS[corruption], diagnostics.log_pi_grad
        assert diagnostics.check_log_pi_gradient(n_instances=2).passed
        monkeypatch.setattr(diagnostics, "log_pi_grad",
                            lambda p, s: corrupt(real(p, s)))
        res = diagnostics.check_log_pi_gradient(n_instances=2)
        assert not res.passed
        assert np.isnan(res.worst_error) == (corruption == "nan")


@pytest.mark.parametrize("seed", [28, 62, 92])
def test_logistic_gate_allows_for_rounding_of_the_difference(monkeypatch, seed):
    # the logistic gates of `gradcheck --seed 25/59/89`: before the gate
    # allowed for the rounding of its step-1e-6 central difference (about
    # eps |L| / h = 1e-10), it failed correct gradient coordinates of about
    # 1e-5 (worst errors 3.07e-6, 1.09e-6 and 1.59e-6 against 1e-6)
    assert diagnostics.check_logistic_gradient(50, seed).passed
    real = diagnostics.logistic_grad

    def scaled(w, b, X, y):   # a 1e-4 relative fault still fails
        gw, gb = real(w, b, X, y)
        return gw * (1 + 1e-4), gb * (1 + 1e-4)
    monkeypatch.setattr(diagnostics, "logistic_grad", scaled)
    assert not diagnostics.check_logistic_gradient(50, seed).passed


def test_estimator_check_runs_the_training_update(monkeypatch):
    # the check drives selector_step, so a wrong score function in the
    # training module, and nowhere else, must fail it
    assert diagnostics.check_estimator_unbiasedness().passed
    real = training.log_pi_grad
    monkeypatch.setattr(training, "log_pi_grad",
                        lambda p, S: CORRUPTIONS["shifted"](real(p, S)))
    assert not diagnostics.check_estimator_unbiasedness().passed


def test_non_finite_estimate_fails_the_estimator_gate(monkeypatch, capsys):
    # selector_step raises on a NaN estimate; the gate fails on it, and
    # gradcheck still prints every check's line
    from fairsel.cli import main
    real = training.log_pi_grad
    monkeypatch.setattr(training, "log_pi_grad",
                        lambda p, S: CORRUPTIONS["nan"](real(p, S)))
    res = diagnostics.check_estimator_unbiasedness()
    assert not res.passed and np.isnan(res.worst_error)
    assert main(["gradcheck", "--instances", "2"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 7 and lines[-1].startswith("FAIL score-function estimator")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "gradcheck: FAILURES detected" in err


def test_net_rebuilt_from_flat_parameters_is_bit_identical():
    net = make_net(3, d=4, hidden=(5, 3), c=2)
    rebuilt = DenseNet(net.sizes, net.theta.copy())
    assert len(rebuilt.weights) == len(net.weights) == 3
    for a, b in zip(rebuilt.weights + rebuilt.biases, net.weights + net.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_difference_errors_one_per_coordinate():
    # loss sum(theta^2) has gradient 2 theta; the second claim is wrong
    theta = np.array([0.5, -1.0, 2.0])
    errors = difference_errors(lambda t: float(t @ t), theta,
                               np.array([1.0, -3.0, 4.0]), 1e-6)
    assert len(errors) == 3
    assert errors[0] < 1e-8 and errors[2] < 1e-8
    assert errors[1] == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_gates_run_float64_nets():
    # training steps float32 nets; the finite-difference and enumeration
    # oracles need float64, whatever train uses
    net, *_ = diagnostics.random_instance(np.random.default_rng(0))
    assert net.theta.dtype == diagnostics.estimator_instance()[0].theta.dtype == np.float64


@pytest.mark.parametrize("check, seed", [
    (diagnostics.check_prediction_gradients, 9),
    (diagnostics.check_sensitivity_gradients, 14),
    (diagnostics.check_composite_gradients, 101)])
def test_network_gates_pass_where_a_draw_once_sat_on_the_kink(check, seed):
    # these seeds once drew a hidden pre-activation within one difference
    # step of SELU's kink and failed correct gradients (worst errors 0.76,
    # 0.16 and 0.32 against 1e-4)
    res = check(50, seed)
    assert res.passed, res.line()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_instance_keeps_every_hidden_activation_off_the_kink(seed):
    # both halves of the pair, every row, through the plain forward pass
    net, X, _, S, k = diagnostics.random_instance(np.random.default_rng(seed))
    x_sel = X * S
    x_with = x_sel.copy()
    x_with[:, k] = X[:, k]
    for rows in (x_sel, x_with):
        for acts in layer_outputs(net, rows)[:-1]:
            assert np.abs(acts).min() > KINK_MARGIN


def test_instances_reach_every_randomized_gate(monkeypatch):
    draws, real = Counter(), diagnostics._seeded_gate

    def counting(name, n_instances, seed, tolerance, instance_errors):
        def counted(rng):
            draws[name] += 1
            return instance_errors(rng)
        return real(name, n_instances, seed, tolerance, counted)
    monkeypatch.setattr(diagnostics, "_seeded_gate", counting)
    results = diagnostics.run_all(seed=0, instances=3)
    # the estimator gate, last, draws from its own fixed seed
    assert len(draws) == len(results) - 1 == 6
    assert all(draws[r.name] == 3 for r in results[:-1])
