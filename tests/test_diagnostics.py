import numpy as np
import pytest

from conftest import make_net
from fairsel import diagnostics, training
from fairsel.diagnostics import difference_errors
from fairsel.nets import DenseNet

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
            gw, gb, p = real(w, b, X, y)
            return corrupt(gw), float(corrupt(gb)), p
        monkeypatch.setattr(diagnostics, "logistic_grad", patched)
        res = diagnostics.check_logistic_gradient(n_instances=2)
        assert not res.passed
        assert np.isnan(res.worst_error) == (corruption == "nan")

    def test_log_selection_probability(self, monkeypatch, corruption):
        corrupt, real = CORRUPTIONS[corruption], diagnostics.log_pi_grad
        assert diagnostics.check_log_pi_gradient(n_policies=2).passed
        monkeypatch.setattr(diagnostics, "log_pi_grad",
                            lambda p, s: corrupt(real(p, s)))
        res = diagnostics.check_log_pi_gradient(n_policies=2)
        assert not res.passed
        assert np.isnan(res.worst_error) == (corruption == "nan")


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
    res = diagnostics.check_estimator_unbiasedness(d=4)
    assert not res.passed and np.isnan(res.worst_error)
    assert main(["gradcheck", "--instances", "2", "--dims", "4"]) == 3
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
