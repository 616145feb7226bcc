import numpy as np
import pytest

from conftest import make_net
from fairsel import diagnostics
from fairsel.diagnostics import difference_errors, flatten, unflatten

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
        corrupt, real = CORRUPTIONS[corruption], diagnostics.logistic_loss_and_grad
        assert diagnostics.check_logistic_gradient(n_instances=2).passed

        def patched(w, b, X, y):
            loss, gw, gb = real(w, b, X, y)
            return loss, corrupt(gw), float(corrupt(gb))
        monkeypatch.setattr(diagnostics, "logistic_loss_and_grad", patched)
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


def test_net_rebuilt_from_flat_parameters_is_bit_identical():
    net = make_net(3, d=4, hidden=(5, 3), c=2)
    rebuilt = unflatten(net, flatten(net.params()))
    assert len(rebuilt.params()) == len(net.params())
    for a, b in zip(rebuilt.params(), net.params()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_difference_errors_one_per_coordinate():
    # loss sum(theta^2) has gradient 2 theta; the second claim is wrong
    theta = np.array([0.5, -1.0, 2.0])
    errors = difference_errors(lambda t: float(t @ t), theta,
                               np.array([1.0, -3.0, 4.0]), 1e-6)
    assert len(errors) == 3
    assert errors[0] < 1e-8 and errors[2] < 1e-8
    assert errors[1] == pytest.approx(1.0 / 3.0, rel=1e-6)
