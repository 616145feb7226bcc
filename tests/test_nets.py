import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forward_row, make_net, naive_forward
from fairsel.diagnostics import net_gradient_errors, worst_error
from fairsel.errors import DimensionError, NumericalError
from fairsel.nets import (AdamState, DenseNet, adam_step, backward, forward,
                          selu, selu_deriv, softmax)


def backward_row(net, x, g):
    return backward(net, x[None, :], g[None, :])


class TestSelu:
    def test_zero(self):
        assert selu(0.0) == 0.0

    def test_one_is_scale(self):
        assert selu(1.0) == pytest.approx(1.0507009873554805, abs=0)

    def test_minus_one_matches_high_precision_oracle(self):
        # lambda * alpha * (e^-1 - 1), evaluated at 40 digits and frozen
        assert selu(-1.0) == pytest.approx(-1.1113307378125627, rel=1e-15)

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 3.0])
        out = selu(x)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(3 * 1.0507009873554805)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(0, 2, size=50)
        h = 1e-7
        num = (selu(xs + h) - selu(xs - h)) / (2 * h)
        assert np.allclose(selu_deriv(xs), num, rtol=1e-5)


class TestForward:
    def test_zero_net_uniform(self):
        net = DenseNet([np.zeros((4, 3)), np.zeros((5, 4))],
                       [np.zeros(4), np.zeros(5)])
        p = forward_row(net, np.ones(3))
        assert np.allclose(p, 0.2)

    def test_two_class_symmetry(self):
        net = DenseNet([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
        assert np.allclose(forward_row(net, np.zeros(2)), [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_independent_reimplementation(self, seed):
        net = make_net(seed)
        x = np.random.default_rng(seed + 100).random(net.input_dim)
        assert np.allclose(forward_row(net, x), naive_forward(net, x),
                           rtol=1e-12, atol=1e-14)

    def test_dimension_error_names_dims(self):
        net = make_net(0, d=4)
        with pytest.raises(DimensionError) as exc:
            forward(net, np.ones((2, 3)))
        assert "4" in str(exc.value) and "3" in str(exc.value)

    def test_single_vector_is_a_dimension_error(self):
        # batches only: a 1-D row is not silently promoted
        net = make_net(0, d=4, c=3)
        with pytest.raises(DimensionError):
            forward(net, np.ones(4))
        with pytest.raises(DimensionError):
            backward(net, np.ones(4), np.ones(3))

    def test_batch_matches_rows(self):
        net = make_net(1)
        X = np.random.default_rng(5).random((6, net.input_dim))
        P = forward(net, X)
        for i in range(6):
            assert np.allclose(P[i], forward_row(net, X[i]))

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_are_distributions(self, vals):
        p = softmax(np.array(vals))
        assert abs(p.sum() - 1.0) < 1e-9
        assert ((p > 0) & (p < 1 + 1e-12)).all()

    def test_probabilities_sum_to_one_on_random_nets(self):
        rng = np.random.default_rng(7)
        for seed in range(30):
            net = make_net(seed, d=5, hidden=(8,), c=4)
            p = forward_row(net, rng.random(5) * 10 - 5)
            assert abs(p.sum() - 1.0) < 1e-9

    def test_class_permutation_equivariance(self):
        net = make_net(3, c=4)
        x = np.random.default_rng(9).random(net.input_dim)
        perm = np.array([2, 0, 3, 1])
        permuted = DenseNet(
            net.weights[:-1] + [net.weights[-1][perm]],
            net.biases[:-1] + [net.biases[-1][perm]])
        assert np.allclose(forward_row(permuted, x), forward_row(net, x)[perm])


class TestBackward:
    def test_zero_output_grad_gives_zero(self):
        net = make_net(0)
        grads = backward_row(net, np.ones(net.input_dim),
                             np.zeros(net.num_classes))
        assert all(np.all(g == 0) for g in grads)

    def test_linear_in_output_grad(self):
        net = make_net(1)
        rng = np.random.default_rng(2)
        x, g = rng.random(net.input_dim), rng.random(net.num_classes)
        g1 = backward_row(net, x, g)
        g2 = backward_row(net, x, 2 * g)
        for a, b in zip(g1, g2):
            assert np.allclose(2 * a, b)

    def test_batch_sums_rows(self):
        net = make_net(4)
        rng = np.random.default_rng(3)
        X = rng.random((3, net.input_dim))
        G = rng.random((3, net.num_classes))
        batch_grads = backward(net, X, G)
        acc = [np.zeros_like(g) for g in batch_grads]
        for i in range(3):
            row_grads = backward_row(net, X[i], G[i])
            acc = [a + r for a, r in zip(acc, row_grads)]
        for a, b in zip(acc, batch_grads):
            assert np.allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        net = make_net(seed, d=3, hidden=(5, 4), c=2)
        rng = np.random.default_rng(seed + 50)
        x, g = rng.random(3), rng.random(2)

        def lag(net_):
            return float(forward_row(net_, x) @ g), backward_row(net_, x, g)

        assert worst_error(net_gradient_errors(net, lag)) <= 1e-6


class TestAdam:
    def _params(self):
        return [np.array([[1.0, -2.0]]), np.array([0.5])]

    def test_zero_gradient_keeps_params(self):
        params = self._params()
        fresh = AdamState.for_params(params)
        new, _ = adam_step(params, [np.zeros_like(p) for p in params],
                           fresh, lr=0.1)
        for p, q in zip(params, new):
            assert np.array_equal(p, q)

    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 at t=1, so the step is lr / (1 + eps)
        params = [np.array([0.0])]
        grads = [np.array([1.0])]
        new, state = adam_step(params, grads, AdamState.for_params(params), 0.1)
        assert new[0][0] == pytest.approx(-0.09999999900000001, rel=1e-12)
        assert state.step_count == 1

    def test_deterministic(self):
        params = self._params()
        grads = [np.array([[0.3, -0.1]]), np.array([0.2])]
        state = AdamState.for_params(params)
        a1, s1 = adam_step(params, grads, state, 0.01)
        a2, s2 = adam_step(params, grads, state, 0.01)
        for x, y in zip(a1, a2):
            assert np.array_equal(x, y)
        assert np.array_equal(s1.first[0], s2.first[0])

    def test_nonfinite_gradient_names_block(self):
        params = self._params()
        grads = [np.array([[np.nan, 0.0]]), np.array([0.0])]
        with pytest.raises(NumericalError) as exc:
            adam_step(params, grads, AdamState.for_params(params), 0.1)
        assert "layer0.weight" in str(exc.value)

    def test_moments_decay(self):
        params = [np.array([1.0])]
        state = AdamState.for_params(params)
        state.first = [np.array([1.0])]
        state.second = [np.array([1.0])]
        _, s2 = adam_step(params, [np.array([0.0])], state, 0.1)
        assert abs(s2.first[0][0]) < 1.0
        assert abs(s2.second[0][0]) < 1.0


class TestGradCheck:
    def test_quadratic_toy_loss(self):
        net = make_net(0, d=2, hidden=(3,), c=2)
        targets = [np.full_like(p, 0.7) for p in net.params()]

        def lag(net_):
            params = net_.params()
            loss = sum(0.5 * np.sum((p - t) ** 2)
                       for p, t in zip(params, targets))
            return float(loss), [p - t for p, t in zip(params, targets)]

        assert worst_error(net_gradient_errors(net, lag)) < 1e-6

    def test_cross_entropy_on_seeded_net(self):
        from fairsel.training import pair_loss_and_grads, sensitivity_pair
        net = make_net(5, d=4, hidden=(6,), c=3)
        rng = np.random.default_rng(6)
        X = rng.random((3, 4))
        Y = np.eye(3)
        S = np.ones((3, 4), dtype=np.int8)

        def lag(net_):
            pair = sensitivity_pair(net_, X, S, 0)
            loss, grads, _, _ = pair_loss_and_grads(net_, pair, Y, 0.0)
            return loss, grads

        assert worst_error(net_gradient_errors(net, lag)) <= 1e-4

    def test_corrupted_gradient_fails(self):
        net = make_net(0, d=2, hidden=(3,), c=2)

        def lag(net_):
            params = net_.params()
            loss = sum(0.5 * np.sum(p ** 2) for p in params)
            grads = [p.copy() for p in params]
            grads[0][0, 0] += 1.0  # injected fault
            return float(loss), grads

        assert not worst_error(net_gradient_errors(net, lag)) <= 1e-4

    def test_nan_gradient_fails(self):
        net = make_net(0, d=2, hidden=(3,), c=2)

        def lag(net_):
            params = net_.params()
            loss = sum(0.5 * np.sum(p ** 2) for p in params)
            return float(loss), [np.full_like(p, np.nan) for p in params]

        worst = worst_error(net_gradient_errors(net, lag))
        assert not worst <= 1e-4
        assert np.isnan(worst)

    def test_worst_error_keeps_nan_and_rejects_nothing(self):
        assert np.isnan(worst_error([0.0, np.nan, 1.0]))
        assert np.isnan(worst_error([np.nan, 1.0]))
        assert worst_error([0.5, 2.0]) == 2.0
        with pytest.raises(ValueError):
            worst_error([])

    def test_subsampled_entries(self):
        net = make_net(2, d=5, hidden=(8, 8), c=3)
        rng = np.random.default_rng(0)
        x, g = rng.random(5), rng.random(3)

        def lag(net_):
            return float(forward_row(net_, x) @ g), backward_row(net_, x, g)

        errors = net_gradient_errors(net, lag)
        assert worst_error(errors) <= 1e-5
        # every coordinate of every block is checked
        assert len(errors) == sum(p.size for p in net.params())
