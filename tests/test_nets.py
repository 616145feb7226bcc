import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (forward_row, make_net, naive_forward, selu_deriv,
                      selu_slope_where, selu_where)
from fairsel import nets, training
from fairsel.diagnostics import net_gradient_errors, worst_error
from fairsel.errors import DimensionError, NumericalError
from fairsel.nets import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, PROB_FLOOR, AdamState,
                          DenseNet, adam_step, backward, forward, layer_outputs,
                          reduce_classes, selu, selu_slope, softmax)


def backward_row(net, x, g):
    X = x[None, :]
    return backward(net, X, layer_outputs(net, X), g[None, :])


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

    def test_bit_equal_to_where_formula(self):
        tiny = [1e-300, -1e-300, 5e-324, -5e-324]
        large = [1e300, -1e300, 1e308, -1e308]
        x = np.concatenate([np.linspace(-40, 40, 80001), tiny, large,
                            [0.0, -0.0, np.nan, -np.nan]])
        before = x.copy()
        out = selu(x)
        with np.errstate(over="ignore"):   # the oracle runs expm1(1e308)
            oracle = selu_where(x)
        assert np.array_equal(x.view(np.int64), before.view(np.int64))
        # at -0.0 SIMD max/min may pick either zero
        neg_zero = (x == 0) & np.signbit(x)
        assert neg_zero.sum() == 1 and out[neg_zero][0] == 0.0
        assert np.array_equal(out[~neg_zero].view(np.int64),
                              oracle[~neg_zero].view(np.int64))
        assert selu(0.0) == 0.0
        assert selu(np.float64(-1.0)) == selu_where(-1.0)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(0, 2, size=50)
        h = 1e-7
        num = (selu(xs + h) - selu(xs - h)) / (2 * h)
        assert np.allclose(selu_deriv(xs), num, rtol=1e-5)

    def test_slope_from_activation_matches_exp_oracle(self):
        z = np.concatenate([np.linspace(-30, 30, 6001),
                            [0.0, 1e-300, -1e-300, -0.0]])
        slope = selu_slope(selu(z))
        # a + scale*alpha cancels for very negative z: agree to a few ulp
        # of scale*alpha, absolutely
        assert np.allclose(slope, selu_deriv(z), rtol=0, atol=1e-15)
        assert np.array_equal(slope[z > 0], np.full((z > 0).sum(), 1.0507009873554805))
        assert slope[-4] == selu_deriv(0.0) and slope[-2] == selu_deriv(-1e-300)

    @staticmethod
    def _slope_matches_where(grid, ints):
        # the grid as activations and as raw values, plus the non-finite
        # values: signed zeros, infinities and NaNs must match too, in the
        # dtype of the activations
        a = np.concatenate([selu(grid), grid,
                            np.array([np.inf, -np.inf, np.nan, -np.nan], dtype=grid.dtype)])
        before = a.copy()
        out = selu_slope(a)
        assert out.dtype == grid.dtype
        assert np.array_equal(a.view(ints), before.view(ints))
        assert np.array_equal(out.view(ints), selu_slope_where(a).view(ints))

    def test_slope_bit_equal_to_where_formula(self):
        # the grids above
        self._slope_matches_where(np.concatenate([
            np.linspace(-40, 40, 80001), np.linspace(-30, 30, 6001),
            [1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300, 1e308, -1e308,
             0.0, -0.0]]), np.int64)

    def test_slope_bit_equal_to_where_formula_float32(self):
        # the same grids in float32, with its own tiny, subnormal and huge values
        self._slope_matches_where(np.concatenate([
            np.linspace(-40, 40, 80001), np.linspace(-30, 30, 6001),
            [1e-38, -1e-38, 1e-45, -1e-45, 1e30, -1e30, 3e38, -3e38,
             0.0, -0.0]]).astype(np.float32), np.int32)


class TestForward:
    def test_zero_net_uniform(self):
        net = DenseNet.from_layers([np.zeros((4, 3)), np.zeros((5, 4))],
                                   [np.zeros(4), np.zeros(5)])
        p = forward_row(net, np.ones(3))
        assert np.allclose(p, 0.2)

    def test_two_class_symmetry(self):
        net = DenseNet.from_layers([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
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
            backward(net, np.ones(4), layer_outputs(net, np.ones((1, 4))),
                     np.ones(3))

    def test_layer_outputs_end_in_forward(self):
        net = make_net(2, d=4, hidden=(6, 5), c=3)
        X = np.random.default_rng(4).random((7, 4))
        outputs = layer_outputs(net, X)
        assert [o.shape for o in outputs] == [(7, 6), (7, 5), (7, 3)]
        assert np.array_equal(outputs[-1], forward(net, X))
        assert np.array_equal(outputs[0], selu(X @ net.weights[0].T + net.biases[0]))

    # pre-activations at +-0 (-0. reaches a layer as +0. through the
    # matmul), around SELU's kink, where expm1 rounds to -1 (below about
    # -17 in float32, -37 in float64), where float32's e^z underflows
    # (about -88) and large positive values
    EDGE = np.array([0.0, -0.0, 1e-30, -1e-30, 1e-7, -1e-7, -17.0, -18.0, -37.0, -40.0,
                     -87.0, -88.0, -88.7, -89.0, -104.0, -800.0, 30.0, 88.7, 1e4, 1e30])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_layers_equal_public_kernels(self, dtype):
        m = self.EDGE.size
        X = np.stack([np.roll(self.EDGE, r) for r in range(m)]).astype(dtype)
        eye = np.eye(m)
        assert np.array_equal(X @ eye.astype(dtype).T, X)
        # identity layers pass the values on exactly: the hidden layers
        # see EDGE and selu(EDGE), and the head-only net's softmax sees
        # each pair of them
        deep = DenseNet.from_layers([eye, eye, np.random.default_rng(0).normal(size=(2, m))],
                                    [np.zeros(m), np.zeros(m), np.zeros(2)])
        head = DenseNet.from_layers([eye[:2]], [np.zeros(2)])
        for net in (deep, head):
            net = DenseNet(net.sizes, net.theta.astype(dtype))
            acts, chain = X, []
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = acts @ w.T
                z += b
                acts = softmax(z) if i == net.num_layers - 1 else selu(z)
                chain.append(acts)
            outputs = layer_outputs(net, X)
            assert len(outputs) == len(chain)
            for got, want in zip(outputs, chain):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
            assert np.array_equal(forward(net, X).view(np.uint8), chain[-1].view(np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("classes", [2, 3])
    def test_softmax_leaves_its_input(self, dtype, classes):
        z = np.random.default_rng(classes).normal(0, 30, size=(64, classes)).astype(dtype)
        z[::4] = -0.0
        before = z.copy()
        softmax(z)
        assert np.array_equal(z.view(np.uint8), before.view(np.uint8))

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
        permuted = DenseNet.from_layers(
            net.weights[:-1] + [net.weights[-1][perm]],
            net.biases[:-1] + [net.biases[-1][perm]])
        assert np.allclose(forward_row(permuted, x), forward_row(net, x)[perm])


def bits(a):
    """The raw bits of a float64 array: -0. differs from 0., NaN equals NaN."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


# two-class rows: ties, signed zeros, huge and subnormal values
EDGE_ROWS = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0],
                      [2.5, 2.5], [-2.5, -2.5], [1e308, 1e308], [-1e308, 1e308],
                      [800.0, -800.0], [-745.0, 709.0], [5e-324, -5e-324],
                      [-5e-324, -5e-324], [1.0, -3.0], [np.inf, 1.0]])


def _random_rows(n, seed):
    """Rows of mixed magnitudes and signs, a third of them signed zeros."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, 2)) * rng.choice([1.0, 30.0, 1e-300], size=(n, 2))
    rows[::3] = rng.choice([0.0, -0.0], size=rows[::3].shape)
    return rows


class TestClassAxisColumns:
    """reduce_classes does numpy's reductions over the class axis as
    column ops. Each caller must keep the bits it had with numpy's own
    reduce, which the reference below puts back."""

    ROWS = [EDGE_ROWS, EDGE_ROWS[1:2], _random_rows(1, 0), _random_rows(256, 1)]

    @staticmethod
    def _with_numpy_reduce(monkeypatch, fn, *args):
        with monkeypatch.context() as m:
            reference = lambda ufunc, a: ufunc.reduce(a, axis=-1)
            m.setattr(nets, "reduce_classes", reference)
            m.setattr(training, "reduce_classes", reference)
            return fn(*args)

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum])
    @pytest.mark.parametrize("rows", ROWS)
    def test_matches_numpy_reduce(self, rows, ufunc):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(bits(reduce_classes(ufunc, rows)),
                                  bits(ufunc.reduce(rows, axis=-1)))

    @pytest.mark.parametrize("rows", ROWS)
    def test_softmax(self, monkeypatch, rows):
        rows = np.clip(rows, -1e300, 1e300)   # an infinite logit gives NaN
        assert np.array_equal(bits(softmax(rows)),
                              bits(self._with_numpy_reduce(monkeypatch, softmax, rows)))

    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_backward_jvp(self, monkeypatch, n, scale):
        # scale 1e3 saturates the softmax: probabilities of exactly 0 and 1
        net = make_net(n, d=4, hidden=(6, 5), c=2)
        net = DenseNet.from_layers(net.weights[:-1] + [scale * net.weights[-1]],
                                   net.biases)
        X = np.random.default_rng(n).normal(size=(n, 4))
        G = _random_rows(n, n + 1)
        G[-1] = G[-1, 0]   # a tied row
        G[0] = -0.0        # numpy's sum of its products is +0.
        outputs = layer_outputs(net, X)
        assert np.array_equal(
            bits(backward(net, X, outputs, G)),
            bits(self._with_numpy_reduce(monkeypatch, backward, net, X, outputs, G)))

    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_pair_norm_and_cross_entropy(self, monkeypatch, n, scale):
        net = make_net(n, d=4, hidden=(6, 5), c=2)
        net = DenseNet.from_layers(net.weights[:-1] + [scale * net.weights[-1]],
                                   net.biases)
        rng = np.random.default_rng(n)
        X, S = rng.normal(size=(n, 4)), (rng.random((n, 4)) < 0.5).astype(np.int8)
        S[0] = 0   # selects nothing: with feature 0 also 0, the norm is 0
        X[0, 0] = 0.0
        Y = np.eye(2)[rng.integers(0, 2, size=n)]

        pair = training.sensitivity_pair(net, X, S, 0)
        loss, grad, ce, sens = training.pair_loss_and_grads(net, pair, Y, 1.0)
        # numpy's own forms of the norm, the cross-entropy and the means
        assert np.array_equal(bits(pair.norms), bits(np.linalg.norm(pair.diff, axis=1)))
        ce_rows = -np.log(np.maximum((pair.p_sel * Y).sum(axis=1), PROB_FLOOR))
        assert (ce, sens) == (float(np.mean(ce_rows)), float(np.mean(pair.norms)))
        # the loss is formed from the two means, in Python floats: the
        # per-example mean up to its rounding
        assert loss == 1.0 * sens + 1.0 * ce
        assert loss == pytest.approx(float(np.mean(pair.norms + ce_rows)), rel=1e-13)
        ref_grad = self._with_numpy_reduce(
            monkeypatch, lambda: training.pair_loss_and_grads(
                net, training.sensitivity_pair(net, X, S, 0), Y, 1.0)[1])
        assert np.array_equal(bits(grad), bits(ref_grad))


class TestBackward:
    def test_zero_output_grad_gives_zero(self):
        net = make_net(0)
        grad = backward_row(net, np.ones(net.input_dim),
                            np.zeros(net.num_classes))
        assert grad.shape == net.theta.shape and np.all(grad == 0)

    def test_outputs_must_belong_to_the_rows(self):
        net = make_net(0, d=4, hidden=(6, 5), c=3)
        X, G = np.ones((2, 4)), np.ones((2, 3))
        for outputs in (layer_outputs(net, np.ones((3, 4))),
                        layer_outputs(net, X)[1:], []):
            with pytest.raises(DimensionError):
                backward(net, X, outputs, G)

    def test_linear_in_output_grad(self):
        net = make_net(1)
        rng = np.random.default_rng(2)
        x, g = rng.random(net.input_dim), rng.random(net.num_classes)
        assert np.allclose(2 * backward_row(net, x, g), backward_row(net, x, 2 * g))

    def test_batch_sums_rows(self):
        net = make_net(4)
        rng = np.random.default_rng(3)
        X = rng.random((3, net.input_dim))
        G = rng.random((3, net.num_classes))
        batch_grad = backward(net, X, layer_outputs(net, X), G)
        rows_grad = sum(backward_row(net, X[i], G[i]) for i in range(3))
        assert np.allclose(rows_grad, batch_grad, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        net = make_net(seed, d=3, hidden=(5, 4), c=2)
        rng = np.random.default_rng(seed + 50)
        x, g = rng.random(3), rng.random(2)

        def lag(net_):
            return float(forward_row(net_, x) @ g), backward_row(net_, x, g)

        assert worst_error(net_gradient_errors(net, lag)) <= 1e-6


class TestAdam:
    def _net(self):
        # one 2 -> 1 layer: W = [[1, -2]], b = [0.5]
        return DenseNet((2, 1), np.array([1.0, -2.0, 0.5]))

    def test_bit_equal_to_textbook_formula_and_inputs_untouched(self):
        rng = np.random.default_rng(0)
        net = DenseNet((3, 5), rng.normal(size=20))
        state = AdamState.for_net(net)
        b1, b2, lr = ADAM_BETA1, ADAM_BETA2, 1e-3
        for t in range(1, 51):
            grad = rng.normal(scale=10.0 ** rng.integers(-8, 3), size=20)
            theta, first, second, grad_before = (a.copy() for a in (
                net.theta, state.first, state.second, grad))
            # textbook Adam with bias correction, on copies of the inputs
            m = b1 * first + (1 - b1) * grad
            v = b2 * second + (1 - b2) * grad * grad
            want = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + ADAM_EPS)
            stepped, stepped_state = adam_step(net, grad, state, lr)
            assert stepped is net and stepped_state is state
            assert np.array_equal(grad, grad_before)
            for got, ref in zip((net.theta, state.first, state.second), (want, m, v)):
                assert np.array_equal(got, ref)
            # the layer views still read the stepped vector
            assert np.array_equal(net.biases[0], want[15:])
            assert state.step_count == t

    def test_zero_gradient_keeps_params(self):
        net = self._net()
        theta = net.theta.copy()
        adam_step(net, np.zeros(3), AdamState.for_net(net), lr=0.1)
        assert np.array_equal(net.theta, theta)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_positive_or_non_finite_lr_is_rejected(self, lr):
        net = self._net()
        theta = net.theta.copy()
        with pytest.raises(ValueError, match="^lr must be positive and finite, got "):
            adam_step(net, np.ones(3), AdamState.for_net(net), lr)
        assert np.array_equal(net.theta, theta)

    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 at t=1, so the step is lr / (1 + eps)
        net = DenseNet((1, 1), np.zeros(2))
        new, state = adam_step(net, np.array([1.0, 0.0]), AdamState.for_net(net), 0.1)
        assert new.weights[0][0, 0] == pytest.approx(-0.09999999900000001, rel=1e-12)
        assert new.biases[0][0] == 0.0
        assert state.step_count == 1

    def test_deterministic(self):
        # two copies of one net and state, stepped alike, stay equal
        grad = np.array([0.3, -0.1, 0.2])
        net = self._net()
        net, state = adam_step(net, grad, AdamState.for_net(net), 0.01)
        copies = [(DenseNet(net.sizes, net.theta.copy()),
                   AdamState(state.first.copy(), state.second.copy(), state.step_count))
                  for _ in range(2)]
        for net_, state_ in copies:
            adam_step(net_, grad, state_, 0.01)
        (a1, s1), (a2, s2) = copies
        assert not np.array_equal(a1.theta, net.theta)
        for x, y in ((a1.theta, a2.theta), (s1.first, s2.first), (s1.second, s2.second)):
            assert np.array_equal(x, y)

    def test_nonfinite_gradient_names_block(self):
        # and writes nothing: the net and the state are as they were
        net = self._net()
        state = AdamState(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, 3.0]), 5)
        kept = [a.copy() for a in (net.theta, state.first, state.second)]
        with pytest.raises(NumericalError) as exc:
            adam_step(net, np.array([np.nan, 0.0, 0.0]), state, 0.1)
        assert "layer0.weight" in str(exc.value)
        for got, before in zip((net.theta, state.first, state.second), kept):
            assert np.array_equal(got, before)
        assert state.step_count == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_at_block_ends_names_that_block(self, bad):
        net = make_net(0, d=3, hidden=(4, 5), c=2)
        names = [f"layer{i}.{kind}" for i in range(3) for kind in ("weight", "bias")]
        blocks = [b for wb in zip(net.weights, net.biases) for b in wb]
        start = 0
        for name, block in zip(names, blocks):
            for j in (start, start + block.size - 1):
                grad = np.zeros_like(net.theta)
                grad[j] = bad
                with pytest.raises(NumericalError, match=rf"parameter block {name}$"):
                    adam_step(net, grad, AdamState.for_net(net), 0.1)
                theta = net.theta.copy()
                theta[j] = bad
                odd = DenseNet(net.sizes, theta)
                with pytest.raises(NumericalError, match=rf"parameter block {name}$"):
                    DenseNet.from_layers(odd.weights, odd.biases)
            start += block.size
        assert start == net.theta.size

    def test_gradient_shape_is_checked(self):
        net = self._net()
        with pytest.raises(DimensionError):
            adam_step(net, np.zeros(4), AdamState.for_net(net), 0.1)

    def test_moments_decay(self):
        net = DenseNet((1, 1), np.array([1.0, 0.0]))
        state = AdamState(np.ones(2), np.ones(2))
        _, s2 = adam_step(net, np.zeros(2), state, 0.1)
        assert (np.abs(s2.first) < 1.0).all()
        assert (np.abs(s2.second) < 1.0).all()


class TestFloat32:
    """A float32 net computes in float32 end to end: a float64 scalar or
    array anywhere on the path would promote its results."""

    def test_every_function_keeps_float32(self):
        net = make_net(0, d=4, hidden=(6, 5), c=2)
        net32 = DenseNet(net.sizes, net.theta.astype(np.float32))
        X = np.random.default_rng(1).normal(size=(7, 4))   # float64 rows
        outputs = layer_outputs(net32, X)
        assert [o.dtype for o in outputs] == [np.float32] * 3
        assert forward(net32, X).dtype == np.float32
        grad = backward(net32, X, outputs, np.ones((7, 2)))
        assert grad.dtype == np.float32
        state = AdamState.for_net(net32)
        stepped, state = adam_step(net32, grad, state, 1e-3)
        assert stepped.theta.dtype == state.first.dtype == state.second.dtype == np.float32
        assert softmax(outputs[0]).dtype == selu(outputs[0]).dtype == np.float32

    @pytest.mark.parametrize("shape", [(5, (32, 32)), (55, (200, 200, 200, 200))])
    def test_pair_gradients_match_float64(self, shape):
        # the training path in float32 against the same nets and batches
        # in float64: the relative gradient error stays within 1e-5
        d, hidden = shape
        rng = np.random.default_rng(d)
        for _ in range(5):
            net = DenseNet.initialize(d, hidden, 2, rng)
            net32 = DenseNet(net.sizes, net.theta.astype(np.float32))
            net = DenseNet(net.sizes, net32.theta.astype(np.float64))
            X = rng.random((64, d))
            X[:, 0] = X[:, 0] < 0.5
            S = (rng.random((64, d)) < 0.5).astype(np.int8)
            S[:, 0] = 0
            Y = np.eye(2)[rng.integers(0, 2, size=64)]
            grads = [training.pair_loss_and_grads(
                         n, training.sensitivity_pair(n, X, S, 0),
                         Y.astype(n.theta.dtype), 1.0)[1]
                     for n in (net32, net)]
            assert grads[0].dtype == np.float32
            error = np.linalg.norm(grads[0] - grads[1]) / np.linalg.norm(grads[1])
            assert error <= 1e-5


class TestLayout:
    def test_blocks_are_row_major_views_in_order(self):
        # sizes (2, 3, 2): W0 (3, 2), b0 (3,), W1 (2, 3), b1 (2,)
        net = DenseNet((2, 3, 2), np.arange(17.0))
        assert np.array_equal(net.weights[0], np.arange(6.0).reshape(3, 2))
        assert np.array_equal(net.biases[0], [6.0, 7.0, 8.0])
        assert np.array_equal(net.weights[1], np.arange(9.0, 15.0).reshape(2, 3))
        assert np.array_equal(net.biases[1], [15.0, 16.0])
        net.biases[1][0] = -1.0
        assert net.theta[15] == -1.0
        assert (net.input_dim, net.num_classes, net.num_layers) == (2, 2, 2)

    def test_wrong_length_vector_is_a_dimension_error(self):
        with pytest.raises(DimensionError):
            DenseNet((2, 3, 2), np.zeros(16))

    def test_from_layers_checks_shapes(self):
        with pytest.raises(DimensionError, match="layer 0"):
            DenseNet.from_layers([np.zeros((3, 2))], [np.zeros(2)])
        with pytest.raises(DimensionError, match=r"layer 1: expected \(out, 3\)"):
            DenseNet.from_layers([np.zeros((3, 2)), np.zeros((2, 4))],
                                 [np.zeros(3), np.zeros(2)])

    def test_from_layers_copies(self):
        w, b = np.ones((2, 2)), np.zeros(2)
        net = DenseNet.from_layers([w], [b])
        w[0, 0] = 5.0
        assert net.weights[0][0, 0] == 1.0


class TestGradCheck:
    def test_quadratic_toy_loss(self):
        net = make_net(0, d=2, hidden=(3,), c=2)
        target = np.full_like(net.theta, 0.7)

        def lag(net_):
            return float(0.5 * np.sum((net_.theta - target) ** 2)), net_.theta - target

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
            grad = net_.theta.copy()
            grad[0] += 1.0  # injected fault
            return float(0.5 * np.sum(net_.theta ** 2)), grad

        assert not worst_error(net_gradient_errors(net, lag)) <= 1e-4

    def test_nan_gradient_fails(self):
        net = make_net(0, d=2, hidden=(3,), c=2)

        def lag(net_):
            return float(0.5 * np.sum(net_.theta ** 2)), np.full_like(net_.theta, np.nan)

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
        assert len(errors) == sum(w.size + b.size for w, b in zip(net.weights, net.biases))
