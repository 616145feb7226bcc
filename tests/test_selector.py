import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_net
from fairsel.errors import DimensionError, FairselError
from fairsel.diagnostics import relative_error
from fairsel.nets import DenseNet
from fairsel.selector import (SelectorPolicy, enumerate_selections,
                              log_pi_grad, pi_prob, probabilities,
                              sample_selection_batch,
                              sigmoid)
from fairsel.training import sensitivity_pair


def bits(a):
    """The raw bytes of an array: -0. differs from 0., NaN equals NaN."""
    return np.ascontiguousarray(a).view(np.uint8)


# sigmoid values computed with a 40-digit oracle and frozen
SIGMOID_0P3 = 0.5744425168116589
SIGMOID_M0P7 = 0.33181222783183384


class TestSigmoid:
    @staticmethod
    def two_branch_sigmoid(x):
        """The two-branch form: each sign's branch on its own entries."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_same_bits_as_two_branch_form(self):
        edges = [0.0, -0.0, 20.0, -20.0, 700.0, -700.0, 800.0, -800.0,
                 np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                 2.2e-308, -2.2e-308, 1e-300, -1e-300]
        x = np.concatenate([edges, np.random.default_rng(0).normal(0, 10, 10_000)])
        with np.errstate(over="ignore"):
            expected = self.two_branch_sigmoid(x)
        assert np.array_equal(sigmoid(x).view(np.int64), expected.view(np.int64))


class TestProbabilities:
    def test_zero_logits_masked(self):
        policy = SelectorPolicy(np.zeros(3), 1)
        assert np.array_equal(probabilities(policy), [0.5, 0.0, 0.5])

    def test_saturation(self):
        policy = SelectorPolicy(np.array([20.0, 0.0]), 1)
        assert probabilities(policy)[0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_high_precision_sigmoid(self):
        policy = SelectorPolicy(np.array([0.3, -0.7, 0.0]), 2)
        p = probabilities(policy)
        assert p[0] == pytest.approx(SIGMOID_0P3, rel=1e-14)
        assert p[1] == pytest.approx(SIGMOID_M0P7, rel=1e-14)

    def test_sensitive_zero_at_any_logit(self):
        for logit in (-30.0, 0.0, 30.0):
            policy = SelectorPolicy(np.array([0.2, logit, -0.4]), 1)
            assert probabilities(policy)[1] == 0.0

    def test_clamped_logits_stay_interior(self):
        policy = SelectorPolicy(np.array([500.0, -500.0, 0.0]), 2)
        p = probabilities(policy)
        assert 0 < p[0] < 1 and 0 < p[1] < 1

    def test_sensitive_index_validated(self):
        with pytest.raises(ValueError):
            SelectorPolicy(np.zeros(3), 3)


class TestSampling:
    def test_all_zero_probabilities(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_selection_batch(np.zeros(5), 1, rng).sum() == 0

    def test_all_one_probabilities_minus_mask(self):
        policy = SelectorPolicy(np.full(4, 30.0), 2)
        p = probabilities(policy)
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = sample_selection_batch(p, 1, rng)
            assert np.array_equal(s, [[1, 1, 0, 1]])

    def test_empirical_rate(self):
        rng = np.random.default_rng(2)
        S = sample_selection_batch(np.full(6, 0.5), 10_000, rng)
        rates = S.mean(axis=0)
        assert np.all(np.abs(rates - 0.5) < 0.03)

    def test_rows_are_boolean(self):
        S = sample_selection_batch(np.array([0.3, 0.0, 0.9]), 7, np.random.default_rng(3))
        assert S.dtype == np.bool_ and S.shape == (7, 3)

    def test_reproducible(self):
        p = np.array([0.3, 0.7, 0.5])
        s1 = sample_selection_batch(p, 1, np.random.default_rng(42))
        s2 = sample_selection_batch(p, 1, np.random.default_rng(42))
        assert np.array_equal(s1, s2)


class TestPiProb:
    def test_uniform_half(self):
        p = np.array([0.5, 0.5])
        assert np.all(pi_prob(p, enumerate_selections(2)) == pytest.approx(0.25))

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 11))
            p = rng.uniform(0.05, 0.95, size=d)
            total = sum(pi_prob(p, enumerate_selections(d)))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_near_deterministic(self):
        p = np.array([1 - 1e-12, 1e-12])
        assert pi_prob(p, np.array([[1, 0]]))[0] == pytest.approx(1.0, abs=1e-11)

    def test_masked_selection_rejected(self):
        policy = SelectorPolicy(np.zeros(3), 1)
        p = probabilities(policy)
        with pytest.raises(FairselError):
            pi_prob(p, np.array([[0, 1, 0]]))

    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization_property(self, d, seed):
        p = np.random.default_rng(seed).uniform(0.01, 0.99, size=d)
        total = sum(pi_prob(p, enumerate_selections(d)))
        assert abs(total - 1.0) < 1e-9


class TestLogPiGrad:
    def test_selected_at_half(self):
        p = np.array([0.5, 0.5])
        g = log_pi_grad(p, np.array([[1, 0]]))[0]
        assert g[0] == pytest.approx(0.5)
        assert g[1] == pytest.approx(-0.5)

    def test_saturated_vanishes(self):
        p = np.array([1 - 1e-9, 0.5])
        g = log_pi_grad(p, np.array([[1, 1]]))[0]
        assert abs(g[0]) < 1e-8

    def test_masked_coordinate_zero(self):
        policy = SelectorPolicy(np.array([2.0, 0.3, -1.0]), 0)
        p = probabilities(policy)
        S = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int8)
        assert np.all(log_pi_grad(p, S)[:, 0] == 0.0)

    def test_matches_finite_differences_through_sigmoid(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(30):
            d = int(rng.integers(2, 7))
            logits = rng.normal(0, 2, size=d)
            S = (rng.random((1, d)) < 0.5).astype(np.int8)
            analytic = log_pi_grad(sigmoid(logits), S)[0]
            for j in range(d):
                lp, lm = logits.copy(), logits.copy()
                lp[j] += h
                lm[j] -= h
                num = (np.log(pi_prob(sigmoid(lp), S)[0])
                       - np.log(pi_prob(sigmoid(lm), S)[0])) / (2 * h)
                assert relative_error(analytic[j], num) < 1e-6


class TestSelectionRows:
    """pi_prob and log_pi_grad take (m, d) selection rows, as training
    and the enumeration oracle call them."""

    def test_rows_match_one_row_at_a_time(self):
        rng = np.random.default_rng(6)
        policy = SelectorPolicy(rng.normal(0, 1.5, size=6), 2)
        p = probabilities(policy)
        S = sample_selection_batch(p, 40, rng)
        pi, grad = pi_prob(p, S), log_pi_grad(p, S)
        assert pi.shape == (40,) and grad.shape == (40, 6)
        for i in range(40):
            assert pi[i] == pi_prob(p, S[i:i + 1])[0]
            assert np.array_equal(grad[i], log_pi_grad(p, S[i:i + 1])[0])
            # the gates' reference forms, spelled out per feature
            assert pi[i] == pytest.approx(
                np.prod([p[j] if S[i, j] else 1 - p[j] for j in range(6)]),
                rel=1e-14)
            assert np.array_equal(grad[i], [S[i, j] - p[j] for j in range(6)])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_boolean_and_integer_rows_agree(self, dtype):
        # training samples boolean rows, the enumeration builds int8 ones:
        # the same pattern gives the same bits either way
        rng = np.random.default_rng(7)
        p = probabilities(SelectorPolicy(rng.normal(0, 1.5, size=6), 2))
        S = sample_selection_batch(p, 64, rng)
        S[0], S[1] = False, p > 0   # nothing selected, everything selectable
        ints = S.astype(np.int8)
        for fn in (pi_prob, log_pi_grad):
            assert np.array_equal(bits(fn(p, S)), bits(fn(p, ints)))
        net = make_net(8, d=6, hidden=(7,), c=2)
        net = DenseNet(net.sizes, net.theta.astype(dtype))
        X = rng.normal(size=(64, 6)).astype(dtype)
        X[::5, 2] = 0.0   # rows the sensitive value does not change
        by_bool, by_int = sensitivity_pair(net, X, S, 2), sensitivity_pair(net, X, ints, 2)
        assert np.array_equal(by_bool.changed, by_int.changed)
        for a, b in [(by_bool.rows, by_int.rows), (by_bool.norms, by_int.norms),
                     (by_bool.diff, by_int.diff)]:
            assert a.dtype == b.dtype == dtype and np.array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("fn", [pi_prob, log_pi_grad])
    def test_masked_feature_in_any_row_rejected(self, fn):
        p = probabilities(SelectorPolicy(np.zeros(4), 3))
        S = np.zeros((5, 4), dtype=np.int8)
        assert fn(p, S).shape[0] == 5
        S[3, 3] = 1
        with pytest.raises(FairselError, match="masked"):
            fn(p, S)

    @pytest.mark.parametrize("fn", [pi_prob, log_pi_grad])
    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3)])
    def test_rows_of_other_shape_raise(self, fn, shape):
        with pytest.raises(DimensionError):
            fn(np.full(3, 0.5), np.zeros(shape, dtype=np.int8))


class TestEnumeration:
    def test_counts(self):
        assert enumerate_selections(4).shape == (16, 4)
        assert enumerate_selections(4, masked_index=2).shape == (8, 4)

    def test_masked_column_zero(self):
        S = enumerate_selections(5, masked_index=1)
        assert np.all(S[:, 1] == 0)

    def test_rows_unique(self):
        S = enumerate_selections(3)
        assert len({tuple(r) for r in S}) == 8

    def test_refuses_large_d(self):
        with pytest.raises(ValueError):
            enumerate_selections(25)
