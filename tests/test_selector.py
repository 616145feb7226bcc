import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsel.errors import FairselError
from fairsel.nets import relative_error
from fairsel.selector import (SelectorPolicy, enumerate_selections,
                              log_pi_grad, pi_prob, probabilities,
                              sample_selection_batch,
                              sigmoid)

# sigmoid values computed with a 40-digit oracle and frozen
SIGMOID_0P3 = 0.5744425168116589
SIGMOID_M0P7 = 0.33181222783183384


class TestProbabilities:
    def test_zero_logits_masked(self):
        policy = SelectorPolicy(np.zeros(3), 1)
        assert np.array_equal(probabilities(policy), [0.5, 0.0, 0.5])

    def test_saturation(self):
        policy = SelectorPolicy(np.array([20.0, 0.0]), 1)
        assert probabilities(policy)[0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_high_precision_sigmoid(self):
        policy = SelectorPolicy(np.array([0.3, -0.7]), 0, mask_sensitive=False)
        p = probabilities(policy)
        assert p[0] == pytest.approx(SIGMOID_0P3, rel=1e-14)
        assert p[1] == pytest.approx(SIGMOID_M0P7, rel=1e-14)

    def test_unmasked_keeps_sensitive(self):
        policy = SelectorPolicy(np.zeros(3), 1, mask_sensitive=False)
        assert probabilities(policy)[1] == 0.5

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

    def test_reproducible(self):
        p = np.array([0.3, 0.7, 0.5])
        s1 = sample_selection_batch(p, 1, np.random.default_rng(42))
        s2 = sample_selection_batch(p, 1, np.random.default_rng(42))
        assert np.array_equal(s1, s2)


class TestPiProb:
    def test_uniform_half(self):
        p = np.array([0.5, 0.5])
        for s in enumerate_selections(2):
            assert pi_prob(p, s) == pytest.approx(0.25)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 11))
            p = rng.uniform(0.05, 0.95, size=d)
            total = sum(pi_prob(p, s) for s in enumerate_selections(d))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_near_deterministic(self):
        p = np.array([1 - 1e-12, 1e-12])
        assert pi_prob(p, np.array([1, 0])) == pytest.approx(1.0, abs=1e-11)

    def test_masked_selection_rejected(self):
        policy = SelectorPolicy(np.zeros(3), 1)
        p = probabilities(policy)
        with pytest.raises(FairselError):
            pi_prob(p, np.array([0, 1, 0]))

    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization_property(self, d, seed):
        p = np.random.default_rng(seed).uniform(0.01, 0.99, size=d)
        total = sum(pi_prob(p, s) for s in enumerate_selections(d))
        assert abs(total - 1.0) < 1e-9


class TestLogPiGrad:
    def test_selected_at_half(self):
        p = np.array([0.5, 0.5])
        g = log_pi_grad(p, np.array([1, 0]))
        assert g[0] == pytest.approx(0.5)
        assert g[1] == pytest.approx(-0.5)

    def test_saturated_vanishes(self):
        p = np.array([1 - 1e-9, 0.5])
        g = log_pi_grad(p, np.array([1, 1]))
        assert abs(g[0]) < 1e-8

    def test_masked_coordinate_zero(self):
        policy = SelectorPolicy(np.array([2.0, 0.3, -1.0]), 0)
        p = probabilities(policy)
        s = np.array([0, 1, 0])
        assert log_pi_grad(p, s)[0] == 0.0

    def test_matches_finite_differences_through_sigmoid(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(30):
            d = int(rng.integers(2, 7))
            logits = rng.normal(0, 2, size=d)
            s = (rng.random(d) < 0.5).astype(np.int8)
            analytic = log_pi_grad(sigmoid(logits), s)
            for j in range(d):
                lp, lm = logits.copy(), logits.copy()
                lp[j] += h
                lm[j] -= h
                num = (np.log(pi_prob(sigmoid(lp), s))
                       - np.log(pi_prob(sigmoid(lm), s))) / (2 * h)
                assert relative_error(analytic[j], num) < 1e-6


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
