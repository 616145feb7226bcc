import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_metrics, outcomes_from_records,
                      random_nondegenerate)
from fairsel.errors import DataError, DegenerateGroupError
from fairsel.metrics import (GroupedOutcomes, accuracy, average_odds_diff,
                             balanced_accuracy, equal_opportunity_diff,
                             theil_index)


class TestAccuracy:
    def test_all_correct(self):
        o = outcomes_from_records([(1, 1, True), (0, 0, False)])
        assert accuracy(o) == 1.0

    def test_all_wrong(self):
        o = outcomes_from_records([(1, 0, True), (0, 1, False)])
        assert accuracy(o) == 0.0

    def test_seven_of_ten(self):
        recs = [(1, 1, True)] * 7 + [(1, 0, False)] * 3
        assert accuracy(outcomes_from_records(recs)) == pytest.approx(0.7)

    def test_empty_errors(self):
        with pytest.raises(DataError):
            accuracy(outcomes_from_records([]))


class TestBalancedAccuracy:
    def test_perfect(self):
        recs = [(1, 1, True), (0, 0, False), (1, 1, False), (0, 0, True)]
        assert balanced_accuracy(outcomes_from_records(recs)) == 1.0

    def test_always_predict_one(self):
        recs = [(1, 1, True), (0, 1, False), (1, 1, False), (0, 1, True)]
        assert balanced_accuracy(outcomes_from_records(recs)) == 0.5

    def test_constructed_rates(self):
        # TPR = 0.8 (8 of 10), TNR = 0.6 (6 of 10) -> 0.7
        recs = ([(1, 1, True)] * 8 + [(1, 0, True)] * 2
                + [(0, 0, False)] * 6 + [(0, 1, False)] * 4)
        assert balanced_accuracy(outcomes_from_records(recs)) == \
            pytest.approx(0.7)

    def test_missing_class_named(self):
        with pytest.raises(DegenerateGroupError) as exc:
            balanced_accuracy(outcomes_from_records(
                [(1, 1, True), (1, 0, False)]))
        assert "negative" in str(exc.value)


class TestEqualOpportunity:
    def test_identical_tprs(self):
        recs = [(1, 1, True), (1, 0, True), (1, 1, False), (1, 0, False),
                (0, 0, True), (0, 0, False)]
        assert equal_opportunity_diff(outcomes_from_records(recs)) == 0.0

    def test_constructed_gap(self):
        # privileged TP=8 FN=2; unprivileged TP=5 FN=5 -> |0.8 - 0.5| = 0.3
        recs = ([(1, 1, True)] * 8 + [(1, 0, True)] * 2
                + [(1, 1, False)] * 5 + [(1, 0, False)] * 5)
        assert equal_opportunity_diff(outcomes_from_records(recs)) == \
            pytest.approx(0.3)

    def test_group_swap_invariant(self):
        rng = np.random.default_rng(0)
        recs = random_nondegenerate(rng)
        swapped = [(t, p, not g) for t, p, g in recs]
        a = equal_opportunity_diff(outcomes_from_records(recs))
        b = equal_opportunity_diff(outcomes_from_records(swapped))
        assert a == pytest.approx(b, abs=1e-15)

    def test_group_without_positives_errors(self):
        recs = [(0, 1, True), (0, 0, True), (1, 1, False), (0, 0, False)]
        with pytest.raises(DegenerateGroupError) as exc:
            equal_opportunity_diff(outcomes_from_records(recs))
        assert "positive" in str(exc.value)


class TestAverageOdds:
    def test_identical_confusions(self):
        block = [(1, 1), (1, 0), (0, 0), (0, 1)]
        recs = [(t, p, True) for t, p in block] + \
               [(t, p, False) for t, p in block]
        assert average_odds_diff(outcomes_from_records(recs)) == 0.0

    @staticmethod
    def _records(tpr_p, fpr_p, tpr_u, fpr_u):
        # ten positives and ten negatives per group at the given rates
        recs = []
        for group, tpr, fpr in ((True, tpr_p, fpr_p), (False, tpr_u, fpr_u)):
            tp, fp = round(10 * tpr), round(10 * fpr)
            recs += ([(1, 1, group)] * tp + [(1, 0, group)] * (10 - tp)
                     + [(0, 1, group)] * fp + [(0, 0, group)] * (10 - fp))
        return outcomes_from_records(recs)

    def test_constructed_gap(self):
        # privileged TPR=0.9 FPR=0.3, unprivileged TPR=0.6 FPR=0.4:
        # |0.3 + (-0.1)| / 2
        out = self._records(0.9, 0.3, 0.6, 0.4)
        assert average_odds_diff(out) == pytest.approx(0.1)

    def test_gaps_favoring_one_group_add_up(self):
        # privileged TPR=0.9 FPR=0.4, unprivileged TPR=0.6 FPR=0.1: the
        # balanced-accuracy gap |dTPR - dFPR| / 2 reads 0 here
        out = self._records(0.9, 0.4, 0.6, 0.1)
        assert average_odds_diff(out) == pytest.approx(0.3)

    def test_group_swap_invariant(self):
        rng = np.random.default_rng(2)
        recs = random_nondegenerate(rng)
        swapped = [(t, p, not g) for t, p, g in recs]
        a = average_odds_diff(outcomes_from_records(recs))
        b = average_odds_diff(outcomes_from_records(swapped))
        assert a == pytest.approx(b, abs=1e-15)


class TestTheil:
    def test_perfect_predictions_zero(self):
        recs = [(1, 1, True), (0, 0, False), (1, 1, False)]
        assert theil_index(outcomes_from_records(recs)) == 0.0

    def test_constant_benefit_zero(self):
        # every record a false positive: benefit 2 for all, zero dispersion
        recs = [(0, 1, True), (0, 1, False), (0, 1, True)]
        assert theil_index(outcomes_from_records(recs)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_frozen_oracle_value(self):
        # benefits [1, 1, 2]; (1/n) sum (b/mu) ln(b/mu) at 40 digits
        recs = [(1, 1, True), (0, 0, False), (0, 1, True)]
        assert theil_index(outcomes_from_records(recs)) == \
            pytest.approx(0.05889151782819173, abs=1e-12)

    def test_all_false_negatives_errors(self):
        recs = [(1, 0, True), (1, 0, False)]
        with pytest.raises(DataError):
            theil_index(outcomes_from_records(recs))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            recs = random_nondegenerate(rng)
            assert theil_index(outcomes_from_records(recs)) >= 0.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_against_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            recs = random_nondegenerate(rng)
            out = outcomes_from_records(recs)
            acc, bal, eod, aod, theil = brute_force_metrics(recs)
            assert accuracy(out) == pytest.approx(acc, abs=1e-12)
            assert balanced_accuracy(out) == pytest.approx(bal, abs=1e-12)
            assert equal_opportunity_diff(out) == pytest.approx(eod, abs=1e-12)
            assert average_odds_diff(out) == pytest.approx(aod, abs=1e-12)
            assert theil_index(out) == pytest.approx(theil, abs=1e-12)

    def test_difference_metrics_bounded_by_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            out = outcomes_from_records(random_nondegenerate(rng))
            assert 0.0 <= equal_opportunity_diff(out) <= 1.0
            assert 0.0 <= average_odds_diff(out) <= 1.0
            assert 0.0 <= balanced_accuracy(out) <= 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        recs = random_nondegenerate(rng, n_max=60)
        out = outcomes_from_records(recs)
        perm = rng.permutation(len(recs))
        shuffled = outcomes_from_records([recs[i] for i in perm])
        for metric in (accuracy, balanced_accuracy, equal_opportunity_diff,
                       average_odds_diff, theil_index):
            assert metric(out) == pytest.approx(metric(shuffled), abs=1e-12)


class TestConfusionCounts:
    def test_label_validation(self):
        with pytest.raises(DataError):
            GroupedOutcomes(np.array([0, 2]), np.array([0, 1]),
                            np.array([True, False]))

    @pytest.mark.parametrize("y_true,y_pred", [
        ([0, 1, 1, 0], [0.9, 0.4, 0.6, 0.1]),   # an int cast reads all zeros
        ([0, 1, 1, 0], [0, 1, 1, -0.5]),
        ([0, 1, np.nan, 0], [0, 1, 1, 0])])
    def test_fractional_label_is_not_truncated(self, y_true, y_pred):
        with pytest.raises(DataError, match="only 0/1 labels"):
            GroupedOutcomes(np.array(y_true), np.array(y_pred),
                            np.array([True, False, True, False]))

    def test_float_and_bool_labels_are_read_as_ints(self):
        out = GroupedOutcomes(np.array([0.0, 1.0]), np.array([True, True]),
                              np.array([True, False]))
        assert out.y_true.dtype == out.y_pred.dtype == np.int64
        assert out.y_pred.tolist() == [1, 1] and accuracy(out) == 0.5
