import jsonschema
import numpy as np
import pytest
from jsonschema.exceptions import ValidationError

from fairsel.baseline import LogisticModel, predict_logistic_batch
from fairsel.checkpoint import KIND_LOGISTIC
from fairsel.data import synth_proxy
from fairsel.report import (METRIC_NAMES, REPORT_SCHEMA, REPORT_SCHEMA_VERSION,
                            aggregate, base_report, evaluate_model,
                            strip_wall_clock, validate_report)


def fake_metrics(x):
    return {"accuracy": x, "balanced_accuracy": x,
            "equal_opportunity_diff": x / 10, "average_odds_diff": x / 10,
            "theil_index": x / 20, "mean_sensitivity": x / 100}


class TestAggregate:
    def test_mean_and_sample_std(self):
        agg = aggregate([fake_metrics(0.6), fake_metrics(0.8)])
        assert agg["accuracy"]["mean"] == pytest.approx(0.7)
        assert agg["accuracy"]["std"] == pytest.approx(np.std([0.6, 0.8], ddof=1))

    def test_single_rep_zero_std(self):
        agg = aggregate([fake_metrics(0.5)])
        assert agg["accuracy"]["std"] == 0.0



class TestLogisticSensitivity:
    def test_closed_form_matches_two_predictions_per_row(self):
        ds = synth_proxy(300, 0.9, 3)
        rng = np.random.default_rng(4)
        model = LogisticModel(rng.normal(0, 1.5, ds.features.shape[1]), 0.3)
        k = ds.sensitive_index
        norms = []
        for x in ds.features:
            zeroed = x.copy()
            zeroed[k] = 0.0
            (_, (p,)), (_, (p0,)) = (predict_logistic_batch(model, row[None, :])
                                     for row in (x, zeroed))
            # the two-class probability rows (1 - p, p) and (1 - p0, p0)
            norms.append(np.hypot(p - p0, p0 - p))
        want = float(np.mean(norms))
        assert want > 0.01
        got = evaluate_model(KIND_LOGISTIC, model, ds)["mean_sensitivity"]
        assert got == pytest.approx(want, rel=1e-12)


class TestSchema:
    def _train_report(self, command="train"):
        rep = base_report(command, {"seed": 0}, 0)
        tags = ("adversarial", "baseline") if command == "compare" else ("adversarial",)
        rep["repetitions"] = [{
            "index": 0, "seed": 1, **{tag: fake_metrics(0.5) for tag in tags},
            "selection_probabilities": {"a": 0.5},
            "checkpoints": {tag: f"{tag}_rep0.json" for tag in tags},
        }]
        rep["aggregate"] = {tag: aggregate([fake_metrics(0.5)]) for tag in tags}
        return rep

    def test_valid_train_report(self):
        validate_report(self._train_report())

    def test_valid_compare_report(self):
        validate_report(self._train_report("compare"))

    @pytest.mark.parametrize("where", ["entry", "aggregate"])
    def test_compare_without_baseline_rejected(self, where):
        rep = self._train_report("compare")
        del (rep["repetitions"][0] if where == "entry" else rep["aggregate"])["baseline"]
        with pytest.raises(ValidationError, match="'baseline' is a required property"):
            validate_report(rep)

    def test_missing_metric_rejected(self):
        rep = self._train_report()
        del rep["repetitions"][0]["adversarial"]["theil_index"]
        with pytest.raises(ValidationError, match="'theil_index' is a required"):
            validate_report(rep)

    @pytest.mark.parametrize("where", ["entry", "aggregate"])
    def test_null_metric_rejected(self, where):
        # every metric is a number for every model kind
        rep = self._train_report("compare")
        if where == "entry":
            rep["repetitions"][0]["baseline"]["mean_sensitivity"] = None
        else:
            rep["aggregate"]["baseline"]["mean_sensitivity"]["mean"] = None
        with pytest.raises(ValidationError, match="None is not of type 'number'"):
            validate_report(rep)

    def test_wrong_schema_version_rejected(self):
        rep = self._train_report()
        rep["schema_version"] = REPORT_SCHEMA_VERSION - 1
        with pytest.raises(ValidationError):
            validate_report(rep)

    def test_unknown_command_rejected(self):
        rep = self._train_report()
        rep["command"] = "mystery"
        with pytest.raises(ValidationError):
            validate_report(rep)

    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)

    @pytest.mark.parametrize("breakage", ["missing-key", "wrong-type", "bad-enum"])
    def test_same_error_as_jsonschema_validate(self, breakage):
        rep = self._train_report()
        validate_report(rep)  # only the breakage below makes it invalid
        if breakage == "missing-key":
            del rep["repetitions"][0]["adversarial"]["theil_index"]
        elif breakage == "wrong-type":
            rep["aggregate"]["adversarial"]["accuracy"]["mean"] = "high"
        else:
            rep["command"] = "mystery"
        with pytest.raises(ValidationError) as ours:
            validate_report(rep)
        with pytest.raises(ValidationError) as reference:
            jsonschema.validate(rep, REPORT_SCHEMA)
        assert ours.value.message == reference.value.message
        assert ours.value.path == reference.value.path


class TestStripWallClock:
    def test_removes_nested_fields(self):
        obj = {"wall_clock_seconds": 1.0,
               "inner": [{"wall_clock_seconds": 2.0, "keep": 3}],
               "keep": {"wall_clock_total": 4.0}}
        out = strip_wall_clock(obj)
        assert out == {"inner": [{"keep": 3}], "keep": {}}
