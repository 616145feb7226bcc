import math

import jsonschema
import numpy as np
import pytest
from jsonschema.exceptions import ValidationError

from fairsel import training
from fairsel.baseline import logistic_net, train_logistic
from fairsel.checkpoint import KIND_ADVERSARIAL
from fairsel.data import (Dataset, DatasetSpec, load_csv, prepare_splits, split,
                          synth_proxy)
from fairsel.nets import forward
from fairsel.report import (METRIC_NAMES, REPORT_SCHEMA, REPORT_SCHEMA_VERSION,
                            aggregate, base_report, evaluate_model,
                            render_report, strip_wall_clock, validate_report,
                            write_report)
from fairsel.training import TrainConfig, TrainedModel, predict, train


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
        # the baseline reads every column: its sensitivity is the change of
        # its probability row between the row with the sensitive value
        # zeroed and the row itself, one forward call each (a float64 net,
        # so the batched pass may differ only in the last bits)
        ds = synth_proxy(300, 0.9, 3)
        rng = np.random.default_rng(4)
        model = TrainedModel(logistic_net(rng.normal(0, 1.5, ds.features.shape[1]), 0.3))
        k = ds.sensitive_index
        norms = []
        for x in ds.features:
            zeroed = x.copy()
            zeroed[k] = 0.0
            p, p0 = (forward(model.net, row[None, :])[0] for row in (x, zeroed))
            norms.append(np.linalg.norm(p - p0))
        want = float(np.mean(norms))
        assert want > 0.01
        got = evaluate_model(None, model, ds)["mean_sensitivity"]
        assert got == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module", params=["proxy", "german", "proxy-baseline",
                                        "german-baseline"])
def scored(request, german_csv, german_spec_path):
    """A trained float32 model, adversarial or the logistic baseline, and
    the rows to score: 700 synthetic proxy rows (five 128-row sensitivity
    blocks and one of 60), or the 1,000-row German file (seven blocks and
    one of 104)."""
    data, _, model = request.param.partition("-")
    if data == "proxy":
        (tr, va, _), rows = split(synth_proxy(600, 0.9, 2), 3), synth_proxy(700, 0.9, 9)
    else:
        spec = DatasetSpec.from_json(german_spec_path)
        raw = load_csv(german_csv, spec)
        tr, va, _ = prepare_splits(raw, spec, 13)
        rows = tr.encoder.transform(raw)
    if model == "baseline":
        return train_logistic(tr, va, epochs=400, lr=0.5), rows
    config = TrainConfig(alpha_theta=0.5, alpha_phi=1e-3, batch_size=64,
                         max_epochs=3, patience=3, seed=5, hidden_sizes=(16, 16))
    return train(tr, va, config), rows


class TestAdversarialScoring:
    """The labels and the sensitivity come from one blocked paired pass,
    for the adversarial model and for the baseline."""

    def test_one_paired_pass_and_no_forward(self, scored, monkeypatch):
        # n rows run once, and the m rows whose sensitive value is not 0
        # run again with it restored
        model, ds = scored
        rows, forwards = [], []
        real = training.layer_outputs
        monkeypatch.setattr(training, "layer_outputs",
                            lambda net, X: rows.append(len(X)) or real(net, X))
        monkeypatch.setattr(training, "forward", lambda *a: forwards.append(a))
        evaluate_model(KIND_ADVERSARIAL, model, ds)
        m = np.count_nonzero(ds.features[:, ds.sensitive_index])
        assert 0 < m < ds.n
        assert sum(rows) == ds.n + m
        assert len(rows) == math.ceil(ds.n / 128)
        assert forwards == []

    def test_labels_are_predicts(self, scored, monkeypatch):
        model, ds = scored
        seen = []
        real = Dataset.outcomes
        monkeypatch.setattr(Dataset, "outcomes",
                            lambda self, y: seen.append(y) or real(self, y))
        evaluate_model(KIND_ADVERSARIAL, model, ds)
        labels, _ = predict(model, ds.features)
        assert 0 < labels.sum() < ds.n
        assert len(seen) == 1 and np.array_equal(seen[0], labels)


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

    def test_render_validates(self):
        rep = self._train_report()
        assert render_report(rep).startswith('{\n  "schema_version": ')
        del rep["aggregate"]
        with pytest.raises(ValidationError, match="'aggregate' is a required property"):
            render_report(rep)

    def test_invalid_report_writes_no_file(self, tmp_path):
        rep = self._train_report()
        write_report(rep, tmp_path / "valid.json")
        assert (tmp_path / "valid.json").read_text() == render_report(rep) + "\n"
        del rep["aggregate"]
        with pytest.raises(ValidationError, match="'aggregate' is a required property"):
            write_report(rep, tmp_path / "invalid.json")
        assert not (tmp_path / "invalid.json").exists()

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
