import json

import numpy as np
import pytest

from fairsel.baseline import LogisticModel, train_logistic
from fairsel.checkpoint import (KIND_ADVERSARIAL, KIND_LOGISTIC, load_model,
                                save_model)
from fairsel.data import split, synth_proxy
from fairsel.errors import DataError
from fairsel.training import TrainConfig, train


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    ds = synth_proxy(300, 0.9, seed=0)
    tr, va, _ = split(ds, 1)
    cfg = TrainConfig(max_epochs=2, patience=2, batch_size=64, seed=4,
                      hidden_sizes=(6, 5), alpha_phi=1e-3, alpha_theta=0.5)
    model = train(tr, va, cfg)
    baseline = train_logistic(tr, va, epochs=30, lr=0.3)
    return model, baseline, tr.encoder


class TestRoundTrip:
    def test_adversarial_bit_exact(self, trained, tmp_path):
        model, _, encoder = trained
        path = tmp_path / "adv.json"
        save_model(path, model, encoder)
        kind, loaded, enc2 = load_model(path)
        assert kind == KIND_ADVERSARIAL
        assert loaded.net.sizes == model.net.sizes
        assert np.array_equal(loaded.net.theta, model.net.theta)
        assert np.array_equal(loaded.policy.logits, model.policy.logits)
        assert loaded.policy.sensitive_index == model.policy.sensitive_index
        assert loaded.config == model.config
        assert enc2.to_payload() == encoder.to_payload()

    def test_logistic_bit_exact(self, trained, tmp_path):
        _, baseline, encoder = trained
        path = tmp_path / "base.json"
        save_model(path, baseline, encoder)
        kind, loaded, _ = load_model(path)
        assert kind == KIND_LOGISTIC
        assert np.array_equal(loaded.weights, baseline.weights)
        assert loaded.bias == baseline.bias

    def test_reencoding_reproduces_features(self, trained, tmp_path):
        # the stored encoder must transform data exactly as the original
        _, _, encoder = trained
        path = tmp_path / "enc.json"
        save_model(path, LogisticModel(np.zeros(encoder.dim), 0.0), encoder)
        _, _, enc2 = load_model(path)
        assert enc2.layout == encoder.layout
        assert enc2.sensitive_index == encoder.sensitive_index
        assert enc2.column_names == encoder.column_names


class TestValidation:
    def test_unknown_kind(self, trained, tmp_path):
        model, _, encoder = trained
        path = tmp_path / "x.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        body["kind"] = "mystery"
        path.write_text(json.dumps(body))
        with pytest.raises(DataError):
            load_model(path)

    def test_version_mismatch(self, trained, tmp_path):
        model, _, encoder = trained
        path = tmp_path / "v.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        body["version"] = 99
        path.write_text(json.dumps(body))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert "version" in str(exc.value)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated_body(self, trained, tmp_path):
        model, _, encoder = trained
        path = tmp_path / "trunc.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        del body["selector"]
        path.write_text(json.dumps(body))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert "malformed" in str(exc.value)

    def test_wrong_type_rejected(self, tmp_path, trained):
        with pytest.raises(TypeError):
            save_model(tmp_path / "t.json", object(), trained[2])
