import base64
import json

import numpy as np
import pytest

from fairsel.baseline import LogisticModel, train_logistic
from fairsel.checkpoint import (KIND_ADVERSARIAL, KIND_LOGISTIC, load_model,
                                save_model)
from fairsel.data import split, synth_proxy
from fairsel.errors import DataError
from fairsel.nets import DenseNet, forward
from fairsel.training import TrainConfig, train


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


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
        assert loaded.policy.sensitive_index == model.policy.sensitive_index
        assert loaded.config == model.config
        assert enc2.to_payload() == encoder.to_payload()
        # version 4: theta alone, one base64 blob of little-endian float64
        body = json.loads(path.read_text())
        assert body["version"] == 4
        assert set(body["net"]) == {"theta"}
        blob = base64.b64decode(body["net"]["theta"], validate=True)
        assert blob == model.net.theta.astype("<f8").tobytes()
        assert body["encoder"]["labels"] == encoder.labels == ["0", "1"]
        assert loaded.net.theta.flags.writeable and loaded.net.theta.dtype == np.float64
        assert np.array_equal(bits(loaded.net.theta), bits(model.net.theta))
        assert np.array_equal(bits(loaded.policy.logits), bits(model.policy.logits))
        X = np.random.default_rng(0).random((50, encoder.dim))
        assert np.array_equal(bits(forward(loaded.net, X)), bits(forward(model.net, X)))

    def test_each_fact_stored_once(self, trained, tmp_path):
        # the seed is the config's, the sensitive index and the column
        # names are the encoder layout's, the hidden widths the config's
        model, _, encoder = trained
        path = tmp_path / "adv.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        assert "seed" not in body and set(body["selector"]) == {"logits"}
        assert set(body["encoder"]) == {"spec", "layout", "labels"}
        assert set(body["net"]) == {"theta"} and "mask_sensitive" not in body["config"]
        _, loaded, enc2 = load_model(path)
        assert loaded.policy.sensitive_index == enc2.sensitive_index == 0
        assert loaded.net.sizes == (enc2.dim, *body["config"]["hidden_sizes"],
                                    len(enc2.labels))

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
        assert "version 99" in str(exc.value)
        assert "reads versions 2, 3, 4" in str(exc.value)

    @pytest.mark.parametrize("corrupt", ["not-base64", "short-blob", "nan-blob",
                                         "inf-blob", "sizes-vs-encoder"])
    def test_corrupt_v2_net(self, trained, tmp_path, corrupt):
        model, _, encoder = trained
        path = tmp_path / "c.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        net, theta = body["net"], model.net.theta.copy()
        blob = lambda t: base64.b64encode(t.astype("<f8").tobytes()).decode()
        if corrupt == "not-base64":
            net["theta"] = net["theta"][:40] + "!?" + net["theta"][40:]
        elif corrupt == "short-blob":
            net["theta"] = blob(theta[:-1])
        elif corrupt in ("nan-blob", "inf-blob"):
            theta[-1] = np.nan if corrupt == "nan-blob" else -np.inf
            net["theta"] = blob(theta)
        else:
            # a well-formed net that reads one input more than the encoder
            # writes, stored with its sizes, which are not read
            wide = DenseNet.initialize(encoder.dim + 1, (6, 5), 2, np.random.default_rng(0))
            net["sizes"], net["theta"] = list(wide.sizes), blob(wide.theta)
        path.write_text(json.dumps(body))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert "malformed checkpoint" in str(exc.value)
        if corrupt in ("nan-blob", "inf-blob"):
            assert "layer2.bias" in str(exc.value)

    # test_cli's test_v2_edit_is_two has string logits and a true logit
    @pytest.mark.parametrize("field,value", [
        ("selector.logits", [None, 0.1, 0.2, 0.3]),
        ("selector.logits", "0.5"),
        ("weights", ["0.5", 0.1, 0.2, 0.3]),
        ("weights", [0.5, 0.1, [0.2], 0.3]),
        ("bias", "1.5"),
        ("bias", True),
        ("bias", [1.5]),
        ("bias", None),
    ])
    def test_numbers_must_be_json_numbers(self, trained, tmp_path, field, value):
        # np.array and float() would read "1.5" as 1.5 and true as 1.0
        model, baseline, encoder = trained
        path = tmp_path / "n.json"
        section, _, key = field.rpartition(".")
        save_model(path, model if section else baseline, encoder)
        body = json.loads(path.read_text())
        (body[section] if section else body)[key] = value
        path.write_text(json.dumps(body))
        with pytest.raises(DataError, match=f"malformed checkpoint .*: {field} must be a"):
            load_model(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("text", ["[]", '"checkpoint"', "2"])
    def test_body_not_an_object(self, tmp_path, text):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        with pytest.raises(DataError, match="malformed checkpoint"):
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
