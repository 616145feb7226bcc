import base64
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANY_JSON, json_edits
from fairsel.baseline import LogisticModel, train_logistic
from fairsel.checkpoint import (BLOB_DTYPE, KIND_ADVERSARIAL, KIND_LOGISTIC,
                                load_model, save_model)
from fairsel.data import split, synth_proxy
from fairsel.errors import DataError
from fairsel.nets import DenseNet, forward
from fairsel.training import TrainConfig, TrainedModel, train

V5_FIXTURE = Path(__file__).parent / "data" / "v5_toy_checkpoint.json"


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
        # version 5: theta alone, one base64 blob of little-endian float32,
        # the dtype train steps
        body = json.loads(path.read_text())
        assert body["version"] == 5
        assert set(body["net"]) == {"theta"}
        blob = base64.b64decode(body["net"]["theta"], validate=True)
        assert model.net.theta.dtype == np.float32
        assert blob == model.net.theta.astype("<f4").tobytes()
        assert body["encoder"]["labels"] == encoder.labels == ["0", "1"]
        assert loaded.net.theta.flags.writeable and loaded.net.theta.dtype == np.float32
        assert np.array_equal(loaded.net.theta.view(np.int32), model.net.theta.view(np.int32))
        assert np.array_equal(bits(loaded.policy.logits), bits(model.policy.logits))
        X = np.random.default_rng(0).random((50, encoder.dim))
        assert np.array_equal(forward(loaded.net, X).view(np.int32),
                              forward(model.net, X).view(np.int32))

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

    @pytest.mark.parametrize("corrupt", ["not-base64", "short-blob", "nan-blob",
                                         "inf-blob", "sizes-vs-encoder"])
    def test_corrupt_v2_net(self, trained, tmp_path, corrupt):
        model, _, encoder = trained
        path = tmp_path / "c.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        net, theta = body["net"], model.net.theta.copy()
        blob = lambda t: base64.b64encode(t.astype(BLOB_DTYPE).tobytes()).decode()
        if corrupt == "not-base64":
            net["theta"] = net["theta"][:40] + "!?" + net["theta"][40:]
        elif corrupt == "short-blob":
            net["theta"] = blob(theta[:-1])
        elif corrupt in ("nan-blob", "inf-blob"):
            theta[-1] = np.nan if corrupt == "nan-blob" else -np.inf
            net["theta"] = blob(theta)
        else:
            # a well-formed net that reads one input more than the encoder writes
            wide = DenseNet.initialize(encoder.dim + 1, (6, 5), 2, np.random.default_rng(0))
            net["theta"] = blob(wide.theta)
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


class TestSave:
    @pytest.mark.parametrize("field,value", [("max_epochs", np.int64(1)),
                                             ("alpha_phi", np.float32(1e-3))])
    def test_numpy_scalar_config_saves_and_loads(self, tmp_path, field, value):
        # json encodes neither scalar: the config stores the builtin
        tr, va, _ = split(synth_proxy(200, 0.9, seed=0), 1)
        fields = dict(max_epochs=1, patience=1, batch_size=64, hidden_sizes=(4,))
        model = train(tr, va, TrainConfig(**{**fields, field: value}))
        assert type(getattr(model.config, field)) is type(value.item())
        path = tmp_path / "numpy.json"
        save_model(path, model, tr.encoder)
        _, loaded, _ = load_model(path)
        assert loaded.config == model.config
        assert getattr(loaded.config, field) == value.item()

    def test_numpy_scalar_logistic_bias_saves_and_loads(self, trained, tmp_path):
        encoder = trained[2]
        model = LogisticModel(np.zeros(encoder.dim), np.float32(0.5))
        path = tmp_path / "numpy-bias.json"
        save_model(path, model, encoder)
        _, loaded, _ = load_model(path)
        assert type(loaded.bias) is float and loaded.bias == 0.5

    def test_failed_encoding_leaves_no_file(self, trained, tmp_path):
        model, _, encoder = trained
        # assignment skips TrainConfig's checks: a numpy scalar gets in
        config = dataclasses.replace(model.config)
        config.seed = np.int64(4)
        unencodable = TrainedModel(model.net, model.policy, config)
        path = tmp_path / "never.json"
        with pytest.raises(TypeError):
            save_model(path, unencodable, encoder)
        assert not path.exists()
        # and an earlier checkpoint at the path is left as it was
        save_model(path, model, encoder)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_model(path, unencodable, encoder)
        assert path.read_bytes() == before


# the three ways a version-5 blob can be wrong: cut short, written as
# float64, or holding a non-finite float32 word (exponent bits all ones)
_BLOB_DEFECTS = st.one_of(
    st.tuples(st.just("truncated"), st.integers(0, 10**6)),
    st.tuples(st.just("float64"), st.just(0)),
    st.tuples(st.just("non-finite"),
              st.integers(0x7F800000, 0x7FFFFFFF) | st.integers(0xFF800000, 0xFFFFFFFF)))


class TestBlobProperty:
    @settings(max_examples=200, deadline=None)
    @given(defect=_BLOB_DEFECTS, where=st.integers(0, 10**6))
    def test_blob_defect_is_a_data_error(self, trained, tmp_path_factory, defect, where):
        model, _, encoder = trained
        path = tmp_path_factory.getbasetemp() / "blob_defect.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        words = model.net.theta.astype("<f4")
        kind, value = defect
        if kind == "truncated":
            raw = words.tobytes()[:value % (4 * words.size)]
        elif kind == "float64":
            raw = model.net.theta.astype("<f8").tobytes()
        else:
            words.view("<u4")[where % words.size] = value
            raw = words.tobytes()
        body["net"]["theta"] = base64.b64encode(raw).decode()
        path.write_text(json.dumps(body))
        with pytest.raises(DataError, match="malformed checkpoint"):
            load_model(path)


_V5_BODY = json.loads(V5_FIXTURE.read_text())
# the config's keys and the three retired ones, which are now unknown
_CONFIG_KEYS = sorted({*_V5_BODY["config"], "inference_policy", "mc_samples",
                       "mask_sensitive"})
_DELETE = object()
# values a config holds, so that edits also load, and integers past
# float range
_CONFIG_VALUES = st.sampled_from(["threshold05", "mc-average", "expected-input",
                                  True, 0.5, 32, [8, 6], 2**64, 10**400])


class TestConfigEditProperty:
    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(_CONFIG_KEYS) | st.text(max_size=12),
           value=_CONFIG_VALUES | ANY_JSON | st.just(_DELETE))
    def test_one_config_edit_loads_or_is_a_data_error(self, tmp_path_factory,
                                                      key, value):
        # replace one entry with any JSON value, delete it, or add an
        # unknown key: the loader returns a model or raises DataError
        body = json.loads(json.dumps(_V5_BODY))
        if value is _DELETE:
            body["config"].pop(key, None)
        else:
            body["config"][key] = value
        path = tmp_path_factory.getbasetemp() / "config_edit.json"
        path.write_text(json.dumps(body))
        try:
            kind, model, _ = load_model(path)
        except DataError:
            return
        assert kind == KIND_ADVERSARIAL and isinstance(model, TrainedModel)


# values a checkpoint body holds elsewhere (versions, kinds, layout roles,
# base64 blobs), so that edits also load, beside the config's
_BODY_VALUES = (st.sampled_from([5, "5", 4, 6, KIND_ADVERSARIAL, KIND_LOGISTIC,
                                 "numeric", "categorical", "sensitive", "1", 0.0])
                | st.binary(max_size=48).map(lambda b: base64.b64encode(b).decode())
                | _CONFIG_VALUES | ANY_JSON)


@pytest.fixture(scope="module")
def bodies(tmp_path_factory):
    """The v5 fixture's body and a logistic body on its encoder, as the
    writer writes them."""
    path = tmp_path_factory.mktemp("bodies") / "logistic.json"
    _, _, encoder = load_model(V5_FIXTURE)
    save_model(path, LogisticModel(np.array([0.5, -0.25, 0.0, 1.0]), 0.1), encoder)
    return {KIND_ADVERSARIAL: _V5_BODY, KIND_LOGISTIC: json.loads(path.read_text())}


class TestBodyEditProperty:
    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from([KIND_ADVERSARIAL, KIND_LOGISTIC]), data=st.data())
    def test_body_edits_load_or_are_a_data_error(self, bodies, tmp_path_factory,
                                                 kind, data):
        # one or two edits anywhere: version, kind, encoder, selector, net,
        # config, weights or bias
        body = data.draw(json_edits(bodies[kind], _BODY_VALUES))
        path = tmp_path_factory.getbasetemp() / "body_edit.json"
        path.write_text(json.dumps(body))
        try:
            loaded_kind, model, encoder = load_model(path)
        except DataError:
            return
        if loaded_kind == KIND_ADVERSARIAL:
            assert isinstance(model, TrainedModel)
            assert model.net.sizes[0] == model.policy.logits.size == encoder.dim
        else:
            assert isinstance(model, LogisticModel)
            assert model.weights.shape == (encoder.dim,)
