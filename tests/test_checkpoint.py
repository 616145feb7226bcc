import base64
import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BODY_KEYS, BODY_VALUES, json_edits, logistic_model
from fairsel.baseline import train_logistic
from fairsel.checkpoint import (BLOB_DTYPE, KIND_ADVERSARIAL, KIND_LOGISTIC,
                                load_model, save_model)
from fairsel.data import (Dataset, DatasetSpec, Encoder, Predicate, split,
                           synth_proxy)
from fairsel.errors import DataError
from fairsel.nets import DenseNet, forward
from fairsel.report import evaluate_model
from fairsel.training import TrainConfig, TrainedModel, train

DATA_DIR = Path(__file__).parent / "data"
V6_FIXTURE = DATA_DIR / "v6_toy_checkpoint.json"
V7_FIXTURE = DATA_DIR / "v7_toy_checkpoint.json"
# the keys of each object of a version-7 body, by its path (a layout
# entry's by its role)
BODY_FIELDS = {"": {"version", "net", "encoder", "selector"}, "net": {"hidden", "theta"},
               "selector": {"logits"}, "encoder": {"spec", "layout", "labels"}}
LAYOUT_FIELDS = {"sensitive": {"name", "role"}, "numeric": {"name", "role", "min", "max"},
                 "categorical": {"name", "role", "categories"}}


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
        assert enc2.to_payload() == encoder.to_payload()
        # version 7: the hidden widths and theta, one base64 blob of
        # little-endian float32, the dtype train steps
        body = json.loads(path.read_text())
        assert body["version"] == 7
        assert body["net"]["hidden"] == [6, 5]
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
        # the sensitive index and the column names are the encoder
        # layout's, the hidden widths the net's; nothing of the training
        # run (its config, its seed) is stored
        model, _, encoder = trained
        path = tmp_path / "adv.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        for where, fields in BODY_FIELDS.items():
            assert set(body[where] if where else body) == fields
        assert "config" not in path.read_text() and "seed" not in path.read_text()
        _, loaded, enc2 = load_model(path)
        assert loaded.policy.sensitive_index == enc2.sensitive_index == 0
        assert loaded.net.sizes == (enc2.dim, *body["net"]["hidden"], len(enc2.labels))

    @pytest.mark.parametrize("selector", [True, False], ids=["selector", "no-selector"])
    @pytest.mark.parametrize("hidden", [(6, 5), (5,), ()], ids=repr)
    def test_every_trained_model_round_trips(self, trained, tmp_path, hidden, selector):
        # TrainedModel(net, policy), the model train scores each epoch,
        # at any widths, with a selector or without: the net stores its
        # own widths, so no other record of them can disagree with it
        model, _, encoder = trained
        net = model.net
        if hidden != (6, 5):
            net = DenseNet.initialize(encoder.dim, hidden, 2, np.random.default_rng(1))
            net = DenseNet(net.sizes, net.theta.astype(np.float32))
        policy = model.policy if selector else None
        path = tmp_path / "any.json"
        save_model(path, TrainedModel(net, policy), encoder)
        assert json.loads(path.read_text())["net"]["hidden"] == list(hidden)
        kind, loaded, _ = load_model(path)
        assert kind == (KIND_ADVERSARIAL if selector else KIND_LOGISTIC)
        assert loaded.net.sizes == net.sizes
        assert loaded.net.theta.tobytes() == net.theta.tobytes()
        if selector:
            assert np.array_equal(bits(loaded.policy.logits), bits(policy.logits))
        else:
            assert loaded.policy is None and loaded.kept.all()

    def test_logistic_bit_exact(self, trained, tmp_path):
        # the same layout without the selector: a (d, 2) net with no
        # hidden layer that keeps every column
        _, baseline, encoder = trained
        path = tmp_path / "base.json"
        save_model(path, baseline, encoder)
        body = json.loads(path.read_text())
        assert set(body) == {"version", "net", "encoder"} and body["net"]["hidden"] == []
        kind, loaded, _ = load_model(path)
        assert kind == KIND_LOGISTIC
        assert loaded.policy is None
        assert loaded.net.sizes == baseline.net.sizes == (encoder.dim, 2)
        assert loaded.net.theta.dtype == np.float32
        assert np.array_equal(loaded.net.theta.view(np.int32),
                              baseline.net.theta.view(np.int32))
        _, _, te = split(synth_proxy(300, 0.9, seed=0), 1)
        assert evaluate_model(None, loaded, te) == evaluate_model(None, baseline, te)

    def test_reencoding_reproduces_features(self, trained, tmp_path):
        # the stored encoder must transform data exactly as the original
        _, _, encoder = trained
        path = tmp_path / "enc.json"
        save_model(path, logistic_model(np.zeros(encoder.dim), 0.0), encoder)
        _, _, enc2 = load_model(path)
        assert enc2.layout == encoder.layout
        assert enc2.sensitive_index == encoder.sensitive_index
        assert enc2.column_names == encoder.column_names


class TestValidation:
    def test_unknown_kind(self, trained, tmp_path):
        # version 7 has no kind field: the kind is read off whether a
        # selector is present, and a field the layout lacks is named
        model, _, encoder = trained
        path = tmp_path / "x.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        body["kind"] = "mystery"
        path.write_text(json.dumps(body))
        with pytest.raises(DataError, match="unknown field 'kind'"):
            load_model(path)

    def test_v6_file_is_a_data_error(self):
        # the previous version, with its config/selector pair, is not read
        with pytest.raises(DataError, match=r"^unsupported checkpoint version 6 "
                                            r"\(this build reads version 7\)$"):
            load_model(V6_FIXTURE)

    def test_v7_fixture_is_the_v6_model(self):
        # the re-saved fixture holds the v6 file's theta, logits and
        # encoder bits, and its hidden widths are the v6 config's
        v6, v7 = (json.loads(p.read_text()) for p in (V6_FIXTURE, V7_FIXTURE))
        assert v7["net"] == {"hidden": v6["config"]["hidden_sizes"],
                             "theta": v6["net"]["theta"]}
        assert (v7["encoder"], v7["selector"]) == (v6["encoder"], v6["selector"])
        kind, model, encoder = load_model(V7_FIXTURE)
        assert kind == KIND_ADVERSARIAL and model.net.sizes == (4, 8, 6, 2)

    @pytest.mark.parametrize("where,key,named", [
        (("net",), "sizes", "unknown field 'net.sizes'"),
        (("net",), "config", "unknown field 'net.config'"),
        (("selector",), "sensitive_index", "unknown field 'selector.sensitive_index'"),
        (("encoder",), "junk", "unknown field 'encoder.junk'"),
        (("encoder", "layout", 1), "categories", "unknown field 'encoder.layout[1].categories'"),
        (("encoder", "layout", 0), "min", "unknown field 'encoder.layout[0].min'"),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_unknown_nested_key_is_named(self, tmp_path, where, key, named):
        # each object of the body holds exactly its own keys, a layout
        # entry those of its role
        body = json.loads(V7_FIXTURE.read_text())
        obj = body
        for step in where:
            obj = obj[step]
        obj[key] = ["0", "1"]
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(body))
        with pytest.raises(DataError, match=f"^malformed checkpoint .*{re.escape(named)}$"):
            load_model(path)

    def test_spec_fault_is_named_from_the_checkpoint_root(self, tmp_path):
        # the spec's own checks used to name the field from the spec's root
        # ('sensitive.privileged.value') inside a checkpoint too
        body = json.loads(V7_FIXTURE.read_text())
        path = tmp_path / "spec.json"
        for privileged, named in (
                ({"op": "ge", "value": "old"},
                 "field 'encoder.spec.sensitive.privileged.value' on numeric column 'sens' "
                 "is not a number or not finite, got 'old'"),
                ({"op": "in", "values": []},
                 "field 'encoder.spec.sensitive.privileged.values' must be a nonempty "
                 "list for op 'in'")):
            body["encoder"]["spec"]["sensitive"]["privileged"] = privileged
            path.write_text(json.dumps(body))
            with pytest.raises(DataError, match=f"^malformed checkpoint {re.escape(str(path))}: "
                                                f"{re.escape(named)}$"):
                load_model(path)

    @pytest.mark.parametrize("kind,privileged,named", [
        ("numeric", {"op": "geq", "value": 1},
         "field '{at}sensitive.privileged.op' must be one of eq, in, ge, gt, le, lt, "
         "got 'geq'"),
        ("categorical", {"op": "ge", "value": 1},
         "field '{at}sensitive.privileged.op' on categorical column 'sens' must be "
         "'eq' or 'in', got 'ge'")], ids=["unknown-op", "order-op-on-categorical"])
    def test_predicate_op_fault_is_named_from_the_file_root(self, tmp_path, kind,
                                                            privileged, named):
        # the same spec as a spec file and as a checkpoint's encoder.spec
        body = json.loads(V7_FIXTURE.read_text())
        spec = body["encoder"]["spec"]
        spec["columns"][0]["kind"] = kind   # 'sens', the sensitive column
        spec["sensitive"]["privileged"] = privileged
        for load, obj, at, what in ((DatasetSpec.from_json, spec, "", "dataset spec"),
                                    (load_model, body, "encoder.spec.", "checkpoint")):
            path = tmp_path / f"{what}.json"
            path.write_text(json.dumps(obj))
            with pytest.raises(DataError, match=f"^malformed {what} {re.escape(str(path))}: "
                                                f"{re.escape(named.format(at=at))}$"):
                load(path)

    @pytest.mark.parametrize("hidden,message", [
        ("8,6", "field 'net.hidden' must be a list, got '8,6'"),
        (8, "field 'net.hidden' must be a list, got 8"),
        (None, "field 'net.hidden' must be a list, got None"),
        ({"0": 8}, "field 'net.hidden' must be a list, got {'0': 8}"),
        (["6", 6], "field 'net.hidden[0]' must be an integer, got '6'"),
        ([True, 6], "field 'net.hidden[0]' must be an integer, got True"),
        ([8, 6.0], "field 'net.hidden[1]' must be an integer, got 6.0"),
        ([8, 0], "positive layer sizes"), ([-1, 6], "positive layer sizes")],
        ids=["string", "int", "null", "object", "string-width", "true-width",
             "float-width", "zero-width", "negative-width"])
    def test_hidden_must_be_json_integers(self, tmp_path, hidden, message):
        # int() would read "6" as 6, true as 1 and 6.0 as 6; a width below
        # 1 is the net's error
        body = json.loads(V7_FIXTURE.read_text())
        body["net"]["hidden"] = hidden
        path = tmp_path / "hidden.json"
        path.write_text(json.dumps(body))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"malformed checkpoint {path}: ")
        assert message in str(exc.value)

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
    ])
    def test_numbers_must_be_json_numbers(self, trained, tmp_path, field, value):
        # np.array would read "1.5" as 1.5 and true as 1.0; a list is named
        # by its first item of another type
        model, _, encoder = trained
        path = tmp_path / "n.json"
        section, _, key = field.rpartition(".")
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        body[section][key] = value
        path.write_text(json.dumps(body))
        named = (f"field '{field}[0]' must be a number" if isinstance(value, list)
                 else f"field '{field}' must be a list")
        with pytest.raises(DataError, match=f"malformed checkpoint .*: {re.escape(named)}"):
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
        with pytest.raises(DataError, match="not a JSON object"):
            load_model(path)

    def test_truncated_body(self, trained, tmp_path):
        # a body without its selector is a model that reads every column,
        # but a net without its widths is no net
        model, _, encoder = trained
        path = tmp_path / "trunc.json"
        save_model(path, model, encoder)
        body = json.loads(path.read_text())
        del body["net"]["hidden"]
        path.write_text(json.dumps(body))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert "malformed" in str(exc.value)

    def test_wrong_type_rejected(self, tmp_path, trained):
        with pytest.raises(TypeError):
            save_model(tmp_path / "t.json", object(), trained[2])


class TestSave:
    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1)], ids=repr)
    def test_numpy_scalar_privileged_value_saves_and_loads(self, tmp_path, value):
        # json encodes neither scalar: the predicate stores the builtin
        ds = synth_proxy(200, 0.9, seed=0)
        builtin = ds.encoder.spec
        spec = dataclasses.replace(builtin, privileged=Predicate(op="ge", value=value))
        assert type(spec.privileged.value) is type(value.item())
        ds = Dataset(ds.features, ds.labels,
                     Encoder(spec, ds.encoder.layout, ds.encoder.labels))
        tr, va, _ = split(ds, 1)
        model = train(tr, va, TrainConfig(max_epochs=1, patience=1, batch_size=64,
                                          hidden_sizes=(4,)))
        path = tmp_path / "numpy.json"
        save_model(path, model, tr.encoder)
        _, loaded, encoder = load_model(path)
        want = dataclasses.replace(builtin, privileged=Predicate(op="ge", value=value.item()))
        assert encoder.spec.to_dict() == spec.to_dict() == want.to_dict()
        assert loaded.net.theta.tobytes() == model.net.theta.tobytes()

    def test_numpy_scalar_logistic_bias_saves_and_loads(self, trained, tmp_path):
        # the bias is one float32 word of the blob, the last of theta
        encoder = trained[2]
        model = logistic_model(np.zeros(encoder.dim), np.float32(0.5))
        path = tmp_path / "numpy-bias.json"
        save_model(path, model, encoder)
        _, loaded, _ = load_model(path)
        assert loaded.net.theta.dtype == np.float32 and loaded.net.theta[-1] == 0.5
        assert loaded.net.biases[0].tolist() == [0.0, 0.5]

    def test_failed_encoding_leaves_no_file(self, trained, tmp_path):
        model, _, encoder = trained
        # assignment skips Predicate's checks: a numpy scalar gets in
        unencodable = copy.deepcopy(encoder)
        unencodable.spec.privileged.value = np.float32(0.5)
        path = tmp_path / "never.json"
        with pytest.raises(TypeError):
            save_model(path, model, unencodable)
        assert not path.exists()
        # and an earlier checkpoint at the path is left as it was
        save_model(path, model, encoder)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_model(path, model, unencodable)
        assert path.read_bytes() == before


# the three ways a version-7 blob can be wrong: cut short, written as
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


@pytest.fixture(scope="module")
def bodies(tmp_path_factory):
    """The v7 fixture's body and a logistic body on its encoder, as the
    writer writes them: the two shapes of the one layout."""
    path = tmp_path_factory.mktemp("bodies") / "logistic.json"
    _, _, encoder = load_model(V7_FIXTURE)
    save_model(path, logistic_model([0.5, -0.25, 0.0, 1.0], 0.1), encoder)
    return {KIND_ADVERSARIAL: json.loads(V7_FIXTURE.read_text()),
            KIND_LOGISTIC: json.loads(path.read_text())}


class TestBodyEditProperty:
    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from([KIND_ADVERSARIAL, KIND_LOGISTIC]), data=st.data())
    def test_body_edits_load_or_are_a_data_error(self, bodies, tmp_path_factory,
                                                 kind, data):
        # one or two edits anywhere: version, encoder, net, and the
        # selector where the body has them, or a key set in any object
        body = data.draw(json_edits(bodies[kind], BODY_VALUES, BODY_KEYS))
        path = tmp_path_factory.getbasetemp() / "body_edit.json"
        path.write_text(json.dumps(body))
        try:
            loaded_kind, model, encoder = load_model(path)
        except DataError:
            return
        assert isinstance(model, TrainedModel)
        # a body that loads holds no key its layout lacks
        for where, fields in BODY_FIELDS.items():
            assert set(body.get(where, {}) if where else body) <= fields
        for item in body["encoder"]["layout"]:
            assert set(item) == LAYOUT_FIELDS[item["role"]]
        assert model.net.input_dim == model.kept.size == encoder.dim
        assert model.net.sizes == (encoder.dim, *body["net"]["hidden"], 2)
        assert (loaded_kind == KIND_ADVERSARIAL) == ("selector" in body)
        if loaded_kind == KIND_ADVERSARIAL:
            assert model.policy.logits.size == encoder.dim
        else:
            assert model.policy is None
