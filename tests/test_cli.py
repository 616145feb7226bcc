import argparse
import base64
import contextlib
import csv
import io
import json
import math
import re
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BODY_KEYS, BODY_VALUES, GERMAN_HEADER, json_edits, logistic_model,
                      write_german_csv)
from fairsel import diagnostics, training
from fairsel.checkpoint import BLOB_DTYPE, CHECKPOINT_VERSION, save_model
from fairsel.cli import _config_from_args, build_parser, derive_seed, main
from fairsel.data import DatasetSpec, Encoder, load_csv
from fairsel.errors import NumericalError
from fairsel.nets import DenseNet
from fairsel.report import REPORT_SCHEMA_VERSION, strip_wall_clock
from fairsel.selector import SelectorPolicy
from fairsel.training import TrainConfig, TrainedModel

DATA_DIR = Path(__file__).parent / "data"
FIXTURE = DATA_DIR / "v7_toy_checkpoint.json"

TOY_SPEC = {
    "name": "toy",
    "columns": [
        {"name": "sens", "kind": "numeric"},
        {"name": "proxy", "kind": "numeric"},
        {"name": "info", "kind": "numeric"},
        {"name": "noise", "kind": "numeric"},
    ],
    "label": {"column": "label", "favorable": "yes"},
    "sensitive": {"column": "sens", "privileged": {"op": "ge", "value": 0.5}},
}


def write_toy(tmp_path, n=240, seed=0, name="toy.csv"):
    rng = np.random.default_rng(seed)
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sens", "proxy", "info", "noise", "label"])
        for _ in range(n):
            a = float(rng.random() < 0.5)
            proxy = a if rng.random() < 0.9 else float(rng.random() < 0.5)
            info = rng.random()
            y = "yes" if (info > 0.5) != (rng.random() < 0.1) else "no"
            w.writerow([a, proxy, f"{info:.6f}", f"{rng.random():.6f}", y])
    spec_path = tmp_path / "toy.json"
    spec_path.write_text(json.dumps(TOY_SPEC))
    return str(path), str(spec_path)


def fast_flags(out):
    return ["--reps", "2", "--max-epochs", "2", "--patience", "2",
            "--batch-size", "64", "--hidden", "8,6", "--alpha-phi", "1e-3",
            "--alpha-theta", "0.5", "--out", str(out)]


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["train", "--data"]) == 1
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_missing_file_is_two(self, tmp_path, capsys):
        _, spec = write_toy(tmp_path)
        assert main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--spec", spec, "--out", str(tmp_path / "o")]) == 2

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        assert main(["tune", "--data", data, "--spec", spec,
                     "--grid", "a,b", "--out", str(tmp_path / "o")]) == 1

    def test_gradcheck_ok_is_zero(self, capsys):
        assert main(["gradcheck", "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_gradcheck_wrong_sensitivity_gradient_is_three(self, capsys, monkeypatch):
        exact = diagnostics.pair_loss_and_grads

        def flipped(net, pair, Y, sensitivity_weight, ce_weight=1.0):
            # the gradient is linear in the two weights, so subtracting twice
            # the sensitivity-only gradient flips that term's sign alone
            loss, grad, ce, sens = exact(net, pair, Y, sensitivity_weight, ce_weight)
            sens_grad = exact(net, pair, Y, sensitivity_weight, 0.0)[1]
            return loss, grad - 2 * sens_grad, ce, sens

        monkeypatch.setattr(diagnostics, "pair_loss_and_grads", flipped)
        assert main(["gradcheck", "--instances", "3"]) == 3
        out = capsys.readouterr().out
        assert "PASS prediction-loss gradient:" in out
        assert "FAIL sensitivity-loss gradient:" in out
        assert "FAIL composite-loss gradient:" in out

    def test_gradcheck_runs_estimator_check(self, capsys):
        assert main(["gradcheck", "--instances", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert lines[6].startswith("PASS score-function estimator (d=6, 200000 draws)")


class TestTrainCommand:
    def test_report_and_checkpoints(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", data, "--spec", spec,
                     "--seed", "3", *fast_flags(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 3
        assert len(report["repetitions"]) == 2
        for rep in report["repetitions"]:
            assert set(rep["adversarial"]) == {
                "accuracy", "balanced_accuracy", "equal_opportunity_diff",
                "average_odds_diff", "theil_index", "mean_sensitivity"}
            name = f"adversarial_rep{rep['index']}.json"
            assert rep["checkpoints"] == {"adversarial": name}
            assert (out / name).exists()
            assert "baseline" not in rep
            assert rep["selection_probabilities"]["sens"] == 0.0
        assert list(report["aggregate"]) == ["adversarial"]
        assert report["aggregate"]["adversarial"]["accuracy"]["std"] is not None

    def test_deterministic_reports(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        args = lambda out: ["train", "--data", data, "--spec", spec,
                            "--seed", "9", *fast_flags(out)]
        assert main(args(tmp_path / "a")) == 0
        assert main(args(tmp_path / "b")) == 0
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        ra, rb = strip_wall_clock(ra), strip_wall_clock(rb)
        del ra["config"]["out"], rb["config"]["out"]
        assert json.dumps(ra) == json.dumps(rb)

    def test_rep_seeds_follow_counter_scheme(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "seeds"
        assert main(["train", "--data", data, "--spec", spec,
                     "--seed", "17", *fast_flags(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for rep in report["repetitions"]:
            assert rep["seed"] == derive_seed(17, rep["index"])

    def test_zero_epochs_reports_untrained_model(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "zero"
        assert main(["train", "--data", data, "--spec", spec, "--reps", "1",
                     "--max-epochs", "0", "--patience", "0",
                     "--hidden", "6", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        rep = report["repetitions"][0]
        assert rep["epochs_run"] == 0
        assert rep["best_epoch"] == -1
        assert 0.0 <= rep["adversarial"]["accuracy"] <= 1.0

    def test_flag_defaults_are_the_config_defaults(self):
        # the parser reads each training default from TrainConfig
        args = build_parser().parse_args(["train", "--data", "x", "--spec", "y"])
        assert _config_from_args(args, args.sensitivity_weight) == TrainConfig()


class TestEvaluateCommand:
    def _memorizing_checkpoint(self, tmp_path, data, spec_path):
        # hand-built model that thresholds the informative feature, which
        # is exactly how the toy labels were generated (minus label noise)
        spec = DatasetSpec.from_json(spec_path)
        raw = load_csv(data, spec)
        encoder = Encoder.fit(raw, spec)
        # one SELU unit, of the sign of info - 1/2, and a head that reads
        # that sign: sizes [4, 1, 2]
        a = 30.0
        net = DenseNet.from_layers([np.array([[0, 0, a, 0.0]]), np.array([[-1.0], [1.0]])],
                                   [np.array([-a / 2]), np.zeros(2)])
        policy = SelectorPolicy(np.full(4, 5.0), encoder.sensitive_index)
        path = tmp_path / "memorizer.json"
        save_model(path, TrainedModel(net, policy), encoder)
        return str(path)

    def test_memorized_toy_hits_perfect_accuracy(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data = tmp_path / "clean.csv"
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sens", "proxy", "info", "noise", "label"])
            # pin min 0 / max 1 so min-max scaling leaves info unchanged
            infos = [0.0, 1.0] + [float(rng.uniform(0.05, 0.95))
                                  for _ in range(58)]
            for info in infos:
                w.writerow([float(rng.random() < 0.5), rng.random(),
                            f"{info:.6f}", rng.random(),
                            "yes" if info > 0.5 else "no"])
        spec_path = tmp_path / "toy.json"
        spec_path.write_text(json.dumps(TOY_SPEC))
        ckpt = self._memorizing_checkpoint(tmp_path, str(data), str(spec_path))
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--checkpoint", ckpt, "--data", str(data),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["accuracy"] == 1.0

    def test_byte_order_mark_is_read_past(self, tmp_path, capsys):
        data, spec_path = write_toy(tmp_path)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(data).read_bytes())
        reports = []
        for path in (data, marked):
            capsys.readouterr()
            assert main(["evaluate", "--checkpoint", ckpt, "--data", str(path)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            del reports[-1]["config"]["data"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("case", ["bad-byte", "long-field"])
    def test_unreadable_csv_line_is_two(self, tmp_path, capsys, case):
        data, spec_path = write_toy(tmp_path, n=400)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        lines = Path(data).read_bytes().splitlines(keepends=True)
        # line 300 of 401 lies past the first 8 KB that a buffered text
        # reader decodes
        assert sum(map(len, lines[:299])) > 8192
        if case == "bad-byte":
            lines[299] = b"\xff" + lines[299]
        else:
            cells = lines[299].split(b",")
            lines[299] = b",".join([b'"' + b"1" * 200_000 + b'"', *cells[1:]])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", ckpt, "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 300" in err
        assert ("is not UTF-8" if case == "bad-byte" else "field larger") in err

    @pytest.mark.parametrize("target", ["dataset spec", "checkpoint"])
    def test_json_file_not_utf8_is_two(self, tmp_path, capsys, target):
        # the file is rewritten one value a line, and its third line
        # gets the bad byte
        data, spec_path = write_toy(tmp_path)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        bad = Path(spec_path if target == "dataset spec" else ckpt)
        lines = json.dumps(json.loads(bad.read_text()), indent=1).encode().splitlines()
        lines[2] = lines[2].replace(b'"', b'"\xff', 1)
        bad.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data,
                     "--spec", spec_path]) == 2
        assert f"{bad}: line 3 is not UTF-8: " in capsys.readouterr().err

    def test_json_files_with_byte_order_mark_load(self, tmp_path, capsys):
        # RFC 8259 lets a parser ignore one, and load_csv drops one too
        data, spec_path = write_toy(tmp_path)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        for path in (Path(spec_path), Path(ckpt)):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data,
                     "--spec", spec_path]) == 0

    def test_baseline_checkpoint_dispatch(self, tmp_path, capsys):
        data, spec_path = write_toy(tmp_path)
        spec = DatasetSpec.from_json(spec_path)
        encoder = Encoder.fit(load_csv(data, spec), spec)
        ckpt = tmp_path / "base.json"
        save_model(ckpt, logistic_model(np.zeros(4), 0.0), encoder)
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--data", data]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model_kind"] == "logistic"
        # zero weights: restoring the sensitive value moves no probability
        assert report["metrics"]["mean_sensitivity"] == 0.0

    def test_metrics_do_not_depend_on_seed(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", data, "--spec", spec, *fast_flags(out)]) == 0
        metrics = {}
        for seed in ("0", "7"):
            report = tmp_path / f"eval{seed}.json"
            assert main(["evaluate", "--checkpoint", str(out / "adversarial_rep0.json"),
                         "--data", data, "--seed", seed, "--out", str(report)]) == 0
            report = json.loads(report.read_text())
            assert report["master_seed"] == int(seed)
            metrics[seed] = report["metrics"]
        assert metrics["0"] == metrics["7"]
        assert metrics["0"]["mean_sensitivity"] > 0.0

    @pytest.mark.parametrize("corrupt", ["layer-shapes", "nan-weight", "inf-logit",
                                         "narrow-input", "short-logits",
                                         "short-logistic-weights"])
    def test_corrupt_checkpoint_is_two(self, tmp_path, capsys, corrupt):
        data, spec_path = write_toy(tmp_path)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        body = json.loads(Path(ckpt).read_text())
        # sizes [4, 1, 2]: W0 (1, 4), b0, W1 (2, 1), b1
        net = body["net"]
        theta = np.frombuffer(base64.b64decode(net["theta"]), BLOB_DTYPE).copy()
        blob = lambda t: base64.b64encode(t.astype(BLOB_DTYPE).tobytes()).decode()
        if corrupt == "layer-shapes":
            # a third layer of 3 units after the head
            net["theta"] = blob(np.concatenate([theta, np.ones((3, 2)).ravel(), np.zeros(3)]))
        elif corrupt == "nan-weight":
            theta[2] = float("nan")   # W0 row 0, column 2
            net["theta"] = blob(theta)
        elif corrupt == "inf-logit":
            body["selector"]["logits"][0] = float("inf")
        elif corrupt == "narrow-input":
            # the encoder writes 4 columns, the net reads 3
            net["theta"] = blob(np.delete(theta, 3))
        elif corrupt == "short-logits":
            body["selector"]["logits"] = body["selector"]["logits"][:3]
        else:
            # a logistic body whose (d, 2) net reads 3 columns, not 4
            body = {"version": body["version"],
                    "net": {"hidden": [], "theta": blob(np.zeros(8))},
                    "encoder": body["encoder"]}
        Path(ckpt).write_text(json.dumps(body))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data]) == 2
        assert "malformed checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", [
        "layout-not-list", "short-layout", "wrong-name", "wrong-role", "bogus-role",
        "text-min", "missing-max", "infinite-max", "inverted-range",
        "no-categories", "int-categories", "repeated-categories",
        "labels-null", "labels-not-strings", "labels-without-favorable"])
    def test_encoder_defect_is_two(self, tmp_path, capsys, german_spec_path, defect):
        data, ckpt = self._german_baseline_checkpoint(tmp_path, german_spec_path)
        body = json.loads(ckpt.read_text())
        enc = body["encoder"]
        entry = {item["role"]: item for item in enc["layout"]}   # one of each
        if defect == "layout-not-list":
            enc["layout"] = {item["name"]: item for item in enc["layout"]}
        elif defect == "short-layout":
            enc["layout"].pop()
        elif defect == "wrong-name":
            entry["numeric"]["name"] = "age_years"
        elif defect == "wrong-role":
            entry["sensitive"]["role"] = "categorical"
        elif defect == "bogus-role":
            entry["categorical"]["role"] = "ordinal"
        elif defect == "text-min":
            entry["numeric"]["min"] = "x"
        elif defect == "missing-max":
            del entry["numeric"]["max"]
        elif defect == "infinite-max":
            entry["numeric"]["max"] = float("inf")
        elif defect == "inverted-range":
            # transform would encode every value of the column as 0
            entry["numeric"]["min"], entry["numeric"]["max"] = 2.0, 1.0
        elif defect == "no-categories":
            del entry["categorical"]["categories"]
        elif defect == "int-categories":
            entry["categorical"]["categories"] = list(range(4))
        elif defect == "repeated-categories":
            # two one-hot columns of one name, the first always 0; a net one
            # input wider ((d + 1, 2): 2 more parameters) keeps the widths
            # equal, so only the repeat is wrong
            cats = entry["categorical"]["categories"]
            cats.insert(0, cats[0])
            size = len(base64.b64decode(body["net"]["theta"])) // 4 + 2
            body["net"]["theta"] = base64.b64encode(
                np.zeros(size, BLOB_DTYPE).tobytes()).decode()
        elif defect == "labels-null":
            enc["labels"] = None
        elif defect == "labels-not-strings":
            enc["labels"] = [1, 2]
        else:
            enc["labels"] = ["2", "3"]   # the favorable value is "1"
        ckpt.write_text(json.dumps(body))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        assert f"malformed checkpoint {ckpt}: " in capsys.readouterr().err

    def test_label_outside_vocabulary_is_two(self, tmp_path, capsys):
        data, spec_path = write_toy(tmp_path)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        rows = Path(data).read_text().splitlines()
        rows[5] = rows[5].rsplit(",", 1)[0] + ",YES"
        bad = tmp_path / "shouting.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert main(["evaluate", "--checkpoint", ckpt, "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "row 5," in err and "'label'" in err and "'YES'" in err

    @staticmethod
    def _german_baseline_checkpoint(tmp_path, spec_path):
        """A German-shaped CSV and a logistic checkpoint fitted on it, whose
        layout holds numeric, categorical and sensitive entries."""
        data = write_german_csv(tmp_path / "german.csv", n=40, seed=1)
        spec = DatasetSpec.from_json(spec_path)
        encoder = Encoder.fit(load_csv(data, spec), spec)
        ckpt = tmp_path / "base.json"
        save_model(ckpt, logistic_model(np.zeros(encoder.dim), 0.0), encoder)
        return data, ckpt

    def test_unseen_category_is_two(self, tmp_path, capsys, german_spec_path):
        data, ckpt = self._german_baseline_checkpoint(tmp_path, german_spec_path)
        rows = Path(data).read_text().splitlines()
        cells = rows[7].split(",")
        cells[GERMAN_HEADER.index("purpose")] = "A4X"
        rows[7] = ",".join(cells)
        bad = tmp_path / "unseen.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "row 7," in err and "'purpose'" in err and "'A4X'" in err

    def test_v2_checkpoint_reproduces_its_recorded_metrics(self, tmp_path, capsys):
        # tests/data holds a version-7 checkpoint (a model first saved as
        # version 2, re-saved by the version-5, 6 and 7 writers) and its
        # evaluate report on write_toy(tmp_path), recorded at the version-5
        # re-save and unchanged since; the net is fixed, so a scoring
        # change that moves a bit shows here
        data, _ = write_toy(tmp_path)
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(FIXTURE), "--data", data]) == 0
        report = json.loads(capsys.readouterr().out)
        report = {k: report[k] for k in ("model_kind", "n_rows", "rejected_rows", "metrics")}
        assert report == json.loads((DATA_DIR / "v6_toy_evaluate.json").read_text())

    @pytest.mark.parametrize("key,value", [
        ("inference_policy", "threshold05"), ("inference_policy", "mc-average"),
        ("inference_policy", "expected-input"), ("mc_samples", 32),
        ("mask_sensitive", True), ("mask_sensitive", "no"), ("mask_sensitive", False),
        ("dropout", 0.5), ("", None)])
    def test_unknown_config_key_is_two(self, tmp_path, capsys, key, value):
        # a checkpoint holds no training config since version 7: a config
        # object, with a key TrainConfig defines, a retired option's or any
        # other, is a field the layout lacks, at the top or in the net
        data, _ = write_toy(tmp_path)
        for where in ("", "net"):
            body = json.loads(FIXTURE.read_text())
            (body[where] if where else body)["config"] = {key: value}
            ckpt = tmp_path / "unknown.json"
            ckpt.write_text(json.dumps(body))
            capsys.readouterr()
            assert main(["evaluate", "--checkpoint", str(ckpt), "--data", data]) == 2
            named = f"{where}.config" if where else "config"
            assert capsys.readouterr().err == (
                f"data error: malformed checkpoint {ckpt}: unknown field '{named}'\n")

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 8, "5", "6", "7", 7.0, True],
                             ids=repr)
    def test_other_version_is_two(self, tmp_path, capsys, version):
        data, _ = write_toy(tmp_path)
        body = json.loads(FIXTURE.read_text())
        assert body["version"] == CHECKPOINT_VERSION == 7
        ckpt = tmp_path / "other.json"
        ckpt.write_text(json.dumps(dict(body, version=version)))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", data]) == 2
        assert capsys.readouterr().err == (
            f"data error: unsupported checkpoint version {version!r} "
            f"(this build reads version 7)\n")

    @pytest.mark.parametrize("field,value", [
        ("score_baseline", "yes"), ("alpha_theta", "1e-3"),
        ("seed", -3), ("seed", 1.5), ("batch_size", True), ("max_epochs", 20.0),
        ("patience", False), ("alpha_phi", None), ("sensitivity_weight", "1"),
        ("hidden_sizes", "86"), ("hidden_sizes", [8.9, 6]),
        ("hidden_sizes", [True, 6])])
    def test_config_field_of_wrong_type_is_two(self, tmp_path, capsys, field, value):
        # the fields of the config version 6 stored: the hidden widths
        # are the net's own since version 7, read as net.hidden, and no
        # other field has a place in the file
        data, _ = write_toy(tmp_path)
        body = json.loads(FIXTURE.read_text())
        if field == "hidden_sizes":
            body["net"]["hidden"] = value
            message = "field 'net.hidden"
        else:
            body["config"] = {field: value}
            message = "unknown field 'config'"
        ckpt = tmp_path / "typed.json"
        ckpt.write_text(json.dumps(body))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", data]) == 2
        assert f"malformed checkpoint {ckpt}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["one-class-head", "three-class-head",
                                      "hidden-vs-net", "string-logits", "true-logit"])
    def test_v2_edit_is_two(self, tmp_path, capsys, edit):
        # the net's sizes are the encoder's and its own hidden widths,
        # and the logits must be JSON numbers
        data, _ = write_toy(tmp_path)
        body = json.loads(FIXTURE.read_text())
        if edit.endswith("-head"):
            # a well-formed theta for another head
            net = DenseNet.initialize(4, (8, 6), 1 if edit == "one-class-head" else 3,
                                      np.random.default_rng(0))
            body["net"]["theta"] = base64.b64encode(
                net.theta.astype(BLOB_DTYPE).tobytes()).decode()
        elif edit == "hidden-vs-net":
            body["net"]["hidden"] = [6, 8]   # the net is [4, 8, 6, 2]
        elif edit == "string-logits":
            body["selector"]["logits"] = [str(v) for v in body["selector"]["logits"]]
        else:
            body["selector"]["logits"][1] = True
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(body))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", data]) == 2
        err = capsys.readouterr().err
        assert f"malformed checkpoint {ckpt}: " in err
        if edit in ("string-logits", "true-logit"):
            at = 0 if edit == "string-logits" else 1
            assert f"field 'selector.logits[{at}]' must be a number" in err

    def test_empty_data_file_is_two(self, tmp_path, capsys):
        data, spec_path = write_toy(tmp_path)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("sens,proxy,info,noise,label\n")
        assert main(["evaluate", "--checkpoint", ckpt,
                     "--data", str(empty)]) == 2

    def test_spec_mismatch_is_two(self, tmp_path, capsys):
        data, spec_path = write_toy(tmp_path)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        other = dict(TOY_SPEC)
        other["columns"] = TOY_SPEC["columns"][:3]
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data,
                     "--spec", str(other_path)]) == 2

    @pytest.mark.parametrize("edit,wrong", [
        ({"sensitive": {"column": "proxy", "privileged": {"op": "ge", "value": 0.5}}},
         "sensitive"),
        ({"sensitive": {"column": "sens", "privileged": {"op": "gt", "value": 0.5}}},
         "sensitive"),
        ({"label": {"column": "label", "favorable": "no"}}, "label"),
        ({"label": {"column": "outcome", "favorable": "yes"}}, "label"),
        ({"label": {"column": "label", "favorable": "no"},
          "columns": TOY_SPEC["columns"][::-1]}, "columns and label"),
    ])
    def test_spec_must_match_all_but_its_name(self, tmp_path, capsys, edit, wrong):
        data, spec_path = write_toy(tmp_path)
        ckpt = self._memorizing_checkpoint(tmp_path, data, spec_path)
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps({**TOY_SPEC, "name": "renamed"}))
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data,
                     "--spec", str(other_path)]) == 0
        other_path.write_text(json.dumps({**TOY_SPEC, **edit}))
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", ckpt, "--data", data,
                     "--spec", str(other_path)]) == 2
        assert capsys.readouterr().err.endswith(f"encoder in its {wrong}\n")

    def test_out_in_missing_directory_is_usage_error_before_any_file(self, tmp_path,
                                                                       capsys):
        missing = str(tmp_path / "nope")
        for out in (tmp_path / "dir" / "missing" / "r.json", tmp_path):
            assert main(["evaluate", "--checkpoint", missing, "--data", missing,
                         "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"--out {out}" in err


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    return write_toy(tmp_path_factory.mktemp("toy"))[0]


class TestEvaluateEditProperty:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_edited_checkpoint_scores_or_is_a_data_error(self, toy_data,
                                                         tmp_path_factory, data):
        # one or two edits anywhere in the v7 fixture, evaluated through
        # the CLI: a report, or exit 2 with a data error, never a traceback
        body = data.draw(json_edits(json.loads(FIXTURE.read_text()), BODY_VALUES,
                                    BODY_KEYS))
        path = tmp_path_factory.getbasetemp() / "evaluate_edit.json"
        path.write_text(json.dumps(body))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--checkpoint", str(path), "--data", toy_data])
        assert (code, err.getvalue()) == (0, "") or (
            code == 2 and err.getvalue().startswith("data error: "))


class TestCompareCommand:
    def test_side_by_side_report(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--data", data, "--spec", spec,
                     "--lambda", "0", *fast_flags(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["repetitions"]) == 2
        for rep in report["repetitions"]:
            assert "adversarial" in rep and "baseline" in rep
            assert math.isfinite(rep["baseline"]["mean_sensitivity"])
            assert (out / f"adversarial_rep{rep['index']}.json").exists()
            assert (out / f"baseline_rep{rep['index']}.json").exists()
        agg = report["aggregate"]
        assert agg["adversarial"]["accuracy"]["mean"] is not None
        assert agg["baseline"]["accuracy"]["mean"] is not None

    def test_train_report_is_compare_report_without_baseline(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        reports, summaries = {}, {}
        for command in ("train", "compare"):
            out = tmp_path / command
            assert main([command, "--data", data, "--spec", spec, "--seed", "4",
                         *fast_flags(out)]) == 0
            summaries[command] = capsys.readouterr().out.splitlines()
            report = strip_wall_clock(json.loads((out / "report.json").read_text()))
            del report["command"], report["config"]
            reports[command] = report
        train, compare = reports["train"], reports["compare"]
        del compare["aggregate"]["baseline"]
        for rep in compare["repetitions"]:
            del rep["baseline"], rep["checkpoints"]["baseline"]
            name = rep["checkpoints"]["adversarial"]
            assert ((tmp_path / "train" / name).read_bytes()
                    == (tmp_path / "compare" / name).read_bytes())
        assert train == compare
        assert summaries["train"][0] == summaries["compare"][0]
        assert summaries["compare"][1].startswith("baseline: accuracy=")


class TestTuneCommand:
    def test_grid_mechanics_and_argmax(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "tune"
        assert main(["tune", "--data", data, "--spec", spec,
                     "--grid", "0,0.5,1", "--reps", "1", "--max-epochs", "2",
                     "--patience", "2", "--hidden", "8,6",
                     "--alpha-phi", "1e-3", "--batch-size", "64",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [e["sensitivity_weight"] for e in report["grid"]] == [0, 0.5, 1]
        selected = [e for e in report["grid"] if e["selected"]]
        assert len(selected) == 1
        best = max(report["grid"],
                   key=lambda e: e["validation_balanced_accuracy"])
        assert selected[0]["validation_balanced_accuracy"] == \
            best["validation_balanced_accuracy"]

    def test_tie_breaks_toward_smaller_weight(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "tie"
        # max-epochs 0 leaves the model untrained for every grid point, so
        # all validation scores tie exactly and the smallest weight wins
        assert main(["tune", "--data", data, "--spec", spec,
                     "--grid", "1,0.5,0", "--reps", "1",
                     "--max-epochs", "0", "--patience", "0", "--hidden", "6",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        scores = {e["validation_balanced_accuracy"] for e in report["grid"]}
        assert len(scores) == 1
        assert report["best"]["sensitivity_weight"] == 0.0


class TestAbortWarnings:
    @pytest.mark.parametrize("command,flags,weights", [
        ("train", [], [1.0]), ("tune", ["--grid", "0,1"], [0.0, 1.0])])
    def test_each_aborted_task_names_itself_on_stderr(self, tmp_path, capsys,
                                                      monkeypatch, command, flags,
                                                      weights):
        # the exit code stays 0; stderr names each (weight, repetition)
        # whose training aborted, and nothing on a run that finished
        data, spec = write_toy(tmp_path)
        argv = [command, "--data", data, "--spec", spec, *flags]
        assert main([*argv, *fast_flags(tmp_path / "ok")]) == 0
        assert capsys.readouterr().err == ""

        def poisoned(*args, **kw):
            raise NumericalError("injected blow-up")
        monkeypatch.setattr(training, "predictor_step", poisoned)
        assert main([*argv, *fast_flags(tmp_path / "aborted")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: sensitivity weight {w}, repetition {rep}: training "
            f"aborted during epoch 0, batch 0: injected blow-up"
            for w in weights for rep in range(2)]


class TestGridRuntime:
    def test_full_eleven_point_grid_on_credit_scale_data(self, tmp_path,
                                                         capsys,
                                                         german_csv,
                                                         german_spec_path):
        import time
        out = tmp_path / "grid11"
        t0 = time.perf_counter()
        assert main(["tune", "--data", str(german_csv),
                     "--spec", german_spec_path, "--reps", "1",
                     "--max-epochs", "4", "--patience", "4",
                     "--hidden", "16,16", "--alpha-phi", "1e-3",
                     "--out", str(out)]) == 0
        elapsed = time.perf_counter() - t0
        report = json.loads((out / "report.json").read_text())
        assert len(report["grid"]) == 11
        assert elapsed < 300

class TestParallelReps:
    def test_thread_env_var(self, tmp_path, capsys, monkeypatch):
        data, spec = write_toy(tmp_path)
        commands = {
            "train": ["train"],
            "compare": ["compare"],
            # one repetition per weight: the grid points are the parallel tasks
            "tune": ["tune", "--grid", "0,0.5,1"],
        }
        for name, head in commands.items():
            tail = ["--reps", "1"] if name == "tune" else []
            argv = lambda out: [*head, "--data", data, "--spec", spec,
                                "--seed", "5", *fast_flags(out), *tail]
            monkeypatch.setenv("FAIRSEL_THREADS", "2")
            assert main(argv(tmp_path / f"{name}-par")) == 0
            report = json.loads((tmp_path / f"{name}-par" / "report.json").read_text())
            if name != "tune":
                assert len(report["repetitions"]) == 2
            # parallel run must produce the same numbers as sequential
            monkeypatch.delenv("FAIRSEL_THREADS")
            assert main(argv(tmp_path / f"{name}-seq")) == 0
            r2 = json.loads((tmp_path / f"{name}-seq" / "report.json").read_text())
            a, b = strip_wall_clock(report), strip_wall_clock(r2)
            del a["config"]["out"], b["config"]["out"]
            assert json.dumps(a) == json.dumps(b), name

    def test_one_pool_per_command(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures
        starts = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setenv("FAIRSEL_THREADS", "2")
        data, spec = write_toy(tmp_path)
        assert main(["tune", "--data", data, "--spec", spec,
                     "--grid", "0,0.5,1", *fast_flags(tmp_path / "t")]) == 0
        assert starts == [2]
        report = json.loads((tmp_path / "t" / "report.json").read_text())
        assert [e["sensitivity_weight"] for e in report["grid"]] == [0, 0.5, 1]

    def test_table_sent_at_most_once_per_worker(self, tmp_path, capsys,
                                                 monkeypatch):
        from fairsel.data import RawTable
        pickles = []

        def counting_reduce(table, protocol):
            pickles.append(table.n_rows)
            return object.__reduce_ex__(table, protocol)

        monkeypatch.setattr(RawTable, "__reduce_ex__", counting_reduce)
        monkeypatch.setenv("FAIRSEL_THREADS", "2")
        data, spec = write_toy(tmp_path)
        assert main(["tune", "--data", data, "--spec", spec,
                     "--grid", "0,0.5,1", *fast_flags(tmp_path / "t")]) == 0
        assert len(pickles) <= 2


class TestInvalidValues:
    @pytest.mark.parametrize("command", ["train", "compare", "tune"])
    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_reps_below_one_is_usage_error(self, tmp_path, capsys, command, reps):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "o"
        assert main([command, "--data", data, "--spec", spec,
                     *fast_flags(out), "--reps", reps]) == 1
        assert "--reps" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-1"])
    def test_bad_thread_count_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch, value):
        monkeypatch.setenv("FAIRSEL_THREADS", value)
        data, spec = write_toy(tmp_path)
        assert main(["train", "--data", data, "--spec", spec,
                     *fast_flags(tmp_path / "o")]) == 1
        assert "FAIRSEL_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("train", ["--alpha-theta", "nan"]),
        ("train", ["--alpha-phi", "inf"]),
        ("train", ["--lambda", "nan"]),
        ("compare", ["--lambda", "inf"]),
        ("train", ["--patience", "-1"]),
        ("train", ["--hidden", "abc"]),
        ("train", ["--hidden", ","]),
        ("train", ["--hidden", "8.5"]),
        ("tune", ["--grid", ","]),
        ("tune", ["--grid", "0,x"]),
        ("tune", ["--grid", "0,nan"]),
        ("tune", ["--grid", "0,inf"]),
        ("tune", ["--grid", "0,-1"]),
        ("train", ["--batch-size", "0"]),
        ("train", ["--max-epochs", "-1"]),
        ("train", ["--hidden", "0"]),
    ])
    def test_bad_flag_is_usage_error_before_any_file(self, tmp_path, capsys,
                                                     command, flags):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "o"
        assert main([command, "--data", data, "--spec", spec,
                     *fast_flags(out), *flags]) == 1
        assert not out.exists()
        # the flag is checked before the data file is opened
        assert main([command, "--data", str(tmp_path / "nope.csv"), "--spec", spec,
                     *fast_flags(out), *flags]) == 1

    @pytest.mark.parametrize("command", ["train", "compare", "tune", "evaluate",
                                         "gradcheck"])
    @pytest.mark.parametrize("seed", ["-1", "-2"])
    def test_negative_seed_is_usage_error_before_any_file(self, tmp_path, capsys,
                                                          command, seed):
        # no file exists, so reading one first would exit 2
        out, missing = tmp_path / "o", str(tmp_path / "nope")
        flags = {"evaluate": ["--checkpoint", missing, "--data", missing],
                 "gradcheck": []}.get(
            command, ["--data", missing, "--spec", missing, *fast_flags(out)])
        assert main([command, *flags, "--seed", seed]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare", "tune"])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_is_a_file_is_usage_error_before_any_file(
            self, tmp_path, capsys, command, under):
        # --data names no file, so reading it first would exit 2
        spec = write_toy(tmp_path)[1]
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        assert main([command, "--data", str(tmp_path / "nope.csv"), "--spec", spec,
                     *fast_flags(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: --out {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == ""

    def test_tune_takes_weights_from_grid_only(self, tmp_path, capsys):
        data, spec = write_toy(tmp_path)
        out = tmp_path / "t"
        assert main(["tune", "--data", data, "--spec", spec, "--grid", "0,1",
                     "--lambda", "-1", *fast_flags(out)]) == 1
        assert "--lambda" in capsys.readouterr().err
        assert main(["tune", "--data", data, "--spec", spec, "--grid", "0,1",
                     *fast_flags(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "sensitivity_weight" not in report["config"]

    @pytest.mark.parametrize("command,flags,message", [
        ("train", ["--hidden", "8,x"],
         "--hidden expects comma-separated integers, got '8,x'"),
        ("tune", ["--grid", "0,x"], "--grid expects comma-separated numbers, got '0,x'"),
        ("tune", ["--grid", ", ,"], "--grid must contain at least one value")])
    def test_list_flag_error_names_the_flag(self, tmp_path, capsys, command, flags,
                                            message):
        data, spec = write_toy(tmp_path)
        assert main([command, "--data", data, "--spec", spec,
                     *fast_flags(tmp_path / "o"), *flags]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("flags", [["--instances", "0"]])
    def test_gradcheck_range_is_usage_error(self, capsys, flags):
        assert main(["gradcheck", *flags]) == 1
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--report-format", "json"),
        ("compare", "--baseline-l2", "0"),
        ("compare", "--baseline-epochs", "500"),
        ("compare", "--baseline-lr", "0.1"),
        ("gradcheck", "--samples", "200000"),
        ("gradcheck", "--dims", "6")])
    def test_deleted_flag_is_usage_error(self, tmp_path, capsys, command, flag, value):
        # reports are JSON only, the baseline is unregularized and runs 500
        # epochs at learning rate 0.1, and the estimator check draws the
        # count its tolerance is calibrated for, at its one feature count
        data, spec = write_toy(tmp_path)
        flags = ([] if command == "gradcheck" else
                 ["--data", data, "--spec", spec, *fast_flags(tmp_path / "o")])
        assert main([command, *flags, flag, value]) == 1
        assert flag in capsys.readouterr().err

    def test_non_finite_numeric_cell_is_a_data_error(self, tmp_path, capsys,
                                                     german_csv, german_spec_path):
        rows = german_csv.read_text().splitlines()
        header = rows[0].split(",")
        cells = rows[7].split(",")
        cells[header.index("credit_amount")] = "inf"
        rows[7] = ",".join(cells)
        data = tmp_path / "german-inf.csv"
        data.write_text("\n".join(rows) + "\n")
        assert main(["train", "--data", str(data), "--spec", german_spec_path,
                     *fast_flags(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "row 7" in err and "'credit_amount'" in err


class TestSpecShape:
    """A spec file of the wrong JSON shape is a data error naming the
    field, from every command that reads one."""

    SHAPES = {
        "not-an-object": ([], "{spec}: not a JSON object, got []"),
        "label-string": ({**TOY_SPEC, "label": "label"}, "malformed dataset spec {spec}: "
                         "field 'label' must be an object, got 'label'"),
        "column-string": ({**TOY_SPEC, "columns": ["sens", *TOY_SPEC["columns"][1:]]},
                          "malformed dataset spec {spec}: field 'columns[0]' must be an "
                          "object, got 'sens'"),
    }

    @pytest.mark.parametrize("command", ["train", "compare", "tune", "evaluate"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_wrong_shape_is_two(self, tmp_path, capsys, command, shape):
        data, _ = write_toy(tmp_path)
        body, message = self.SHAPES[shape]
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(body))
        out = tmp_path / "o"
        flags = (["--checkpoint", str(FIXTURE)]
                 if command == "evaluate" else fast_flags(out))
        assert main([command, "--data", data, "--spec", str(spec), *flags]) == 2
        assert capsys.readouterr().err == f"data error: {message.format(spec=spec)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("privileged,field", [
        ('{"op": "ge", "value": 1%s}' % ("0" * 400), "value"),
        ('{"op": "ge", "value": 1e999}', "value"),
        ('{"op": "ge", "value": NaN}', "value"),
        ('{"op": "ge", "value": -Infinity}', "value"),
        ('{"op": "ge", "value": "nan"}', "value"),
        ('{"op": "in", "values": ["1e999"]}', "values")],
        ids=["401-digits", "1e999", "NaN", "-Infinity", "nan-string", "in-1e999"])
    def test_non_finite_privileged_value_is_two(self, tmp_path, capsys, privileged, field):
        # the bank spec's sensitive column (age) is numeric
        data, _ = write_toy(tmp_path)
        text = (files("fairsel") / "specs" / "bank.json").read_text()
        spec = tmp_path / "bank.json"
        spec.write_text(text.replace('{"op": "ge", "value": 25}', privileged))
        assert spec.read_text() != text
        out = tmp_path / "o"
        assert main(["train", "--data", data, "--spec", str(spec), *fast_flags(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: malformed dataset spec {spec}: field "
                              f"'sensitive.privileged.{field}' on numeric column 'age' "
                              f"is not a number or not finite")
        assert not out.exists()


class TestReadmeFlags:
    def test_readme_cli_section_names_every_flag_and_no_other(self):
        # a removed flag left in the docs, or a new one left out, fails
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {opt for sub in subparsers.choices.values()
                   for action in sub._actions for opt in action.option_strings
                   if opt.startswith("--")} - {"--help"}
        assert documented == options

    def test_readme_names_the_report_schema_version(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert re.findall(r"schema version (\d+)", readme, re.IGNORECASE) == [
            str(REPORT_SCHEMA_VERSION)]

    def test_readme_names_the_checkpoint_version(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert re.findall(r"Version (\d+) is written", readme) == [
            str(CHECKPOINT_VERSION)]
