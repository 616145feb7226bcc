"""Golden bit-identity gates.

Reruns are bit-identical, and a change that only makes the code faster
must keep every bit of what it computes. These tests pin the sha256 of
a short training run's parameters, of one float64 logistic baseline fit, of one
stripped `compare` report and of one stripped `evaluate` report.
A change that moves a bit on purpose (a new summation order, say) must
recompute the pins and say so in CHANGES.md.

The pins hold for a given numpy and BLAS build and a given split of
the rows into matmul calls: a BLAS with other kernels, or the same rows
in other batches, may sum a matmul in another order.
"""

import hashlib
import json

import numpy as np

from fairsel.baseline import fit_logistic
from fairsel.cli import derive_seed, main
from fairsel.data import split, synth_proxy
from fairsel.report import strip_wall_clock
from fairsel.training import TrainConfig, train

TRAIN_SHA256 = "5041d130908c76925532353a5b1e741e65037b1d830933b21aae7517a9d6be73"
COMPARE_SHA256 = "54ea7861a95c57c2eb128bba1f3ca2ad4d18fd2bb09845d98fb96ff68373aee3"
EVALUATE_SHA256 = "82176d75dd61c47619ab8673f562a9d91711e8b76b09cf715fb302f1409d3fbe"
BASELINE_SHA256 = "b2ea8519e3d6840853a9c37ae5a031fe4d2e5604fa49d05e95ec78842c4444d2"


def test_short_training_run_keeps_its_bits():
    # a proxy-train-shaped run: 32x32, score baseline on; the last of its
    # five epochs scores best, so every batch reaches the pinned parameters
    tr, va, _ = split(synth_proxy(800, 0.95, 5), 5)
    config = TrainConfig(alpha_theta=1.5, alpha_phi=3e-3, batch_size=128,
                         max_epochs=5, patience=5, seed=5, hidden_sizes=(32, 32),
                         score_baseline=True)
    model = train(tr, va, config)
    assert model.best_epoch == 4
    digest = hashlib.sha256(model.net.theta.astype("<f8").tobytes()
                            + model.policy.logits.astype("<f8").tobytes())
    assert digest.hexdigest() == TRAIN_SHA256


def test_baseline_fit_keeps_its_bits():
    # the float64 fit of criterion 6's first repetition, which proxy-train
    # fits: 5,000 proxy rows, 400 epochs at lr 0.5
    seed = derive_seed(0, 0)
    tr, va, _ = split(synth_proxy(5000, 0.95, seed), seed)
    w, b = fit_logistic(tr, va, epochs=400, lr=0.5)
    digest = hashlib.sha256(w.astype("<f8").tobytes()
                            + np.float64(b).astype("<f8").tobytes())
    assert digest.hexdigest() == BASELINE_SHA256


def test_compare_report_keeps_its_bits(tmp_path, german_csv, german_spec_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(german_csv), "--spec", german_spec_path,
                 "--seed", "13", "--reps", "1", "--max-epochs", "3",
                 "--patience", "3", "--hidden", "16,16", "--alpha-phi", "1e-3",
                 "--out", str(out)]) == 0
    report = strip_wall_clock(json.loads((out / "report.json").read_text()))
    for path in ("data", "spec", "out"):
        del report["config"][path]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == COMPARE_SHA256


def test_evaluate_report_keeps_its_bits(tmp_path, capsys, german_csv, german_spec_path):
    # a float32 16x16 checkpoint scored on the 1,000-row German file: the
    # sensitivity pass runs seven full blocks of 128 rows and a last one
    # of 104
    out = tmp_path / "run"
    assert main(["train", "--data", str(german_csv), "--spec", german_spec_path,
                 "--seed", "13", "--reps", "1", "--max-epochs", "3",
                 "--patience", "3", "--hidden", "16,16", "--alpha-phi", "1e-3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(out / "adversarial_rep0.json"),
                 "--data", str(german_csv)]) == 0
    report = strip_wall_clock(json.loads(capsys.readouterr().out))
    for path in ("checkpoint", "data"):
        del report["config"][path]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == EVALUATE_SHA256
