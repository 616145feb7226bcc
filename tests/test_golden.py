"""Golden bit-identity gates.

Reruns are bit-identical, and a change that only makes the code faster
must keep every bit of what it computes. These tests pin the sha256 of
a short training run's parameters and of one stripped `compare` report.
A change that moves a bit on purpose (a new summation order, say) must
recompute the pins and say so in CHANGES.md.

The pins hold for a given numpy and BLAS build: a BLAS with other
kernels may sum a matmul in another order.
"""

import hashlib
import json

from fairsel.cli import main
from fairsel.data import split, synth_proxy
from fairsel.report import strip_wall_clock
from fairsel.training import TrainConfig, train

TRAIN_SHA256 = "5041d130908c76925532353a5b1e741e65037b1d830933b21aae7517a9d6be73"
COMPARE_SHA256 = "2f9195105311573c7084ac362c97094d49c1380199df530474287f70e35aa6ea"


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


def test_compare_report_keeps_its_bits(tmp_path, german_csv, german_spec_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(german_csv), "--spec", german_spec_path,
                 "--seed", "13", "--reps", "1", "--max-epochs", "3",
                 "--patience", "3", "--hidden", "16,16", "--alpha-phi", "1e-3",
                 "--baseline-epochs", "50", "--baseline-lr", "0.5",
                 "--out", str(out)]) == 0
    report = strip_wall_clock(json.loads((out / "report.json").read_text()))
    for path in ("data", "spec", "out"):
        del report["config"][path]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == COMPARE_SHA256
