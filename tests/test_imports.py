"""jsonschema loads only when a report is validated, and
concurrent.futures only when a pool of more than one worker runs. Each
case runs in a fresh interpreter, since the test process holds both."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairsel

DEFERRED = ("jsonschema", "concurrent.futures")

LIBRARY_RUN = """
import os, tempfile
from fairsel import TrainConfig, split, synth_proxy, train
from fairsel.checkpoint import load_model, save_model
from fairsel.report import evaluate_model
tr, va, te = split(synth_proxy(300, 0.9, 0), 0)
model = train(tr, va, TrainConfig(max_epochs=2, patience=2, hidden_sizes=(6, 5)))
evaluate_model(None, model, te)
with tempfile.TemporaryDirectory() as tmp:
    save_model(os.path.join(tmp, "model.json"), model, tr.encoder)
    load_model(os.path.join(tmp, "model.json"))
"""


def loaded_after(code):
    """The DEFERRED modules that a fresh interpreter holds after running
    code, with one worker and one BLAS thread."""
    paths = [str(Path(fairsel.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, FAIRSEL_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = f"{code}\nimport sys\nprint([m for m in {DEFERRED!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import fairsel",
    "import fairsel.report",
    "import fairsel.cli",
    LIBRARY_RUN,
    "from fairsel.cli import main\nassert main(['gradcheck', '--instances', '1']) == 0",
], ids=["fairsel", "report", "cli", "library-run", "gradcheck"])
def test_paths_that_validate_no_report_load_neither(code):
    assert loaded_after(code) == []


def test_validating_a_report_loads_jsonschema():
    code = ("import sys\nfrom fairsel.report import validate_report\n"
            "assert 'jsonschema' not in sys.modules\n"
            "try:\n    validate_report({})\n"
            "except Exception as exc:\n"
            "    assert type(exc).__name__ == 'ValidationError', exc\n")
    assert loaded_after(code) == ["jsonschema"]


def test_one_worker_cli_run_starts_no_pool(tmp_path, german_csv, german_spec_path):
    argv = ["train", "--data", str(german_csv), "--spec", german_spec_path,
            "--reps", "2", "--max-epochs", "1", "--hidden", "8",
            "--out", str(tmp_path / "out")]
    code = f"from fairsel.cli import main\nassert main({argv!r}) == 0"
    # the report it writes is validated first
    assert loaded_after(code) == ["jsonschema"]
    assert (tmp_path / "out" / "report.json").exists()
