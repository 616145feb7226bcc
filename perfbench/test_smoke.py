"""Smoke test of the benchmark harness at tiny input sizes.

Checks that every declared metric is emitted with its unit and that the
workloads' output checks pass. It checks no timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(root, *args):
    return subprocess.run([sys.executable, str(Path(root) / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_metrics_emitted_and_checks_pass(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"{name} = " in out.stdout

    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert f"ops = {result['attempted']} count" in lines
    assert "ops_failed = 0 count" in lines
    ops = [line.split() for line in lines if line.startswith("op ")]
    assert ops and all(op[-1] == "ok" for op in ops)
    if not trace:
        # operation 1 repeats operation 0 and must reproduce its report
        digest = [op[op.index("digest") + 1] for op in ops]
        assert ops[1][3] == "0):" and digest[1] == digest[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "--workload", "proxy-train", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
