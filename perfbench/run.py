"""The fairsel benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload proxy-train --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. BENCHMARK.json lists the
workloads and the metrics with their units and bounds; README.md in this
directory defines every metric and maps each per-module metric to the
end-to-end metric and workload it should move.

The benchmark process starts each step in a fresh Python process of its
own (workloads.py), with thread counts set only in that environment:

1. a preparation process writes the inputs generated from --seed (never
   timed);
2. SETUP_REPEATS set-up processes, half before and half after step 3,
   each time `import fairsel.cli` plus the ingest calls of the workload;
   setup_s is their median;
3. with --trace 0, one process performs operations for --seconds (and at
   least MIN_OPS of them), each between two passes of a yardstick, and
   the end-to-end metrics come from it; with --trace 1, one untraced and
   one traced process each perform exactly QUALITY_OPS operations, and
   the per-module metrics come from the traced one.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# operations on distinct inputs per run: the quality metrics average over
# them, and later operations repeat them to check bit-reproducibility
QUALITY_OPS = {"full": 3, "tiny": 1}
# least operations of an untraced run: at least one repeats an earlier
# one, so every run checks that reruns are bit-identical
MIN_OPS = {"full": 4, "tiny": 2}
# set-up processes per run, half before and half after the operations,
# so that their median spans more of the machine's speed drift
SETUP_REPEATS = {"full": 6, "tiny": 2}
# every run must end within 180 s; child processes are killed after this
BUDGET_S = 170.0

# pool workers of credit-tune; every other workload is one process
FAIRSEL_THREADS = {"credit-tune": 2}


def child_env(workload):
    cpus = len(os.sched_getaffinity(0))
    threads = {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "FAIRSEL_THREADS": str(min(FAIRSEL_THREADS.get(workload, 1), cpus)),
    }
    env = dict(os.environ, **threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env, threads


class Child:
    """Runs workloads.py in fresh processes under one shared deadline."""

    def __init__(self, args, work, env):
        self.base = [sys.executable, str(HERE / "workloads.py")]
        self.common = ["--workload", args.workload, "--size", args.size,
                       "--work", str(work), "--seed", str(args.seed)]
        self.env = env
        self.deadline = time.monotonic() + BUDGET_S

    def __call__(self, mode, *extra):
        proc = subprocess.Popen(self.base + [mode] + self.common + [str(e) for e in extra],
                                env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._kill(proc)
            raise SystemExit(f"perfbench: {mode} process ran past the {BUDGET_S:.0f} s budget")
        except BaseException:
            self._kill(proc)
            raise
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {mode} process exited with {proc.returncode}")
        return out

    @staticmethod
    def _kill(proc):
        # the child leads its own process group, which holds its pool workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def setup(child):
    return json.loads(child("setup").splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _ref_sum(ops):
    return sum(op["wall_s"] / op["ref_s"] for op in ops)


# printed with the end-to-end metrics, but raw wall time and |EOD| spread
# too much between runs to be bounded (see README.md)
PRINTED_UNITS = {"wall_s": "s", "examples_per_s": "1/s", "test_abs_eod": "1"}


def end_to_end(setups, result):
    ops = result["ops"]
    good = [op for op in ops if not op["problems"]] or ops
    return {
        "setup_s": statistics.median(s["import_s"] + s["ingest_s"] for s in setups),
        "wall_ref": statistics.median(op["wall_s"] / op["ref_s"] for op in ops),
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "examples_per_s": statistics.median(op["examples"] / op["wall_s"] for op in good),
        "peak_rss_mb": result["peak_rss_mb"],
        "test_balanced_accuracy": result["test_balanced_accuracy"] or 0.0,
        "test_abs_eod": result["test_abs_eod"] or 0.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="fairsel benchmark, one workload per run")
    ap.add_argument("--workload", required=True,
                    choices=("proxy-train", "credit-compare", "bank-score", "credit-tune"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smallest inputs, for the harness smoke test")
    args = ap.parse_args(argv)
    # a terminated benchmark unwinds, so its workload processes are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "fairsel" / "__init__.py").is_file():
        print(f"perfbench: no fairsel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env, threads = child_env(args.workload)
    child = Child(args, work, env)
    quality_ops = QUALITY_OPS[args.size]
    try:
        child("prepare")
        repeats = SETUP_REPEATS[args.size]
        setups = [setup(child) for _ in range(repeats // 2)]
        if args.trace:
            fixed = ("--min-ops", quality_ops, "--max-ops", quality_ops,
                     "--quality-ops", quality_ops)
            child("run", *fixed)
            plain = json.loads((work / "result.json").read_text())
            child("run", *fixed, "--trace", 1)
        else:
            child("run", "--seconds", args.seconds, "--min-ops", MIN_OPS[args.size],
                  "--quality-ops", quality_ops)
        result = json.loads((work / "result.json").read_text())
        setups += [setup(child) for _ in range(repeats - len(setups))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    attempted = sum(op["units"] for op in ops)
    failed = sum(op["units"] for op in ops if op["problems"])
    if args.trace:
        values = dict(result["per_layer"])
        values["metrics.test_abs_eod"] = result["test_abs_eod"] or 0.0
        values["trace.overhead_pct"] = 100.0 * (_ref_sum(ops) / _ref_sum(plain["ops"]) - 1.0)
        declared = declared["per_layer"]
    else:
        values = end_to_end(setups, result)
        declared = declared["end_to_end"]
    units = dict(PRINTED_UNITS, **{m["name"]: m["unit"] for m in declared})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env_record = {
        "cpu_count": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": result["numpy"],
        "blas": result["blas"], "git_commit": git_commit(), "child_env": threads,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for op in ops:
        status = "; ".join(op["problems"]) or "ok"
        print(f"op {op['index']} (inputs {op['variant']}): {op['wall_s']:.4f} s "
              f"yardstick {op['ref_s']:.4f} s digest {op['digest']} {status}")
    import_s = statistics.median(s["import_s"] for s in setups)
    print(f"setup: median import {import_s:.4f} s over {len(setups)} processes")
    if "outcome" in result:
        print(result["outcome"])
    for idle in result.get("idle", []):
        print(f"not measured on {args.workload}: {idle} (reported as 0)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops = {attempted} count")
    print(f"ops_failed = {failed} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
