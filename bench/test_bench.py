"""Self-test of the benchmark, run the way the benchmark is run.

    python3 -m pytest bench/test_bench.py

Takes about two minutes: every workload runs traced twice, one cycle each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_UNITS = ("count", "ratio", "bytes")


def run(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def result(*args):
    done = run(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_and_tracing_changes_no_output(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = result(*args), result(*args)
    # correct includes: traced outputs bit-identical to untraced, every
    # wrapper homed on this workload hit, every untraced output checked.
    assert first["correct"] and second["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    exact = [name for name, unit in units.items() if unit in EXACT_UNITS]
    assert {k: first["metrics"][k] for k in exact} == \
        {k: second["metrics"][k] for k in exact}


def test_untraced_run_reports_every_end_to_end_metric():
    out = result("--workload", "solve", "--seed", "1", "--seconds", "1")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 9
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_fails_without_the_program():
    root = BENCH / "out" / "bench-only"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(BENCH, root / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    try:
        done = run("--workload", "solve", "--seed", "0", "--seconds", "1", root=root)
    finally:
        shutil.rmtree(root)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
