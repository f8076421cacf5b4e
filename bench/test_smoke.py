"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest bench/test_smoke.py

Runs bench/run.py with --tiny and a one-second budget and asserts that the
last line is a result with every metric BENCHMARK.json names, each with
its unit, that the checks ran, that every pass had the same operation
outcomes, and that the traced run's exact counters repeated.  Also asserts that the benchmark refuses to run without the
package sources.  Takes about two minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_layer_metric_has_a_role():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert set(metrics.ROLE) == set(metrics.PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    checks = next(line for line in lines if line.startswith("checks "))
    assert int(checks.split()[1]) > 0
    record = json.loads(next(line for line in lines
                             if line.startswith("record "))[len("record "):])
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "git_commit",
            "seed", "loadavg_start", "loadavg_end"} <= set(record)
    assert "outcomes repeat across passes" in proc.stdout
    if trace:
        assert "exact counters repeat" in proc.stdout
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
