"""Tests of the benchmark itself.

Run from the repository root (about three minutes)::

    python3 -m pytest perfbench/test_perfbench.py -q

They check that the traced run's counts repeat exactly for a seed, that
every declared layer is reached by some declared workload, that the printed
metrics are the ones ``BENCHMARK.json`` declares, and that a copy holding
only the benchmark refuses to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from run import tail
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


@pytest.fixture(scope="module")
def traced():
    """Two traced runs with the same seed of every workload."""
    return {
        workload: [result_of(run_benchmark(ROOT, workload, 3, trace=1)) for _ in range(2)]
        for workload in WORKLOADS
    }


def test_declared_workloads_are_the_benchmark_workloads():
    assert sorted(workload["name"] for workload in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(traced, workload):
    first, second = traced[workload]
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert list(first["metrics"]) == [metric["name"] for metric in SPEC["per_layer"]]
    for name in tracing.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_every_layer_is_reached_by_a_declared_workload(traced):
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            continue  # a difference of two medians, not a layer; it may read <= 0
        assert any(runs[0]["metrics"][name]["value"] > 0 for runs in traced.values()), name


def test_timed_run_prints_the_declared_metrics():
    result = result_of(run_benchmark(ROOT, "noisy-sweep", 3, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    declared = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_copy_without_the_program_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 1, trace=0)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_tail_has_ten_samples_beyond_it():
    times = [float(value) for value in range(40, 0, -1)]
    value, percentile = tail(times)
    assert sum(sample > value for sample in times) == 10
    assert percentile == 75.0
