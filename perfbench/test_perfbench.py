"""Self-test of the benchmark: `python3 -m pytest -q perfbench` from the repository root.

One small run per workload must emit every metric that BENCHMARK.json names,
with its unit; the same seed must give the same digest and another seed a
different one. The entry point must refuse a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from tracing import Calls
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def one_scene(workload: str, seed: int, trace: bool, tmp_path) -> dict:
    calls = Calls(trace)
    env = worker.setup(workload, calls, tmp_path / "work")
    return worker.run(env, calls, seed, seconds=0.0, corpus=1)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_units_and_digest(workload, tmp_path):
    plain = one_scene(workload, 1, False, tmp_path)
    traced = one_scene(workload, 1, True, tmp_path)
    other = one_scene(workload, 2, False, tmp_path)
    for result in (plain, traced, other):
        assert result["correct"] and result["failed"] == 0, result["report"]["failures"]
    expected = units("end_to_end")
    del expected["setup_s"]  # measured by run.py across processes
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == expected
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == units("per_layer")
    assert plain["metrics"]["ok_ratio"]["value"] == 1.0
    layer = {k: m["value"] for k, m in traced["metrics"].items()}
    assert layer["scenes.generate_s.calls"] == layer["bench.scenes"] == 1  # checks run untraced
    assert plain["report"]["digest"] == traced["report"]["digest"]
    assert plain["report"]["digest"] != other["report"]["digest"]


def test_run_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "occlusion_sweep", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    last = json.loads(out.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(units("end_to_end"))
    assert last["metrics"]["setup_s"]["value"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(BENCHMARK["command"] + ["--workload", "episode", "--seed", "1", "--seconds", "1",
                                                 "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
