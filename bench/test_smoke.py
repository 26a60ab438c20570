"""Smoke run of the benchmark: every workload at a tiny size, a second
or so each, untraced and traced.

    python3 -m pytest -q bench/test_smoke.py

Checks that no operation fails against the references, that both runs
report exactly the metrics BENCHMARK.json names, and that the command
line prints its result as the last line and refuses to run without the
engine sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run                                      # noqa: E402
from workloads import WORKLOADS                 # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_smoke(name):
    res, metrics, extra = run.end_to_end(WORKLOADS[name](1, small=True), 1)
    assert res.attempted > 0
    assert extra["fail_ratio"] == 0
    assert set(metrics) == names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_smoke(name):
    attempted, failed, metrics, extra = run.per_layer(
        WORKLOADS[name](1, small=True), 1)
    assert attempted > 0 and failed == 0
    assert extra["nondeterministic"] == []
    assert set(metrics) == names("per_layer")


def test_workload_names_match_spec():
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_command_prints_result_last():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "update", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closure", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
