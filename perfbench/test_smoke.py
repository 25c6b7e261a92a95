"""Smoke test of the benchmark itself, at tiny trial counts.

    python3 -m pytest perfbench/test_smoke.py -q

Not part of the package's test suite.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from checks import sweep_problems
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--trials", "12"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


def test_a_flipped_bit_fails_the_output_check():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import irsmas

    w = WORKLOADS["mas-ssd-bpsk"]
    cfg = irsmas.SystemConfig(**w.fields, n_trials=20, seed=5, error_budget=None)
    rows = irsmas.run_sweep(cfg, w.scheme, w.detector, workers=1)
    assert sweep_problems(rows, w, 20) == [[]]
    flipped = dataclasses.replace(rows[0], bit_errors=rows[0].bit_errors ^ 1)
    assert sweep_problems([flipped], w, 20)[0]


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("mas-ssd-bpsk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
