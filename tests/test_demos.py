"""Smoke tests: every demo script runs to completion, and so does the
benchmark's set-up probe, which imports ``run_trial`` from the package and
runs trial 0 of the configuration its flags describe."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # run from a scratch directory: 04_ber_sweep.py writes demo_sweep.csv
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.setdefault("IRSMAS_WORKERS", "1")
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("argv", ["--detector ssd --trials 2", "--detector ml --trials 2",
                                  "--scheme sas-sm --nr 16 --trials 2"])
def test_setup_probe_runs(argv, tmp_path):
    probe = ROOT / "perfbench" / "setup_probe.py"
    proc = subprocess.run([sys.executable, str(probe), *argv.split()], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"] > 0
