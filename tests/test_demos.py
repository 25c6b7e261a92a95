"""Smoke tests: every demo script runs to completion, and so does the
benchmark's set-up probe, which imports ``run_trial`` from the package and
runs trial 0 of the configuration its flags describe.  The package exports
what the demos and the benchmark use, and the single-transmission
walkthrough prints what it always has."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import irsmas

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd):
    # run from a scratch directory: 04_ber_sweep.py writes demo_sweep.csv
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.setdefault("IRSMAS_WORKERS", "1")
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


# Its distances sit far from a rounding edge of the third decimal (216.605907),
# so the text is the same whichever BLAS kernel forms the gains.
SINGLE_TRANSMISSION_STDOUT = """\
block bits      : 01011101
  index part    : 010111 -> row 23 = antennas (3, 6)
  symbol part   : 01
antenna weights : [8.642 9.067]
power order     : slot 2 strongest (ratio 0.2), slot 1 gets 0.8
transmit scalar : +0.4472+0.0000j
ml  detector    : row 23, distance  216.606, bit errors 0, macs 1603328
ssd detector    : row 23, distance  216.606, bit errors 0, macs 50154
"""


def test_single_transmission_stdout(tmp_path):
    demo = ROOT / "demos" / "03_single_transmission.py"
    assert run_demo(demo, tmp_path) == SINGLE_TRANSMISSION_STDOUT


def top_level_names(script: Path) -> set:
    """What a script takes from the top-level package: the X of ``from
    irsmas import X`` and of every read of ``irsmas.X``."""
    names = set()
    for node in ast.walk(ast.parse(script.read_text(), str(script))):
        if isinstance(node, ast.ImportFrom) and node.module == "irsmas" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "irsmas"):
            names.add(node.attr)
    return names


def test_exports_are_what_the_demos_and_the_benchmark_use():
    scripts = DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(top_level_names, scripts))
    submodules = {module.name for module in pkgutil.iter_modules(irsmas.__path__)}
    assert len(set(irsmas.__all__)) == len(irsmas.__all__)
    assert set(irsmas.__all__) == used - submodules


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
