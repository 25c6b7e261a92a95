"""irsmas benchmark: run one workload, check every row it returns, print its metrics.

    python3 perfbench/run.py --workload mas-ssd-bpsk --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; irsmas is imported from ``src/``.

``--trace 0`` times the workload's sweeps, cycled through its seeds until
``--seconds`` are used, with fresh-interpreter set-up starts spread over the
same time, and reports the end-to-end metrics as medians, corrected for the
host's load (``timed_run``).  ``--trace 1`` alternates untraced sweeps with
sweeps in which every layer is wrapped, and reports the per-layer metrics.  Both then run untimed checks.  Every sweep point or
set-up start that raises or breaks a check counts as failed.

Each metric is printed as ``name value unit``; the last line of standard
output is the result object ``{"correct", "attempted", "failed",
"metrics"}``.  The full record (metadata, quartiles, rows, problems) goes
to ``perfbench/results/``; a traced run also writes its spans there.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy

from checks import sweep_problems
from tracing import Tracer
from workloads import WORKLOADS, cli_args, sweep_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_STARTS = 12
TRACE_PAIRS = 5  # untraced/traced sweep pairs of a traced run
CAL_NOMINAL_S = 0.02  # the calibration loop's time on the reference host
# What irsmas imports from outside itself; a reference start imports these.
REF_IMPORTS = "numpy, argparse, csv, dataclasses, json, multiprocessing, tempfile"


def import_irsmas():
    """Import irsmas from this checkout's sources, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "irsmas", "__init__.py")):
        sys.exit(f"error: no irsmas package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import irsmas
    return irsmas


class Ledger:
    """Counts checked sweep points (and set-up starts) and keeps the problems."""

    def __init__(self, irsmas):
        self.irsmas = irsmas
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, per_point):
        self.attempted += len(per_point)
        for i, problems in enumerate(per_point):
            if problems:
                self.failed += 1
                self.problems += [f"{label}, point {i}: {p}" for p in problems]

    def sweep(self, label, w, cfg, workers, reference=None, error_free=False):
        """Run one sweep and check it.  Returns (seconds, rows), or None if it raised."""
        t0 = time.perf_counter()
        try:
            rows = self.irsmas.run_sweep(cfg, w.scheme, w.detector, workers=workers)
        except Exception:  # a failing sweep is a result to report, not a crash
            self.record(label, [[traceback.format_exc()]] * len(cfg.snr_grid_db))
            return None
        seconds = time.perf_counter() - t0
        per_point = sweep_problems(rows, w, cfg.n_trials, reference)
        if error_free:
            for problems, row in zip(per_point, rows):
                if row.bit_errors or row.block_errors:
                    problems.append(f"{row.block_errors} block errors without noise")
        self.record(label, per_point)
        return seconds, rows


def make_config(irsmas, w, seed, trials):
    cfg = irsmas.SystemConfig(**w.fields, n_trials=trials, seed=seed,
                              error_budget=w.error_budget)
    if w.scheme == "mas":
        irsmas.validate_config(cfg)
    return cfg


def warm_up(irsmas, w, cfg):
    """Fill lazy caches (RAC table, constellation) before anything is timed."""
    small = dataclasses.replace(cfg, n_trials=2, snr_grid_db=cfg.snr_grid_db[:1],
                                error_budget=None)
    irsmas.run_sweep(small, w.scheme, w.detector, workers=1)


def untimed_checks(irsmas, w, cfg, rows, ledger):
    """Noiseless ml makes no block errors; a parallel sweep equals its 1-worker run."""
    nl = dataclasses.replace(w, detector="ml", error_budget=None,
                             fields={**w.noiseless, "snr_grid_db": (float("inf"),)})
    nl_cfg = make_config(irsmas, nl, cfg.seed, w.noiseless_trials)
    ledger.sweep("noiseless ml", nl, nl_cfg, 1, error_free=True)
    if w.workers > 1:
        ledger.sweep("1-worker run", w, cfg, 1, reference=rows)


def setup_start(w, cfg, ledger):
    """Seconds from import to the end of the first trial in a fresh
    interpreter, or None if the start failed."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           *cli_args(w, cfg.seed, cfg.n_trials)]
    # the CLI has no flag for the error budget
    want = json.loads(json.dumps(dataclasses.asdict(cfg)))
    want.pop("error_budget")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    seconds, problems = None, []
    if proc.returncode != 0:
        problems.append(f"set-up start exited {proc.returncode}: {proc.stderr[-400:]}")
    else:
        doc = json.loads(proc.stdout.splitlines()[-1])
        got = doc["config"]
        got.pop("error_budget", None)
        if got == want:
            seconds = doc["setup_s"]
        else:
            problems.append(f"CLI config {got} differs from the benchmark's {want}")
    ledger.record("set-up", [problems])
    return seconds


def reference_start():
    """Seconds a fresh interpreter takes to import what irsmas imports from
    outside itself (most of a set-up start), timed the same way."""
    code = (f"import time; t0 = time.perf_counter(); import {REF_IMPORTS}; "
            "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


_CAL = numpy.random.default_rng(0)
_CAL_H = _CAL.standard_normal((12, 64)) + 1j * _CAL.standard_normal((12, 64))
_CAL_PHASES = _CAL.uniform(0.0, 2 * numpy.pi, (1024, 64))
_CAL_Y = _CAL.standard_normal(12) + 1j * _CAL.standard_normal(12)


def calibration_loop():
    """Seconds taken by a fixed loop of small numpy operations, of the kind a
    trial makes, that does not touch irsmas."""
    t0 = time.perf_counter()
    best = []
    for theta in _CAL_PHASES:
        d = numpy.abs(_CAL_H @ numpy.exp(1j * theta) - _CAL_Y) ** 2
        order = numpy.argsort(d)[:6]
        best.append((float(d[order].sum()), int(order[0])))
    best.sort()
    return time.perf_counter() - t0


def cpu_seconds():
    """(this process, its reaped children) CPU seconds, user plus system."""
    own, children = (resource.getrusage(who) for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def peak_anon_mb():
    """Peak resident set of this process, plus that of its largest child,
    less the file-backed pages (shared libraries) this process maps now.

    How many library pages a process maps depends on what the page cache
    holds, not on irsmas, and moves the peak resident set by several MB
    between runs of the same code.  Forked pool workers map the same files.
    """
    with open("/proc/self/status") as fh:
        status = dict(line.split(":", 1) for line in fh)
    file_kb = int(status["RssFile"].split()[0]) + int(status["RssShmem"].split()[0])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - file_kb
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (max(child - file_kb, 0) if child else 0)) / 1024.0


def totals(rows):
    trials = sum(r.trials for r in rows)
    return {
        "trials": trials,
        "mean_mac": sum(r.mean_mac * r.trials for r in rows) / trials,
        "ber": sum(r.bit_errors for r in rows) / sum(r.total_bits for r in rows),
    }


def sweep_configs(irsmas, w, seed, trials):
    return [make_config(irsmas, w, sweep_seed(seed, k), trials) for k in range(w.sweeps)]


def timed_run(irsmas, w, seed, trials, seconds, ledger):
    """End-to-end metrics as name -> (samples, unit), the unscaled samples
    behind the scaled ones, and the rows of the workload's distinct sweeps.

    Sweeps cycle through the workload's seeds until ``seconds`` are used;
    each repeat must equal the previous sweep of its seed.  The set-up starts
    are spread over the same time, so that both see the same host load.

    On a shared host other tenants slow every computation, by up to a third
    for minutes at a time, which moves whole runs alike.  So the calibration
    loop runs after every sweep, and 1-worker sweep times are scaled to a
    host on which the loop takes ``CAL_NOMINAL_S``: by that time over the
    median of the loop's times in this run.  The loop runs on one core and
    does not track a sweep spread over several: scaling widened the spread of
    the parallel workload's trials_per_s across seeds from 0.07-0.11 to
    0.14-0.19, so its sweeps stay unscaled.

    Imports slow down on their own, when other tenants' memory use evicts
    the page cache: importing numpy took 0.10 s or 0.17 s, for tens of
    minutes at a time, while the irsmas part of a start stayed near 0.07 s.
    So each set-up start is followed by a reference start, and ``setup_s``
    is the set-up start's time less the reference start's.
    """
    cfgs = sweep_configs(irsmas, w, seed, trials)
    warm_up(irsmas, w, cfgs[0])
    cal = [calibration_loop()]
    sweeps, setup, ref, rss = [], [], [], None  # (seconds, rows), seconds, seconds

    def start():
        setup.append(setup_start(w, cfgs[0], ledger))
        ref.append(reference_start())

    began = time.perf_counter()
    while True:
        i = len(sweeps)
        out = ledger.sweep(f"sweep {i}", w, cfgs[i % w.sweeps], w.workers,
                           reference=sweeps[i - w.sweeps][1] if i >= w.sweeps else None)
        if out is None:
            break
        sweeps.append(out)
        cal.append(calibration_loop())
        if rss is None:
            rss = peak_anon_mb()  # before any set-up start adds a child
        elapsed = time.perf_counter() - began
        while len(setup) < SETUP_STARTS * min(1.0, elapsed / seconds):
            start()
        # stop at the sweep boundary nearest the end of the budget
        if i >= w.sweeps and time.perf_counter() - began + out[0] / 2 > seconds:
            break
    while len(setup) < SETUP_STARTS:
        start()
    starts = [(s, r) for s, r in zip(setup, ref) if s is not None]
    if len(sweeps) < w.sweeps or not starts:
        return None, {}, []
    rows = [row for _, sweep_rows in sweeps[:w.sweeps] for row in sweep_rows]
    t = totals(rows)
    untimed_checks(irsmas, w, cfgs[0], sweeps[0][1], ledger)
    scale = CAL_NOMINAL_S / statistics.median(cal) if w.workers == 1 else 1.0
    wall = [s for s, _ in sweeps]
    rates = [totals(sweep_rows)["trials"] / s for s, sweep_rows in sweeps]
    metrics = {
        "trials_per_s": ([r / scale for r in rates], "1/s"),
        "sweep_s": ([s * scale for s in wall], "s"),
        "setup_s": ([s - r for s, r in starts], "s"),
        "peak_anon_mb": ([rss], "MB"),
        "mean_mac": ([t["mean_mac"]], "MAC"),
        "ber": ([t["ber"]], "ratio"),
    }
    unscaled = {
        "trials_per_s": (rates, "1/s"),
        "sweep_s": (wall, "s"),
        "setup_s": ([s for s, _ in starts], "s"),
        "calibration_loop_s": (cal, "s"),
        "reference_start_s": ([r for _, r in starts], "s"),
    }
    return metrics, unscaled, rows


def traced_run(irsmas, w, seed, trials, ledger, spans_path):
    """Per-layer metrics as name -> (samples, unit), the rows of the
    traced sweeps, and the layers never called.

    Untraced and traced sweeps alternate, so the tracing overhead compares
    sweeps made under the same host load.
    """
    cfgs = sweep_configs(irsmas, w, seed, trials)
    warm_up(irsmas, w, cfgs[0])
    tracer = Tracer()
    rows, overhead, cpu, children, untraced_trials = [], [], 0.0, 0.0, 0
    # Layers run inside worker processes when there are several; only the
    # pools are visible from here then.
    layers = w.workers == 1
    for i in range(TRACE_PAIRS if layers else 1):
        cfg = cfgs[i % w.sweeps]
        cpu0 = cpu_seconds()
        ref = ledger.sweep(f"untraced {i}", w, cfg, w.workers)
        cpu1 = cpu_seconds()
        if ref is None:
            return None, [], []
        with tracer.installed(layers=layers):
            out = ledger.sweep(f"traced {i}", w, cfg, w.workers, reference=ref[1])
        if out is None:
            return None, [], []
        children += cpu_seconds()[1] - cpu1[1]
        cpu += sum(cpu1) - sum(cpu0)
        untraced_trials += totals(ref[1])["trials"]
        overhead.append(out[0] / ref[0] - 1.0)
        rows += out[1]
    tracer.save(spans_path)
    layer, not_called = tracer.layer_metrics(totals(rows)["trials"], len(rows), children)
    metrics = {name: ([value], unit) for name, (value, unit) in layer.items()}
    metrics["harness.cpu_us_per_trial"] = ([cpu * 1e6 / untraced_trials], "us")
    if layers:
        metrics["tracing_overhead_frac"] = (overhead, "ratio")
    else:
        # only the pools are wrapped: there is no tracer cost to measure
        metrics["tracing_overhead_frac"] = ([0.0], "ratio")
        not_called.append("tracing_overhead")
    untimed_checks(irsmas, w, cfgs[0], rows[:len(w.fields["snr_grid_db"])], ledger)
    return metrics, rows, not_called


def quartiles(samples, method="inclusive"):
    """(q1, median, q3).  The inclusive method keeps them within the samples."""
    if len(samples) == 1:
        return samples * 3
    return statistics.quantiles(samples, n=4, method=method)


def summarize(metrics):
    """name -> the median, with the unit, repeat count and quartiles behind it."""
    out = {}
    for name, (samples, unit) in metrics.items():
        q1, median, q3 = quartiles(samples)
        out[name] = {"value": median, "unit": unit, "repeats": len(samples),
                     "q1": q1, "q3": q3}
    return out


def provenance():
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "irsmas")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cores": len(os.sched_getaffinity(0))}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget for the timed repeats")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int,
                   help="override the workload's trial count (smoke tests only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    irsmas = import_irsmas()
    w = WORKLOADS[args.workload]
    trials = args.trials or w.trials
    ledger = Ledger(irsmas)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{w.name}-seed{args.seed}-trace{args.trace}")
    not_called, wall = [], {}
    if args.trace:
        metrics, rows, not_called = traced_run(irsmas, w, args.seed, trials, ledger,
                                               stem + "-spans.npz")
    else:
        metrics, wall, rows = timed_run(irsmas, w, args.seed, trials, args.seconds, ledger)
    if metrics is None:
        print("error: the sweep raised:\n" + "\n".join(ledger.problems), file=sys.stderr)
        return 1

    summary = summarize(metrics)
    wall = summarize(wall)
    record = {
        "workload": w.name, "why": w.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "trials_per_point": trials,
        "sweeps": w.sweeps, "workers": w.workers,
        **provenance(),
        "metrics": summary, "unscaled": wall, "not_called": not_called,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted, "problems": ledger.problems,
        "rows": [r.as_dict() for r in rows],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in ledger.problems:
        print("check failed:", problem, file=sys.stderr)
    for name, m in summary.items():
        print(f"{name} {m['value']!r} {m['unit']}  (n={m['repeats']}, "
              f"q1={m['q1']:.6g}, q3={m['q3']:.6g})")
    for name, m in wall.items():
        print(f"  unscaled {name} {m['value']!r} {m['unit']}")
    if not_called:
        print("not called:", ", ".join(not_called))
    print(f"failed_frac {record['failed_frac']!r} ({ledger.failed}/{ledger.attempted})")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
