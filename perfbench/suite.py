"""Run every workload over several seeds and summarize each metric the way
the acceptance rule reads it: median, quartiles, and spread (the distance
between the quartiles as a share of the median) against the metric's bound.

    python3 perfbench/suite.py                 # seed 1 on every workload
    python3 perfbench/suite.py --runs 10 --out perfbench/baseline.json

Each run is a separate ``run.py`` process with its own seed, counting from 1.
After the timed runs, one traced run per workload (seed 1) records the
per-layer metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from run import provenance, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    began = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - began
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"], result["wall_s"] = seed, wall
    with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        result["unscaled"] = {k: m["value"] for k, m in json.load(fh)["unscaled"].items()}
    return result


def spread(values):
    q1, median, q3 = quartiles(values, method="exclusive")
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=1, help="seeds per workload")
    p.add_argument("--out", help="write the summary as JSON to this path")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], **provenance(), "workloads": {}}
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in range(1, 1 + args.runs):
            runs.append(run_once(name, seed, 0))
            r = runs[-1]
            print(f"{name} seed {seed}: correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} wall={r['wall_s']:.1f}s " + " ".join(
                      f"{k}={m['value']:.6g}" for k, m in r["metrics"].items()), flush=True)
        entry = {"runs": runs, "metrics": {}}
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in runs])
            s["unit"], s["bound"] = runs[0]["metrics"][metric]["unit"], bound
            entry["metrics"][metric] = s
            print(f"  {metric:14s} median {s['median']:.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bound})", flush=True)
        traced = run_once(name, 1, 1)
        entry["traced"] = traced
        print(f"  traced: correct={traced['correct']} " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in traced["metrics"].items()), flush=True)
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
