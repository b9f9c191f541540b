#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seed-base 100] [workload ...]

Runs the benchmark command of BENCHMARK.json once per seed on each
workload (all of them by default) and prints, per end-to-end metric, the
median of the runs and the spread: the distance between the first and the
third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A spread at or above a third of the metric's bound is flagged.
Raw results go to .bench_out/spread.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    raw = {}
    flagged = 0
    for w in args.workloads:
        runs = [run_once(bench, w, args.seed_base + i)
                for i in range(args.runs)]
        results = [r for r, _ in runs]
        raw[w] = results
        print(f"{w:18} longest run {max(t for _, t in runs):.1f} s", flush=True)
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- >= bound/3"
            flagged += bool(flag)
            print(f"{w:18} {m['name']:16} median {med:12.6g} {m['unit']:7} "
                  f"spread {spread:6.3f} (bound {m['bound']}){flag}",
                  flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "spread.json"), "w") as f:
        json.dump(raw, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
