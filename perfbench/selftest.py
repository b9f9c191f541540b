#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then runs every workload named in
BENCHMARK.json with --tiny, untraced and traced, and checks that:
  * every end_to_end metric of BENCHMARK.json is printed with its unit and
    a value above 0 (--trace 0), and every per_layer metric with its unit
    (--trace 1);
  * every output verified and every metric was set (correct, no failed
    operation). A per-layer metric a workload does not exercise must be
    marked not applicable by the workload; an unset one makes the run
    incorrect.
Exits 0 when all checks pass, 1 otherwise.
"""
import json
import os
import subprocess
import sys

import run


def check(workload, trace, spec):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"verification: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec}
    for name, unit in want.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name].get("unit") != unit:
            problems.append(f"{name}: unit {got[name].get('unit')} != {unit}")
        elif trace == 0 and not got[name].get("value", 0) > 0:
            problems.append(f"{name}: value {got[name].get('value')} <= 0")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    try:
        run.build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"selftest: build failed: {e}", file=sys.stderr)
        return 1
    failures = 0
    for w in bench["workloads"]:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems = check(w["name"], trace, spec)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {w['name']} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    print("selftest:", "passed" if failures == 0 else f"{failures} failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
