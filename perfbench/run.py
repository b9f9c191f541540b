#!/usr/bin/env python3
"""Build and run the ORWL end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
executable (perfbench/CMakeLists.txt, Release) into .bench_build; later calls
only let the build check that it is up to date. Build output goes to
stderr, so the last line of stdout is the executable's JSON result. The
exit code is the executable's: 0 when every output verified, non-zero otherwise.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "orwl_e2e_bench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the benchmark target; raise on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("ORWL sources not found next to perfbench/ "
                           "(expected src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "orwl_e2e_bench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return BINARY


def main(argv):
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + argv, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
