#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # negative controls of the checks

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory. Build output goes to stderr; the harness prints its
diagnostics to stderr and the result JSON as the last line of stdout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(target):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, target)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: program sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    selftest = "--selftest" in sys.argv[1:]
    try:
        exe = build("perfbench_selftest" if selftest else "perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    args = [] if selftest else sys.argv[1:]
    try:
        proc = subprocess.run([exe] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
