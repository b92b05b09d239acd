#!/usr/bin/env python3
"""Build fairmatch's benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_mem --seed 1 --seconds 20 --trace 0

The first call configures and compiles perfbench/ (library included) into
$CARGO_TARGET_DIR or .bench_build/; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the run's JSON
result. The exit code is the benchmark's: 0 when every output checked
out, non-zero otherwise (including a failed build).
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(out_dir):
    """Configure (once) and build; returns the binary path or None."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    binary = os.path.join(cmake_dir, "fairmatch_perfbench")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="poison one reference digest (self-test)")
    args = parser.parse_args()

    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(out_dir, "work", str(os.getpid()))
    traces = os.path.join(out_dir, "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", work]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
