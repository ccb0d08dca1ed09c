#!/usr/bin/env python3
"""Run one workload of the bgckpt benchmark.

    python3 perfbench/run.py --workload shared-file --seed 1 --seconds 35 \
        --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the simulator
from ../src) under .bench_build/perfbench; later calls only bring that
build up to date. The workload runs in its own process; its output is
passed through, and its last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; any other set is an error. Every failure
exits non-zero without a result line.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = BUILD / "work"
WORKLOADS = ("shared-file", "many-files", "host-ckpt")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def ensure_built(target):
    """Configure (once) and build `target`; exit non-zero on failure."""
    if not (ROOT / "src" / "iolib" / "stack.hpp").exists():
        fail(f"no simulator sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return BUILD / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = ensure_built("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], cwd=BUILD, check=False)
                 .returncode)
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = ensure_built("bgckpt_perfbench")
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"workload exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the workload's last line is not JSON")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected_metrics(args.trace):
        fail("the workload's metrics do not match BENCHMARK.json")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
