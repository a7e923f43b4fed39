#!/usr/bin/env python3
"""Entry point of the commit-engine benchmark.

Builds the `perfbench` binary from the engine sources (../src) with CMake,
then runs one workload and forwards its output. The last line of standard
output is the JSON result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); the first run builds, later runs reuse it.
Workloads: conversation, tree, live-open, crash-recovery (see README.md).
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("conversation", "tree", "live-open", "crash-recovery")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found at " + os.path.join(ROOT, "src"))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", str(max(1, min(4, os.cpu_count() or 1)))])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    binary = build(out_dir)
    # Live log files and the span dump of the traced run stay in the build
    # tree; the binary removes the log files when a step ends.
    work_dir = os.path.join(out_dir, "work", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail("the benchmark binary failed (exit %d)" % done.returncode)


if __name__ == "__main__":
    main()
