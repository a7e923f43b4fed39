#!/usr/bin/env python3
"""Self-tests of the benchmark itself (the engine has its own tests):

1. BENCHMARK.json lists exactly the binary's metric catalogue.
2. Two runs of each simulated workload with one seed print identical count
   and simulated-time metrics, end-to-end and per-layer.
3. The seed is the whole input: the same seed gives the same plan in two
   processes and another seed changes it. For live-open the plan is the
   seeded keys and value sizes and the Poisson arrival schedule of every
   ladder step.

Usage: python3 perfbench/selftest.py   (builds like run.py; about a minute)
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SIM_WORKLOADS = ("conversation", "tree", "crash-recovery")
# End-to-end metrics that are exact on the simulated workloads.
EXACT_E2E = {"committed_frac", "commit_p50_us", "commit_p99_us",
             "commits_per_clock_s", "lock_hold_p50_us", "lock_hold_p99_us"}
# Per-layer metrics in simulated time (the other exact ones are counts).
EXACT_LAYER_TIMES = {"wal.force_p50_us", "wal.force_p99_us",
                     "lock.wait_p99_us", "recovery.outage_us"}


def result(binary, work_dir, *args):
    out = subprocess.run([binary, "--work-dir", work_dir] + list(args),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.strip().splitlines()


def metrics(binary, work_dir, workload, seed, seconds, trace):
    lines = result(binary, work_dir, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace))
    doc = json.loads(lines[-1])
    assert doc["correct"], "%s seed %d trace %d is not correct" % (workload, seed, trace)
    return doc["metrics"]


def main():
    out_dir = run.build_dir()
    binary = run.build(out_dir)
    work_dir = os.path.join(out_dir, "work", "selftest")
    os.makedirs(work_dir, exist_ok=True)
    failures = []

    # 1. Catalogue.
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = {(kind, m["name"], m["unit"]) for kind in ("end_to_end", "per_layer")
              for m in bench[kind]}
    catalogue = {tuple(line.split()) for line in result(binary, work_dir, "--list-metrics")}
    if listed != catalogue:
        failures.append("BENCHMARK.json and the binary disagree: %s" %
                        sorted(listed ^ catalogue))

    # 2. Determinism of the simulated workloads.
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in SIM_WORKLOADS:
        for trace, seconds, exact in (
                (0, 1, EXACT_E2E),
                (1, 3, {n for n, u in units.items() if u in ("count", "bytes")}
                 | EXACT_LAYER_TIMES)):
            a = metrics(binary, work_dir, workload, 7, seconds, trace)
            b = metrics(binary, work_dir, workload, 7, seconds, trace)
            for name in sorted(exact):
                if a[name]["value"] != b[name]["value"]:
                    failures.append("%s %s differs between runs: %r vs %r" % (
                        workload, name, a[name]["value"], b[name]["value"]))

    # 3. Plans are a pure function of the seed.
    for workload in SIM_WORKLOADS + ("live-open",):
        def digest(seed):
            return result(binary, work_dir, "--workload", workload, "--seed",
                          str(seed), "--seconds", "20", "--plan-only")[-1]
        first, again, other = digest(7), digest(7), digest(8)
        if first != again:
            failures.append("%s: one seed gave two plans" % workload)
        if first == other:
            failures.append("%s: seeds 7 and 8 gave the same plan" % workload)

    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
