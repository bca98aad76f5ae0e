#!/usr/bin/env python3
# Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
"""The benchmark's own test: which per-layer counters repeat exactly.

Runs each workload's traced pass twice with the same seed and checks that
every counter in EXACT reads the same both times. These are the counters
a later change may cite as a count: they depend only on the input, not on
thread timing (mining output is thread-count invariant). The cache and
intersection counters (entropy.intersections, entropy.cache_hit_rate,
entropy.cache_evictions, entropy.memo_hit_rate) drift by about 1% between
runs at 4 threads, because which worker materializes a shared partition
first is a race; the serve.* counters average over a time-dependent
number of passes. Those are printed with their drift, not checked.

Usage (from the root of a checkout):

    python3 perfbench/check_exact.py [--seed N] [workload ...]

Workloads default to all three. Exits 1 if an exact counter differs or a
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

EXACT = [
    "entropy.queries",
    "entropy.queries_per_oracle_call",
    "core.oracle_calls",
    "core.separators",
    "core.mvds",
    "scheme.conflict_vertices",
    "scheme.independent_sets",
    "scheme.scored",
    "decomp.store_rows",
    "decomp.semijoin_dropped",
    "store.bytes_written",
]

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_metrics(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s run was not correct" % workload)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=["mine-tall", "ingest-small", "serve-nursery"])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_metrics(workload, args.seed)
        second = traced_metrics(workload, args.seed)
        for name in sorted(first):
            a, b = first[name], second[name]
            if name in EXACT:
                status = "exact" if a == b else "MISMATCH"
                ok = ok and a == b
            else:
                drift = abs(a - b) / abs(a) if a else float(a != b)
                status = "drift %.2f%%" % (100 * drift)
            print("%-14s %-34s %-14s %r / %r" % (workload, name, status, a, b))
    print("exact counters repeat" if ok else "exact counters differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
