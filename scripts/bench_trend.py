#!/usr/bin/env python3
# Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
"""Perf-trajectory gate over the committed BENCH_*.json snapshots.

Compares freshly generated bench output against the committed baselines
and fails (exit 1) on a regression beyond the threshold. This is the
repo-level guard that keeps the perf story monotone across PRs: the
committed snapshots are produced with the exact flags of the CI runs, so
the CI output is directly comparable.

Usage:
  bench_trend.py [--threshold 0.25] [--min-seconds 0.05] \
      BASELINE FRESH [BASELINE FRESH ...]
  bench_trend.py --check-baselines BENCH_fig13.json BENCH_serve.json ...

Figure-bench rows (fig13/fig14/fig15) are matched on their identity
columns (fig, dataset, rows/cols, eps, threads, walk); metric columns
(seconds, oracle_calls, ...) never participate in matching. A matched
row fails when its wall time grew by more than the threshold. A row is
skipped, not compared, when:

  * the baseline row timed out (its `seconds` is the budget clamp, not a
    measurement);
  * the baseline is below --min-seconds (noise floor: a 20 ms row can
    double on scheduler jitter alone);
  * the row carries no `seconds` at all (fig15's quality rows — matched
    for presence, never timed).

A fresh row that times out where its baseline did not is always a
failure, whatever the seconds say. Rows present on only one side are
reported but do not fail the gate (bench configs legitimately drift;
snapshot-schema drift is caught by the CI key-set check).

A file whose line carries a `metrics` object is one perfbench result
(the last stdout line of perfbench/run.py, such as BENCH_serve.json). The
fresh line fails when `correct` is not true, `failed` is not 0, or an
end-to-end metric of BENCHMARK.json is worse than the baseline's by more
than the threshold, in that metric's `better` direction; seconds-valued
metrics under --min-seconds are skipped. A missing metric is an error,
so the gate cannot quietly compare nothing.

Timing comparisons assume both sides ran on the same class of machine —
true for the committed-snapshot flow (snapshots are refreshed from the
same tree that runs the smoke). Widen --threshold when comparing across
machines.
"""

import argparse
import json
import os
import sys

# Columns that identify a row across runs. Everything else is a metric.
ID_KEYS = ("fig", "dataset", "rows", "cols", "eps", "threads", "walk")

MANIFEST = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_rows(path):
    rows = []
    with open(path) as f:
        for num, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{num}: not JSON: {e}")
    if not rows:
        raise SystemExit(f"{path}: empty snapshot")
    return rows


def identity(row):
    return tuple((k, row[k]) for k in ID_KEYS if k in row)


def index_rows(path, rows):
    by_id = {}
    for row in rows:
        key = identity(row)
        if key in by_id:
            raise SystemExit(f"{path}: duplicate row identity {dict(key)}")
        by_id[key] = row
    return by_id


def is_perfbench(rows):
    return any("metrics" in row for row in rows)


def end_to_end_metrics():
    with open(MANIFEST) as f:
        return json.load(f)["end_to_end"]


def perfbench_line(path, rows):
    """The one perfbench result in `path`, with every end-to-end metric."""
    if len(rows) != 1:
        raise SystemExit(f"{path}: a perfbench result is one line, "
                         f"found {len(rows)}")
    line = rows[0]
    for metric in end_to_end_metrics():
        value = line.get("metrics", {}).get(metric["name"], {}).get("value")
        if not isinstance(value, (int, float)) or value <= 0:
            raise SystemExit(f"{path}: end-to-end metric {metric['name']} "
                             f"missing or not positive ({value!r})")
    return line


def run_faults(line):
    faults = []
    if line.get("correct") is not True:
        faults.append("correct is not true")
    if line.get("failed") != 0:
        faults.append(f"failed is {line.get('failed')!r}, not 0")
    return faults


def check_baselines(paths):
    for path in paths:
        rows = load_rows(path)
        if is_perfbench(rows):
            faults = run_faults(perfbench_line(path, rows))
            if faults:
                raise SystemExit(f"{path}: " + "; ".join(faults))
        else:
            index_rows(path, rows)  # identity columns present and unique
        print(f"  {path}: {len(rows)} row(s) ok")
    return 0


def compare_perfbench(base_path, base_rows, fresh_path, fresh_rows,
                      threshold, min_seconds):
    base = perfbench_line(base_path, base_rows)["metrics"]
    fresh_line = perfbench_line(fresh_path, fresh_rows)
    failures = run_faults(fresh_line)
    compared = skipped = 0
    for metric in end_to_end_metrics():
        name, better = metric["name"], metric["better"]
        b, f = base[name]["value"], fresh_line["metrics"][name]["value"]
        if metric["unit"] == "s" and b < min_seconds:
            skipped += 1
            continue
        compared += 1
        worse = (f - b) / b if better == "lower" else (b - f) / b
        if worse > threshold:
            failures.append(f"REGRESSION {name}: {b:.6g} -> {f:.6g} "
                            f"({worse:.0%} worse; {better} is better)")

    print(f"  {base_path} vs {fresh_path}: {compared} compared, "
          f"{skipped} skipped (noise floor), {len(failures)} failure(s)")
    for why in failures:
        print(f"  {why}")
    return failures


def compare_pair(base_path, fresh_path, threshold, min_seconds):
    base_rows, fresh_rows = load_rows(base_path), load_rows(fresh_path)
    if is_perfbench(base_rows) or is_perfbench(fresh_rows):
        return compare_perfbench(base_path, base_rows, fresh_path,
                                 fresh_rows, threshold, min_seconds)
    base = index_rows(base_path, base_rows)
    fresh = index_rows(fresh_path, fresh_rows)

    compared = skipped = untimed = 0
    failures = []
    for key, b in base.items():
        f = fresh.get(key)
        if f is None:
            print(f"  [only-baseline] {dict(key)}")
            continue
        if "seconds" not in b or "seconds" not in f:
            untimed += 1
            continue
        if f.get("timed_out") and not b.get("timed_out"):
            failures.append((key, b, f, "newly timed out"))
            continue
        if b.get("timed_out") or b["seconds"] < min_seconds:
            skipped += 1
            continue
        compared += 1
        limit = b["seconds"] * (1.0 + threshold)
        if f["seconds"] > limit:
            pct = (f["seconds"] / b["seconds"] - 1.0) * 100.0
            failures.append((key, b, f, f"+{pct:.0f}%"))
    for key in fresh:
        if key not in base:
            print(f"  [only-fresh] {dict(key)}")

    print(f"  {base_path} vs {fresh_path}: {compared} compared, "
          f"{skipped} skipped (timed-out/noise-floor), {untimed} untimed, "
          f"{len(failures)} regression(s)")
    for key, b, f, why in failures:
        print(f"  REGRESSION {dict(key)}: "
              f"{b['seconds']:.3f}s -> {f['seconds']:.3f}s ({why})")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative regression (0.25 = 25%%)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="baseline rows below this are noise, skipped")
    parser.add_argument("--check-baselines", action="store_true",
                        help="only validate that the given snapshots parse "
                             "as non-empty JSONL with unique row identities "
                             "(perfbench lines: complete, correct, 0 failed)")
    parser.add_argument("files", nargs="+",
                        help="snapshot paths (--check-baselines), or "
                             "BASELINE FRESH pairs")
    args = parser.parse_args()

    if args.check_baselines:
        return check_baselines(args.files)

    if len(args.files) % 2 != 0:
        parser.error("comparison mode takes BASELINE FRESH pairs")
    failures = []
    for i in range(0, len(args.files), 2):
        failures += compare_pair(args.files[i], args.files[i + 1],
                                 args.threshold, args.min_seconds)
    if failures:
        print(f"bench_trend: {len(failures)} regression(s) beyond "
              f"{args.threshold:.0%} or failed run(s)")
        return 1
    print("bench_trend: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
