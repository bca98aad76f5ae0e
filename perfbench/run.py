#!/usr/bin/env python3
# Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
"""Builds perfbench from this checkout's sources and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <mine-tall|ingest-small|serve-nursery> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; build output goes to stderr. The last line of stdout is the
benchmark's JSON result. Exits non-zero if the build fails, the workload
fails a check, or the run exceeds its time limit.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build(build_dir):
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "--parallel", "4"],
                   cwd=ROOT, stdout=sys.stderr, check=True)


def main():
    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--work-dir", work_dir]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
