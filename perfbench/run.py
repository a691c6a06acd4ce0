#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload catalog_build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test      # helper tests + smoke of every workload

The library and the benchmark are built from source with CMake into
.bench_build/perfbench (Release). Build output goes to stderr, so the last
line of stdout is the benchmark's result object. The exit code is the
benchmark's: 0 when every correctness check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build():
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    for cmd in (configure, make):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build, then run the helper tests and smoke runs")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    if args.self_test:
        cmd = [os.path.join(BUILD_DIR, "perfbench_test"), "--scratch", BUILD_DIR]
    else:
        cmd = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", BUILD_DIR]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
