#!/usr/bin/env python3
"""Reptile repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload drill_cross --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
library, the production reptile_serve binary and the benchmark driver
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build);
later runs only rebuild what changed. The driver then launches reptile_serve,
drives it over loopback, checks every response against an oracle and prints
the metrics; its last stdout line is the JSON result. Build output goes to
stderr. --selftest builds and runs the tests of the driver's helpers.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("drill_cross", "scan_panel")
DRIVER_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no reptile sources next to %s; run from a full checkout" % HERE)
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    # Write the build outputs back now, not during the measurement.
    os.sync()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    if args.selftest:
        build(out_dir, ["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out_dir, "perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build(out_dir, ["reptile_serve", "perfbench_driver"])
    cmd = [
        os.path.join(out_dir, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(out_dir, "reptile", "reptile_serve"),
        "--trace-out", os.path.join(out_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed)),
    ]
    sys.stdout.flush()
    driver = subprocess.Popen(cmd)
    try:
        code = driver.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The driver's children (reptile_serve, oracle workers) die with it.
        driver.kill()
        driver.wait()
        sys.exit("perfbench: run exceeded %d s" % DRIVER_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
