#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload action_mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The perfbench binary is built with CMake into
.bench_build/ (Release). Build output goes to stderr; stdout carries the
run's figures and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. The exit status is non-zero when
the build fails, the run fails or holds too few samples, or an output
check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("perfbench_selftest")]).returncode
        with open(os.path.join(HERE, "workloads.json")) as f:
            workloads = json.load(f)["workloads"]
        if args.workload not in workloads or None in (args.seed, args.seconds,
                                                      args.trace):
            parser.error("--workload (one of %s), --seed, --seconds and "
                         "--trace are required" % ", ".join(workloads))
        binary = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    for key, value in workloads[args.workload]["params"].items():
        cmd += ["--param", "%s=%s" % (key, value)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
