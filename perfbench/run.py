#!/usr/bin/env python3
"""Builds darm_perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 10 --trace 0

The first run configures and builds the DARM libraries and darm_perfbench in
Release under .bench_build at the checkout root; later runs only check
that the build is current. Build
output goes to stderr. darm_perfbench's stdout passes through unchanged,
so its last line is the JSON result. The exit status is darm_perfbench's: 0 when
every output was correct.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run takes its --seconds plus setup, and at most twice that with
# --trace 1; this only stops a hung one.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no DARM sources in %s" % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "darm_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "darm_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    # Relative to the checkout root, so Unix socket paths stay short.
    work_dir = os.path.relpath(os.path.join(build_dir, "work"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_S))


if __name__ == "__main__":
    sys.exit(main())
