#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

The binary (perfbench/src) links libocelot, built from the checkout's src/
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The
last line of stdout is the binary's JSON result; build output goes to
stderr. Exits non-zero, without a result, when the checkout has no Ocelot
sources, the build fails, or the binary fails or runs too long.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("compile", "sweep-hot", "sweep-checked", "fleet")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        print("perfbench: no Ocelot sources at %s (perfbench/ must sit in "
              "the repository root)" % os.path.join(REPO, "src"),
              file=sys.stderr)
        return 2

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(REPO, ".bench_build"))
    exe = build(os.path.join(build_root, "perfbench"))
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_root, "out"),
           "--expected", os.path.join(HERE, "expected",
                                      "compile_digests.txt")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, cwd=REPO)
    except subprocess.TimeoutExpired:
        print("perfbench: binary exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: binary exited with %d" % done.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
