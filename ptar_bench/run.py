#!/usr/bin/env python3
"""Builds ptar_bench from source and runs one workload.

Run from the repository root:

    python3 ptar_bench/run.py --workload rush-ch --seed 3 --seconds 25 --trace 0

The build lands in .bench_build/ (configured once, then rebuilt
incrementally). --trace 1 runs the traced variant, which prints the
per-layer metrics and writes its Chrome trace to
.bench_build/trace-<workload>-<seed>.json. The last line of standard output
is the benchmark's JSON result; build output goes to .bench_build/build.log
and, on failure, to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ptar_bench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "ptar_bench")
BUILD_JOBS = "4"


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          check=False).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "ptar_bench",
                      "-j", BUILD_JOBS])
        for cmd in steps:
            if run_logged(cmd, log) != 0:
                break
        else:
            return
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    fail(f"build failed (full log: {log_path})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--trace_out=" + os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.json"))
    sys.stdout.flush()
    child = subprocess.Popen(cmd)
    # Forward a termination request to the benchmark and wait for it, so no
    # process outlives this one.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
