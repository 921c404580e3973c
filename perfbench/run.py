#!/usr/bin/env python3
"""WEBDIS benchmark: builds the engine and its harness from source, then
runs one workload.

    python3 perfbench/run.py --workload wide_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and trace files to .bench_out, both inside the checkout. The
last line of standard output is the harness's JSON result; build output goes
to standard error. See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide_cold", "shared_durable", "lossy_overload")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # never used while tuning the workloads
BINARY = "webdis_perfbench"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        make = ["cmake", "--build", out, "--target", BINARY, "-j", jobs]
        if subprocess.run(make, stdout=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(out, BINARY)
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print("error: harness exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("error: harness printed no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
