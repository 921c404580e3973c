#!/usr/bin/env python3
"""Fixed-work guard for the WEBDIS benchmark.

    python3 perfbench/test_fixed_work.py

For each workload, at reduced size (--seconds 1: 3, 5 or 7 rounds): two
runs with the default seed must print the same digest (every count, virtual
time and answer of the run), a run with the held-out seed must print a
different one, every run must check correct, and a traced run must reproduce
the engine run's digest (the harness fails the run otherwise). Exits 1 on any
failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: seeds and workload names)


def bench(workload, seed, trace=0):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(command),
                                                  proc.returncode))
    digest = re.search(r"digest=([0-9a-f]{16})", proc.stdout)
    result = json.loads(proc.stdout.splitlines()[-1])
    return (digest.group(1) if digest else None), result


def main():
    failures = []
    for workload in run.WORKLOADS:
        first, r1 = bench(workload, run.DEFAULT_SEED)
        second, r2 = bench(workload, run.DEFAULT_SEED)
        other, r3 = bench(workload, run.HELD_OUT_SEED)
        _, traced = bench(workload, run.DEFAULT_SEED, trace=1)
        checks = {
            "digest printed": first is not None,
            "same seed, same digest": first == second,
            "other seed, other digest": other != first,
            "answers correct": all(r["correct"] for r in (r1, r2, r3)),
            "traced run reproduces the digest": traced["correct"],
        }
        for name, ok in checks.items():
            print("%-15s %-34s %s" % (workload, name, "ok" if ok else "FAIL"))
            if not ok:
                failures.append((workload, name))
    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
