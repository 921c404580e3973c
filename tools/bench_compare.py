#!/usr/bin/env python3
"""bench_compare: gate CI on wall-clock regressions in bench JSON output.

The parallel/multiquery harnesses (bench/p1_parallel, bench/s2_multiquery)
write one JSON object per line with the fixed schema

    {"workload": str, "workers": int, "wall_ms": float,
     "virtual_ms": float, "messages": int, "bytes": int}

to BENCH_PARALLEL.json / BENCH_MULTIQUERY.json at the repo root. This tool
compares a freshly produced file against a stored baseline and exits 1 when
any (workload, workers) row's wall_ms regressed by more than the threshold
(default 15%). A missing baseline is not an error — first runs pass and the
produced file becomes the next baseline.

virtual_ms / messages / bytes are *determinism* measures: they must match the
baseline exactly for the same code, so a mismatch is printed as a warning
(code changes legitimately move them; wall-clock is the only gate).

Three further gates run within CURRENT alone (no baseline needed):

  sharing      in a file with any s2_multiquery_* row, cross-query sharing
               must keep the s2_multiquery_shared_q16 row's message traffic
               at or below half the s2_multiquery_q16 row's (the
               sublinearity claim of the result cache + batch envelopes).
               A multiquery file missing either row is a violation.

  speedup      in a file with any p1_parallel row, the rows for workers=1
               and workers=4 must both be present, and when the recording
               machine had >= 4 cores (the rows carry a "cores" field), the
               4-worker wall clock must be at most half the 1-worker wall
               clock — parallel execution has to actually pay. Skipped
               (with a note) on narrower machines, where there is nothing to
               measure.

  memory       any row carrying a bytes_per_document field (the p1 bench's
               p1_web_memory row describes its 10^5-document lazy web) must
               stay at or below the per-document ceiling; the lazy
               arena/interner representation must not regress into
               megabytes-per-web territory.

Each violation exits 1 and prints the offending metric deltas, not a bare
failure.

Usage: bench_compare.py BASELINE CURRENT [--threshold 0.15]
Exit: 0 ok (or no baseline), 1 regression, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load(path: str) -> dict[tuple[str, int], dict]:
    rows: dict[tuple[str, int], dict] = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{line_no}: bad JSON: {e}") from e
            for field in ("workload", "workers", "wall_ms"):
                if field not in row:
                    raise ValueError(
                        f"{path}:{line_no}: bench row is missing metric "
                        f"'{field}' (row: {line})")
            # Validate metric types up front so a malformed row fails with
            # the metric's name, not a TypeError deep in the comparison.
            for field in ("wall_ms", "virtual_ms", "messages", "bytes",
                          "cache_hit_rate", "cores", "bytes_per_document",
                          "peak_rss_bytes", "documents", "materialized"):
                if field in row and (isinstance(row[field], bool)
                                     or not isinstance(row[field],
                                                       (int, float))):
                    raise ValueError(
                        f"{path}:{line_no}: metric '{field}' is "
                        f"{row[field]!r}, expected a number")
            try:
                workers = int(row["workers"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}:{line_no}: metric 'workers' is "
                    f"{row['workers']!r}, expected an integer") from None
            rows[(row["workload"], workers)] = row
    return rows


SHARING_GATE_Q = 16
SHARING_GATE_RATIO = 0.5


def check_sharing(current: dict[tuple[str, int], dict]) -> list[str]:
    """Sublinearity gate: shared q16 traffic must be <= half of unshared.

    Returns a list of human-readable violations (empty when the gate passes
    or the file holds no multiquery rows at all). Each violation names the
    metric and its delta so a failing CI log is actionable on its own.
    """
    pair = (f"s2_multiquery_q{SHARING_GATE_Q}",
            f"s2_multiquery_shared_q{SHARING_GATE_Q}")
    plain, shared = (current.get((name, 0)) for name in pair)
    if plain is None or shared is None:
        if not any(workload.startswith("s2_multiquery_")
                   for workload, _ in current):
            return []
        # A multiquery file without the gated pair would pass vacuously.
        missing = [name for name, row in zip(pair, (plain, shared))
                   if row is None]
        return [f"multiquery rows present but row(s) {', '.join(missing)} "
                "(workers=0) missing — cannot evaluate the sharing gate"]
    violations: list[str] = []
    for field in ("messages", "bytes"):
        missing = [row["workload"] for row in (plain, shared)
                   if field not in row]
        if missing:
            # A silently absent metric would pass the gate vacuously; name
            # the metric and the row so the failing log is actionable.
            violations.append(
                f"row(s) {', '.join(missing)} missing metric '{field}' — "
                "cannot evaluate the sharing gate")
            continue
        base, cur = plain[field], shared[field]
        limit = base * SHARING_GATE_RATIO
        ratio = cur / base if base else float("inf")
        verdict = "VIOLATION" if field == "messages" and cur > limit else "ok"
        print(f"bench_compare: sharing q{SHARING_GATE_Q}: {field} "
              f"unshared {base} -> shared {cur} "
              f"({ratio:.2f}x, gate {SHARING_GATE_RATIO:.2f}x on messages) "
              f"{verdict}")
        if verdict == "VIOLATION":
            violations.append(
                f"shared {field} {cur} exceeds {limit:.0f} "
                f"({SHARING_GATE_RATIO:.2f} x unshared {base}; "
                f"delta +{cur - limit:.0f})")
    if "cache_hit_rate" in shared:
        print(f"bench_compare: sharing q{SHARING_GATE_Q}: cache_hit_rate "
              f"{shared['cache_hit_rate']:.3f}")
    return violations


SPEEDUP_GATE_WORKERS = (1, 4)
SPEEDUP_GATE_RATIO = 0.5  # wall at 4 workers <= 0.5 x wall at 1 worker
SPEEDUP_GATE_MIN_CORES = 4


def check_speedup(current: dict[tuple[str, int], dict]) -> list[str]:
    """Speedup-curve gate: 4 workers must halve the 1-worker wall clock.

    Evaluated within CURRENT alone whenever it holds p1_parallel rows,
    which must include workers=1 and workers=4; only enforced when the rows
    were recorded on a machine with at least SPEEDUP_GATE_MIN_CORES hardware
    threads (the rows say so via their "cores" field — a 1-core CI runner
    cannot demonstrate a speedup and is skipped with a note, not a vacuous
    pass).
    """
    lo, hi = SPEEDUP_GATE_WORKERS
    base = current.get(("p1_parallel", lo))
    wide = current.get(("p1_parallel", hi))
    if base is None or wide is None:
        if not any(workload == "p1_parallel" for workload, _ in current):
            return []
        # Parallel rows without the gated pair would pass vacuously.
        missing = [f"workers={workers}" for workers, row in
                   ((lo, base), (hi, wide)) if row is None]
        return [f"p1_parallel rows present but row(s) {', '.join(missing)} "
                "missing — cannot evaluate the speedup gate"]
    violations: list[str] = []
    missing = [f"workers={row_workers}" for row_workers, row in
               ((lo, base), (hi, wide)) if "cores" not in row]
    if missing:
        # Without the core count the gate cannot tell "skipped on a narrow
        # machine" from "should have been enforced" — make that loud.
        violations.append(
            f"p1_parallel row(s) {', '.join(missing)} missing metric "
            "'cores' — cannot evaluate the speedup gate")
        return violations
    cores = min(base["cores"], wide["cores"])
    if cores < SPEEDUP_GATE_MIN_CORES:
        print(f"bench_compare: speedup gate skipped: rows recorded on "
              f"{cores} core(s), need >= {SPEEDUP_GATE_MIN_CORES}")
        return violations
    wall_lo, wall_hi = base["wall_ms"], wide["wall_ms"]
    limit = wall_lo * SPEEDUP_GATE_RATIO
    speedup = wall_lo / wall_hi if wall_hi else float("inf")
    verdict = "VIOLATION" if wall_hi > limit else "ok"
    print(f"bench_compare: speedup: wall {wall_lo:.3f} ms at "
          f"workers={lo} -> {wall_hi:.3f} ms at workers={hi} "
          f"({speedup:.2f}x, gate {1 / SPEEDUP_GATE_RATIO:.1f}x on "
          f"{cores} cores) {verdict}")
    if verdict == "VIOLATION":
        violations.append(
            f"wall_ms {wall_hi:.3f} at workers={hi} exceeds "
            f"{limit:.3f} ({SPEEDUP_GATE_RATIO:.2f} x workers={lo} wall "
            f"{wall_lo:.3f}; delta +{wall_hi - limit:.3f} ms)")
    return violations


MEMORY_GATE_BYTES_PER_DOC = 1024


def check_memory(current: dict[tuple[str, int], dict]) -> list[str]:
    """Memory gate: lazy-web rows must stay under the per-document ceiling.

    Applies to every row that carries a bytes_per_document field (the p1
    bench emits one p1_web_memory row for its 10^5-document web). A
    p1_web_memory row *without* the field is itself a violation — the gate
    must not pass vacuously because the bench stopped recording the metric.
    """
    violations: list[str] = []
    for (workload, workers), row in sorted(current.items()):
        name = f"{workload} (workers={workers})"
        if "bytes_per_document" not in row:
            if workload == "p1_web_memory":
                violations.append(
                    f"row {name} missing metric 'bytes_per_document' — "
                    "cannot evaluate the memory gate")
            continue
        bpd = row["bytes_per_document"]
        verdict = ("VIOLATION" if bpd > MEMORY_GATE_BYTES_PER_DOC else "ok")
        docs = row.get("documents", "?")
        print(f"bench_compare: memory: {name}: {bpd} bytes/document "
              f"({docs} documents, gate {MEMORY_GATE_BYTES_PER_DOC}) "
              f"{verdict}")
        if verdict == "VIOLATION":
            violations.append(
                f"{name}: bytes_per_document {bpd} exceeds "
                f"{MEMORY_GATE_BYTES_PER_DOC} "
                f"(delta +{bpd - MEMORY_GATE_BYTES_PER_DOC})")
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="stored baseline JSON-lines file")
    parser.add_argument("current", help="freshly produced JSON-lines file")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional wall_ms growth (default .15)")
    args = parser.parse_args()

    try:
        current = load(args.current)
    except (OSError, ValueError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    gate_violations: list[tuple[str, str]] = []
    for gate, check in (("sharing", check_sharing),
                        ("speedup", check_speedup),
                        ("memory", check_memory)):
        for violation in check(current):
            print(f"bench_compare: {gate} gate: {violation}",
                  file=sys.stderr)
            gate_violations.append((gate, violation))

    if not os.path.exists(args.baseline):
        print(f"bench_compare: no baseline at {args.baseline}; passing"
              f"{' (current-run gates still enforced)' if gate_violations else ''}")
        return 1 if gate_violations else 0
    try:
        baseline = load(args.baseline)
    except (OSError, ValueError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    regressions = []
    for key, base_row in sorted(baseline.items()):
        cur_row = current.get(key)
        name = f"{key[0]} (workers={key[1]})"
        if cur_row is None:
            print(f"bench_compare: note: {name} missing from current run")
            continue
        base_wall, cur_wall = base_row["wall_ms"], cur_row["wall_ms"]
        limit = base_wall * (1.0 + args.threshold)
        verdict = "REGRESSION" if cur_wall > limit else "ok"
        print(f"bench_compare: {name}: wall {base_wall:.3f} -> "
              f"{cur_wall:.3f} ms (limit {limit:.3f}) {verdict}")
        if cur_wall > limit:
            regressions.append(name)
        for field in ("virtual_ms", "messages", "bytes"):
            if field in base_row and field in cur_row \
                    and base_row[field] != cur_row[field]:
                print(f"bench_compare: warning: {name}: {field} changed "
                      f"{base_row[field]} -> {cur_row[field]}")
    for key in sorted(set(current) - set(baseline)):
        print(f"bench_compare: note: new row {key[0]} (workers={key[1]})")

    if regressions:
        print(f"bench_compare: {len(regressions)} wall-clock regression(s) "
              f"beyond {args.threshold:.0%}", file=sys.stderr)
        return 1
    if gate_violations:
        gates = ", ".join(sorted({gate for gate, _ in gate_violations}))
        print(f"bench_compare: {len(gate_violations)} gate violation(s) "
              f"({gates})", file=sys.stderr)
        return 1
    print("bench_compare: within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
