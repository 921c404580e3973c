#!/usr/bin/env python3
"""Unit tests for bench_compare: every gate must fail on a deliberate break.

Each gate is fed rows that pass and rows that break exactly one rule, and
main() is run end to end on JSON-lines files in a temp dir. A gate whose
rows are missing must fail too: a gate that passes vacuously is decoration.
The committed BENCH_*.json baselines must pass their own current-run gates.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bench_compare  # noqa: E402

ROOT = os.path.dirname(HERE)


def row(workload, workers=0, wall_ms=10.0, **metrics):
    return {"workload": workload, "workers": workers, "wall_ms": wall_ms,
            **metrics}


def keyed(*rows):
    return {(r["workload"], r["workers"]): r for r in rows}


def quiet(check, current):
    with contextlib.redirect_stdout(io.StringIO()):
        return check(current)


MULTIQUERY = [row("s2_multiquery_q1", messages=40, bytes=7000),
              row("s2_multiquery_q16", messages=698, bytes=120000),
              row("s2_multiquery_shared_q16", messages=222, bytes=115000)]


def parallel(cores, wall_1=250.0, wall_4=100.0):
    return [row("p1_parallel", 1, wall_1, cores=cores),
            row("p1_parallel", 4, wall_4, cores=cores)]


class SharingGateTest(unittest.TestCase):
    def test_sublinear_pair_passes(self):
        self.assertEqual(
            quiet(bench_compare.check_sharing, keyed(*MULTIQUERY)), [])

    def test_shared_traffic_above_half_fails(self):
        rows = MULTIQUERY[:2] + [row("s2_multiquery_shared_q16",
                                     messages=400, bytes=115000)]
        violations = quiet(bench_compare.check_sharing, keyed(*rows))
        self.assertEqual(len(violations), 1)
        self.assertIn("messages 400 exceeds 349", violations[0])

    def test_missing_shared_row_fails(self):
        violations = quiet(bench_compare.check_sharing,
                           keyed(*MULTIQUERY[:2]))
        self.assertEqual(len(violations), 1)
        self.assertIn("s2_multiquery_shared_q16", violations[0])

    def test_missing_plain_row_fails(self):
        violations = quiet(bench_compare.check_sharing,
                           keyed(MULTIQUERY[0], MULTIQUERY[2]))
        self.assertEqual(len(violations), 1)
        self.assertIn("s2_multiquery_q16", violations[0])

    def test_missing_metric_fails(self):
        rows = MULTIQUERY[:2] + [row("s2_multiquery_shared_q16", bytes=1)]
        violations = quiet(bench_compare.check_sharing, keyed(*rows))
        self.assertEqual(len(violations), 1)
        self.assertIn("missing metric 'messages'", violations[0])

    def test_file_without_multiquery_rows_is_not_gated(self):
        self.assertEqual(quiet(bench_compare.check_sharing,
                               keyed(row("r3_durability_volatile"))), [])


class SpeedupGateTest(unittest.TestCase):
    def test_halved_wall_on_four_cores_passes(self):
        self.assertEqual(
            quiet(bench_compare.check_speedup, keyed(*parallel(4))), [])

    def test_too_little_speedup_on_four_cores_fails(self):
        violations = quiet(bench_compare.check_speedup,
                           keyed(*parallel(4, wall_4=200.0)))
        self.assertEqual(len(violations), 1)
        self.assertIn("workers=4 exceeds", violations[0])

    def test_narrow_machine_is_skipped(self):
        self.assertEqual(quiet(bench_compare.check_speedup,
                               keyed(*parallel(1, wall_4=300.0))), [])

    def test_missing_cores_fails(self):
        rows = [row("p1_parallel", 1, 250.0), row("p1_parallel", 4, 100.0)]
        violations = quiet(bench_compare.check_speedup, keyed(*rows))
        self.assertEqual(len(violations), 1)
        self.assertIn("missing metric 'cores'", violations[0])

    def test_missing_worker_row_fails(self):
        for kept in parallel(4):
            rows = [row("p1_parallel", 2, 150.0, cores=4), kept]
            violations = quiet(bench_compare.check_speedup, keyed(*rows))
            self.assertEqual(len(violations), 1)
            missing = 5 - kept["workers"]  # the other of 1 and 4
            self.assertIn(f"workers={missing}", violations[0])

    def test_file_without_parallel_rows_is_not_gated(self):
        self.assertEqual(quiet(bench_compare.check_speedup,
                               keyed(*MULTIQUERY)), [])


class MemoryGateTest(unittest.TestCase):
    def test_ceiling(self):
        ok = row("p1_web_memory", bytes_per_document=273)
        over = row("p1_web_memory", bytes_per_document=2048)
        self.assertEqual(quiet(bench_compare.check_memory, keyed(ok)), [])
        self.assertEqual(
            len(quiet(bench_compare.check_memory, keyed(over))), 1)

    def test_missing_metric_fails(self):
        violations = quiet(bench_compare.check_memory,
                           keyed(row("p1_web_memory")))
        self.assertEqual(len(violations), 1)
        self.assertIn("bytes_per_document", violations[0])


class MainTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="bench_compare_test_")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def write(self, name, rows):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")
        return path

    def main(self, *args):
        saved = sys.argv
        sys.argv = ["bench_compare.py", *args]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return bench_compare.main()
        finally:
            sys.argv = saved

    def test_exit_codes(self):
        base = self.write("base.json", MULTIQUERY)
        same = self.write("same.json", MULTIQUERY)
        slower = self.write("slow.json", [dict(r, wall_ms=r["wall_ms"] * 1.2)
                                          for r in MULTIQUERY])
        vacuous = self.write("vacuous.json", MULTIQUERY[:2])
        bad = os.path.join(self.dir, "bad.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("{not json\n")
        missing = os.path.join(self.dir, "absent.json")
        self.assertEqual(self.main(base, same), 0)
        self.assertEqual(self.main(base, slower), 1)
        self.assertEqual(self.main(base, slower, "--threshold", "0.25"), 0)
        self.assertEqual(self.main(missing, same), 0)
        self.assertEqual(self.main(missing, vacuous), 1)
        self.assertEqual(self.main(base, vacuous), 1)
        self.assertEqual(self.main(base, bad), 2)

    def test_committed_baselines_pass_their_gates(self):
        for name in ("BENCH_MULTIQUERY.json", "BENCH_PARALLEL.json",
                     "BENCH_DURABILITY.json", "BENCH_CHURN.json"):
            current = bench_compare.load(os.path.join(ROOT, name))
            for check in (bench_compare.check_sharing,
                          bench_compare.check_speedup,
                          bench_compare.check_memory):
                self.assertEqual(quiet(check, current), [], name)


if __name__ == "__main__":
    unittest.main()
