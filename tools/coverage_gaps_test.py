#!/usr/bin/env python3
"""Unit tests for coverage_gaps: the .gcov parser and the range report.

The parser reads a canned gcov 12 file (testdata/coverage_sample.cc.gcov)
holding every line form the report depends on: non-executable lines, plain
and partial counts, "#####" and "=====" never-executed lines, and
per-instantiation blocks of a template.
"""

import io
import os
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import coverage_gaps  # noqa: E402

SAMPLE = os.path.join(HERE, "testdata", "coverage_sample.cc.gcov")


def sample():
    with open(SAMPLE) as f:
        return coverage_gaps.parse_gcov(f.read())


class ParseGcovTest(unittest.TestCase):
    def test_reads_the_source_path(self):
        source, _ = sample()
        self.assertEqual(source, "/work/webdis/src/server/sample.cc")

    def test_keeps_executable_lines_only(self):
        _, counts = sample()
        self.assertEqual(counts, {3: 3, 4: 3, 5: 2, 7: 1, 10: 0, 11: 0,
                                  13: 0, 16: 4, 17: 4, 18: 0, 19: 4,
                                  22: 2, 23: 2, 25: 0})

    def test_instantiation_blocks_keep_the_largest_count(self):
        # Twice<double> never ran, but Twice<int> did: the line is covered.
        _, counts = sample()
        self.assertEqual(counts[22], 2)
        self.assertEqual(counts[23], 2)


class GapsTest(unittest.TestCase):
    def test_ranges_span_non_executable_lines_largest_first(self):
        _, counts = sample()
        self.assertEqual(coverage_gaps.gaps(counts),
                         [(10, 13, 3), (18, 18, 1), (25, 25, 1)])

    def test_an_executed_line_splits_a_range(self):
        self.assertEqual(coverage_gaps.gaps({1: 0, 2: 5, 3: 0, 4: 0}),
                         [(3, 4, 2), (1, 1, 1)])

    def test_fully_covered_file_has_no_ranges(self):
        self.assertEqual(coverage_gaps.gaps({1: 1, 2: 7}), [])

    def test_merge_counts_a_line_run_by_any_object(self):
        into = {5: 0, 6: 0}
        coverage_gaps.merge(into, {5: 3, 7: 0})
        self.assertEqual(into, {5: 3, 6: 0, 7: 0})


class ReportTest(unittest.TestCase):
    def test_orders_files_by_never_executed_lines(self):
        coverage = {"src/a.cc": {1: 0, 2: 1},
                    "src/b.cc": {1: 0, 2: 0, 4: 0, 5: 1, 9: 0},
                    "src/c.cc": {1: 1}}
        out = io.StringIO()
        coverage_gaps.report(coverage, out)
        self.assertEqual(out.getvalue(), "\n".join([
            "5 of 8 executable lines in 3 src/ files never executed",
            "",
            "src/b.cc: 4 of 5 lines never executed, 2 ranges",
            "  1-4         3",
            "  9           1",
            "",
            "src/a.cc: 1 of 2 lines never executed, 1 ranges",
            "  1           1",
            ""]))

    def test_build_without_coverage_data_is_an_error(self):
        with tempfile.TemporaryDirectory() as empty:
            self.assertEqual(coverage_gaps.collect(empty), {})
            with mock.patch("sys.stderr", io.StringIO()):
                self.assertEqual(coverage_gaps.main([empty]), 1)


if __name__ == "__main__":
    unittest.main()
