#!/usr/bin/env python3
"""coverage_gaps: never-executed line ranges of a --coverage build.

Runs gcov over every src/ object of a build configured with --coverage
(after its tests ran) and prints each source file's never-executed line
ranges, largest first. Files are ordered by their never-executed line
count. It reports and never gates: the exit status is 0 whatever the
coverage, and 1 only when the build holds no coverage data at all.

    cmake -S . -B build-cov -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j && ctest --test-dir build-cov -j
    python3 tools/coverage_gaps.py build-cov

A range runs from one never-executed line to the last before the next
executed line; lines gcov marks non-executable (comments, braces) do not
break it. A line counts as executed when any object executed it, so a
header's inline code is covered if any translation unit ran it.
"""

import argparse
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# gcov's count column for a line that never ran: "#####", or "=====" when
# only an exceptional path reaches it.
NEVER_EXECUTED = ("#####", "=====")


def parse_gcov(text):
    """Parses one .gcov file into (source path, {line: execution count}).

    Only executable lines appear in the map. Template instantiations repeat
    their lines in per-instantiation blocks; a line keeps its largest count.
    """
    source = None
    counts = {}
    for raw in text.splitlines():
        parts = raw.split(":", 2)
        if len(parts) < 3:
            continue  # instantiation names and "-----" separators
        count, number = parts[0].strip(), parts[1].strip()
        if not number.isdigit():
            continue
        line = int(number)
        if line == 0:
            if parts[2].startswith("Source:"):
                source = parts[2][len("Source:"):]
            continue
        if count == "-":
            continue
        value = 0 if count in NEVER_EXECUTED else int(count.rstrip("*"))
        counts[line] = max(counts.get(line, 0), value)
    return source, counts


def gaps(counts):
    """Never-executed ranges of one file as (first, last, lines), largest
    first; `lines` counts the never-executed lines in the range."""
    ranges = []
    current = None
    for line in sorted(counts):
        if counts[line] > 0:
            if current:
                ranges.append(tuple(current))
            current = None
        elif current is None:
            current = [line, line, 1]
        else:
            current[1] = line
            current[2] += 1
    if current:
        ranges.append(tuple(current))
    return sorted(ranges, key=lambda r: (-r[2], r[0]))


def merge(into, counts):
    """Folds one object's line counts into the per-file map `into`."""
    for line, value in counts.items():
        into[line] = max(into.get(line, 0), value)


def collect(build_dir, root=ROOT):
    """{path relative to root: {line: count}} over the build's src/ objects."""
    root = os.path.realpath(root)
    coverage = {}
    pattern = os.path.join(build_dir, "src", "**", "*.gcda")
    for gcda in sorted(glob.glob(pattern, recursive=True)):
        with tempfile.TemporaryDirectory() as workdir:
            subprocess.run(
                ["gcov", "-p", "-o", os.path.dirname(os.path.abspath(gcda)),
                 os.path.abspath(gcda)],
                cwd=workdir, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, check=False)
            for name in sorted(os.listdir(workdir)):
                if not name.endswith(".gcov"):
                    continue
                with open(os.path.join(workdir, name),
                          errors="replace") as f:
                    source, counts = parse_gcov(f.read())
                if source is None:
                    continue
                if not os.path.isabs(source):
                    source = os.path.join(os.path.dirname(gcda), source)
                path = os.path.relpath(os.path.realpath(source), root)
                if path.startswith("src" + os.sep):
                    merge(coverage.setdefault(path, {}), counts)
    return coverage


def report(coverage, out=sys.stdout):
    """Prints every file's ranges; files with the most such lines first."""
    files = []
    for path, counts in coverage.items():
        missed = sum(1 for value in counts.values() if value == 0)
        files.append((missed, path, counts))
    files.sort(key=lambda f: (-f[0], f[1]))
    executable = sum(len(counts) for _, _, counts in files)
    missed_total = sum(missed for missed, _, _ in files)
    print("%d of %d executable lines in %d src/ files never executed" %
          (missed_total, executable, len(files)), file=out)
    for missed, path, counts in files:
        if missed == 0:
            continue
        ranges = gaps(counts)
        print("\n%s: %d of %d lines never executed, %d ranges" %
              (path, missed, len(counts), len(ranges)), file=out)
        for first, last, lines in ranges:
            span = str(first) if first == last else "%d-%d" % (first, last)
            print("  %-11s %d" % (span, lines), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].split(": ", 1)[1])
    parser.add_argument("build_dir",
                        help="a --coverage build whose tests have run")
    args = parser.parse_args(argv)
    coverage = collect(args.build_dir)
    if not coverage:
        print("error: no src/ coverage data under %s (configure with "
              "--coverage and run the tests first)" % args.build_dir,
              file=sys.stderr)
        return 1
    report(coverage)
    return 0


if __name__ == "__main__":
    sys.exit(main())
