#!/usr/bin/env python3
"""The bench case runner (bench/bench_report.hpp) end to end, over one bench.

    check_bench_harness.py <bench_table1_datasets binary> <bench/digests.json>

Four paths of GFLINK_BENCH_MAIN: with no argument every case runs and the
report's digest is the committed one; an unknown option exits 1 and writes
no report; an unwritable report directory exits 1; a positional filter
runs only the cases whose name contains it.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

NAME = "table1_datasets"
# A case line: "<Case>[/<arg>...] [label] key=value ..."; the bench's own
# printouts start with "Table1 " instead.
CASE_LINE = re.compile(r"^(Table1_\w+(?:/-?\d+)*) ")


def run(binary, out_dir, args=(), cwd=None):
    env = dict(os.environ, GFLINK_BENCH_OUT=out_dir)
    return subprocess.run([binary, *args], cwd=cwd or out_dir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, digests = sys.argv[1], sys.argv[2]
    want = json.load(open(digests))[NAME]
    report = "BENCH_%s.json" % NAME
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        full = os.path.join(tmp, "full")
        os.mkdir(full)
        p = run(binary, full)
        path = os.path.join(full, report)
        if p.returncode != 0 or not os.path.exists(path):
            errors.append("no argument: rc %d, stderr %r" % (p.returncode, p.stderr[:200]))
        elif (got := json.load(open(path)).get("digest")) != want:
            errors.append("no argument: digest %s, committed %s" % (got, want))

        bogus = os.path.join(tmp, "bogus")
        os.mkdir(bogus)
        p = run(binary, bogus, ["--bogus"])
        if p.returncode != 1 or os.listdir(bogus):
            errors.append("--bogus: rc %d, wrote %s" % (p.returncode, os.listdir(bogus)))

        missing = os.path.join(tmp, "missing")
        p = run(binary, missing, cwd=tmp)
        if p.returncode != 1 or missing not in p.stderr:
            errors.append("unwritable GFLINK_BENCH_OUT: rc %d, stderr %r"
                          % (p.returncode, p.stderr[:200]))

        filtered = os.path.join(tmp, "filtered")
        os.mkdir(filtered)
        p = run(binary, filtered, ["GeneratorCounts"])
        cases = [m.group(1) for m in map(CASE_LINE.match, p.stdout.splitlines()) if m]
        if p.returncode != 0 or cases != ["Table1_GeneratorCounts"]:
            errors.append("filter GeneratorCounts: rc %d, ran %s" % (p.returncode, cases))
    if errors:
        sys.exit("bench harness:\n  " + "\n  ".join(errors))
    print("bench harness: full run digest %s, --bogus and an unwritable report directory "
          "exit 1, the filter runs one case" % want)


if __name__ == "__main__":
    main()
