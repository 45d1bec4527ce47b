#!/usr/bin/env python3
"""Tracing must not change what it measures.

    check_trace_neutrality.py <gflink binary> <work dir>

Runs each case below twice: once plain (with only ``--report-out``), and
once with ``--critical-path --trace-out --report-out``. PageRank exercises
the iterative all-to-all exchange; WordCount exercises GDST output
assembly, the padding filter and the ReduceByKey merge; KMeans exercises
the cached GDST path (input blocks bound in place, GPU-cache hits from the
second iteration) and the map -> reduce chain fused into the combine
pass. Fails unless both
runs of a case print the same makespans, iteration times, checksums and
speedup, and their run reports carry identical values for every metric
whose name does not start with ``trace_`` (the critical-path and straggler
gauges exist only in the traced report).
"""

import json
import os
import subprocess
import sys

CASES = [
    ["pagerank", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "3"],
    ["wordcount", "--mode", "both", "--workers", "4", "--size", "2"],
    ["kmeans", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "3"],
]
# Lines of the per-mode summary that carry modelled numbers.
SUMMARY_KEYS = ("total", "submission", "iterations", "checksum", "speedup")


def run(binary, args, extra):
    p = subprocess.run([binary] + args + extra, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.exit("gflink failed (%d):\n%s" % (p.returncode, p.stdout))
    return [line.strip() for line in p.stdout.splitlines()
            if line.strip().startswith(SUMMARY_KEYS)]


def metrics(path):
    with open(path) as f:
        report = json.load(f)
    out = {}
    for kind, series in report["metrics"].items():
        for s in series:
            if s["name"].startswith("trace_"):
                continue
            key = (kind, s["name"], json.dumps(s["labels"], sort_keys=True))
            out[key] = {k: v for k, v in s.items() if k not in ("name", "labels")}
    return out


def check(binary, work, args):
    """The errors of one case, and its summary-line and metric-series counts."""
    name = args[0]
    plain_report = os.path.join(work, "neutrality_%s_plain_report.json" % name)
    traced_report = os.path.join(work, "neutrality_%s_traced_report.json" % name)
    plain = run(binary, args, ["--report-out", plain_report])
    traced = run(binary, args, ["--critical-path", "--trace-out",
                                os.path.join(work, "neutrality_%s_trace.json" % name),
                                "--report-out", traced_report])
    errors = []
    if not plain:
        errors.append("%s: no summary lines in the plain run's output" % name)
    if plain != traced:
        errors.append("%s: printed summaries differ:\n  plain:  %s\n  traced: %s"
                      % (name, "\n          ".join(plain), "\n          ".join(traced)))
    a, b = metrics(plain_report), metrics(traced_report)
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            errors.append("%s: metric %s %s%s: plain %s, traced %s"
                          % (name, key[0], key[1], key[2], a.get(key), b.get(key)))
    return errors, len(plain), len(a)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    errors = []
    for args in CASES:
        case_errors, lines, series = check(binary, work, args)
        errors += case_errors
        if not case_errors:
            print("trace-neutral %s: %d summary lines and %d metric series identical"
                  % (args[0], lines, series))
    if errors:
        sys.exit("tracing changed the run:\n" + "\n".join(errors))


if __name__ == "__main__":
    main()
