#!/usr/bin/env python3
"""Tracing must not change what it measures.

    check_trace_neutrality.py <gflink binary> <work dir>

Runs ``gflink pagerank --mode both --workers 4 --size 2 --iterations 3``
twice: once plain (with only ``--report-out``), and once with
``--critical-path --trace-out --report-out``. Fails unless both runs print
the same makespans, iteration times, checksums and speedup, and their run
reports carry identical values for every metric whose name does not start
with ``trace_`` (the critical-path and straggler gauges exist only in the
traced report).
"""

import json
import os
import subprocess
import sys

ARGS = ["pagerank", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "3"]
# Lines of the per-mode summary that carry modelled numbers.
SUMMARY_KEYS = ("total", "submission", "iterations", "checksum", "speedup")


def run(binary, extra):
    p = subprocess.run([binary] + ARGS + extra, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
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


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    plain_report = os.path.join(work, "neutrality_plain_report.json")
    traced_report = os.path.join(work, "neutrality_traced_report.json")
    plain = run(binary, ["--report-out", plain_report])
    traced = run(binary, ["--critical-path", "--trace-out",
                          os.path.join(work, "neutrality_trace.json"),
                          "--report-out", traced_report])
    errors = []
    if not plain:
        errors.append("no summary lines in the plain run's output")
    if plain != traced:
        errors.append("printed summaries differ:\n  plain:  %s\n  traced: %s"
                      % ("\n          ".join(plain), "\n          ".join(traced)))
    a, b = metrics(plain_report), metrics(traced_report)
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            errors.append("metric %s %s%s: plain %s, traced %s"
                          % (key[0], key[1], key[2], a.get(key), b.get(key)))
    if errors:
        sys.exit("tracing changed the run:\n" + "\n".join(errors))
    print("trace-neutral: %d summary lines and %d metric series identical" % (len(plain), len(a)))


if __name__ == "__main__":
    main()
