#!/usr/bin/env python3
"""Tracing and telemetry must not change what they measure.

    check_trace_neutrality.py <gflink binary> <work dir>

Runs each case below three times: plain (with only ``--report-out``),
traced (``--critical-path --trace-out --report-out``) and sampled
(``--telemetry-out --telemetry-prom --telemetry-period 0.01 --slo-ms 5
--report-out``; at that period the queue-anomaly detector fires on PageRank
and WordCount). PageRank
exercises the iterative all-to-all exchange; WordCount exercises GDST
output assembly, the padding filter and the ReduceByKey merge; KMeans
exercises the cached GDST path (input blocks bound in place, GPU-cache hits
from the second iteration) and the map -> reduce chain fused into the
combine pass; LinReg, ConComp, SpMV and PointAdd cover the remaining CLI
workloads (a block reducer, a flat-map scatter, a cached broadcast vector
and an element-wise map written over its own input). Fails unless the
traced run prints the same makespans, iteration times, checksums and
speedup as the plain run, ends at the same ``virtual_ns``, and reports
the same metric series with identical values (the critical path and the
stragglers are report sections, not metrics); unless the sampled run
prints the same summary and its report's ``digest`` equals the plain
run's; and unless the plain run's digest, the
traced run's digest (which also covers ``critical_path``, ``stragglers`` and
``lane_utilization``) and the FNV-1a digest of the ``--trace-out`` file
equal the ones pinned in DIGESTS; and unless the plain run's report shows a
``trace_store_bytes`` of 0 (an untraced store holds nothing) and the traced
run's a nonzero one. The model and the trace store are the same
in every build mode, so Release and sanitizer builds must all reach the
pinned digests; a change that means to move a modelled number, or what the
trace store records, updates them.
"""

import json
import os
import subprocess
import sys

CASES = [
    ["pagerank", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "3"],
    ["wordcount", "--mode", "both", "--workers", "4", "--size", "2"],
    ["kmeans", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "3"],
    ["linreg", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "3"],
    ["concomp", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "3"],
    ["spmv", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "3"],
    ["pointadd", "--mode", "both", "--workers", "4", "--size", "2", "--iterations", "2"],
]
# Per case: the plain and the traced run's report digest (RunReport::to_json's
# FNV-1a over every member but the host measurements wall_seconds,
# peak_rss_mb, trace_store_bytes and span_index_bytes), and the FNV-1a of
# the traced run's Chrome trace file.
DIGESTS = {
    "pagerank": ("84e3b3f5b6b475af", "bbf83a5718781be8", "d4116dfb0eefcc54"),
    "wordcount": ("e51d7a23aece54a9", "927671cb04d3d43c", "d55ccbdb09fb1e11"),
    "kmeans": ("4499fae9ea761e02", "5bb8c1da8d6f0690", "b543bb176344c0ee"),
    "linreg": ("049b76feeba9e3a5", "be26500c522e7ae4", "8ce786a1444a5c56"),
    "concomp": ("78cc2d4a37ea53bc", "04ccf442d1fc8735", "53105297a86d4916"),
    "spmv": ("f53c721801c7be9b", "3689fab4fa59e1ab", "9288ecf907a62519"),
    "pointadd": ("de1e543caa6782bf", "0e7216b4b58a03a7", "69436957816ec9df"),
}
# Lines of the per-mode summary that carry modelled numbers.
SUMMARY_KEYS = ("total", "submission", "iterations", "checksum", "speedup")


def run(binary, args, extra):
    p = subprocess.run([binary] + args + extra, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.exit("gflink failed (%d):\n%s" % (p.returncode, p.stdout))
    return [line.strip() for line in p.stdout.splitlines()
            if line.strip().startswith(SUMMARY_KEYS)]


def load(path):
    with open(path) as f:
        return json.load(f)


def fnv1a(path):
    """FNV-1a 64 of a file's bytes, as 16 hex characters."""
    h = 1469598103934665603
    with open(path, "rb") as f:
        for byte in f.read():
            h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def metrics(report):
    out = {}
    for kind, series in report["metrics"].items():
        for s in series:
            key = (kind, s["name"], json.dumps(s["labels"], sort_keys=True))
            out[key] = {k: v for k, v in s.items() if k not in ("name", "labels")}
    return out


def check(binary, work, args):
    """The errors of one case, and its summary-line and metric-series counts."""
    name = args[0]

    def out(what):
        return os.path.join(work, "neutrality_%s_%s" % (name, what))

    plain = run(binary, args, ["--report-out", out("plain_report.json")])
    traced = run(binary, args, ["--critical-path", "--trace-out", out("trace.json"),
                                "--report-out", out("traced_report.json")])
    sampled = run(binary, args, ["--telemetry-out", out("telemetry.jsonl"),
                                 "--telemetry-prom", out("telemetry.prom"),
                                 "--telemetry-period", "0.01", "--slo-ms", "5",
                                 "--report-out", out("sampled_report.json")])
    plain_report = load(out("plain_report.json"))
    traced_report = load(out("traced_report.json"))
    sampled_report = load(out("sampled_report.json"))
    errors = []
    if not plain:
        errors.append("%s: no summary lines in the plain run's output" % name)
    for what, lines in (("traced", traced), ("sampled", sampled)):
        if plain != lines:
            errors.append("%s: printed summaries differ:\n  plain:  %s\n  %s: %s"
                          % (name, "\n          ".join(plain), what,
                             "\n          ".join(lines)))
    if traced_report["virtual_ns"] != plain_report["virtual_ns"]:
        errors.append("%s: virtual_ns: plain %d, traced %d"
                      % (name, plain_report["virtual_ns"], traced_report["virtual_ns"]))
    a, b = metrics(plain_report), metrics(traced_report)
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            errors.append("%s: metric %s %s%s: plain %s, traced %s"
                          % (name, key[0], key[1], key[2], a.get(key), b.get(key)))
    if sampled_report["digest"] != plain_report["digest"]:
        errors.append("%s: report digest: plain %s, sampled %s"
                      % (name, plain_report["digest"], sampled_report["digest"]))
    if plain_report["trace_store_bytes"] != 0:
        errors.append("%s: trace_store_bytes %d untraced, want 0"
                      % (name, plain_report["trace_store_bytes"]))
    if not traced_report["trace_store_bytes"] > 0:
        errors.append("%s: trace_store_bytes %d traced, want more than 0"
                      % (name, traced_report["trace_store_bytes"]))
    got = (plain_report["digest"], traced_report["digest"], fnv1a(out("trace.json")))
    for what, have, pinned in zip(("plain report", "traced report", "trace file"), got,
                                  DIGESTS[name]):
        if have != pinned:
            errors.append("%s: %s digest %s, pinned %s" % (name, what, have, pinned))
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
            print("neutral %s: %d summary lines and %d metric series identical traced, "
                  "report digest identical sampled, report and trace digests pinned, "
                  "trace store bytes 0 plain and nonzero traced"
                  % (args[0], lines, series))
    if errors:
        sys.exit("a run left its pinned digest, or an instrument changed it:\n"
                 + "\n".join(errors))


if __name__ == "__main__":
    main()
