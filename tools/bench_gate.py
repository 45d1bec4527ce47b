#!/usr/bin/env python3
"""The bench gate: a run of every bench must reproduce the committed
digests and EXPERIMENTS.md tables exactly.

The simulator is deterministic, so every modelled number in a bench's
BENCH_<name>.json run report is reproducible to the last bit in any build
mode. Each report stamps a `digest`: FNV-1a 64 over its compact JSON with
the host measurements (wall_seconds, peak_rss_mb, trace_store_bytes,
span_index_bytes) left out. The gate recomputes that digest from the
report's contents, and fails when a bench under bench/ has no report, when
the stamped digest disagrees with the contents, or when it differs from
bench/digests.json. It names every bench that moved.

It then renders the six bench tables of EXPERIMENTS.md from the reports
and requires each to equal its committed block byte for byte, printing a
unified diff when one does not. The invariants the tables exist to show
are checked on every run, --update included: the transport and spill-path
orderings, a chunked pipeline beating monolithic, the critical path
summing to the makespan, tenant shares on their weights, and the health
detectors' attribution.

After its verdict it prints a host ledger: each bench's wall_seconds and
peak_rss_mb, sorted by RSS, with suite totals. The ledger gates nothing;
host numbers are noisy.

Usage (from a directory of fresh reports, e.g. GFLINK_BENCH_OUT=perf-reports):
  tools/bench_gate.py --reports perf-reports           # check
  tools/bench_gate.py --reports perf-reports --update  # rewrite the digests and tables
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import tablelib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "bench", "digests.json")
EXPERIMENTS = os.path.join(ROOT, "EXPERIMENTS.md")
HOST_FIELDS = ("digest", "wall_seconds", "peak_rss_mb", "trace_store_bytes",
               "span_index_bytes")

FAIRNESS_TOLERANCE = 0.10  # tenant shares vs. weight shares (relative)


class GateError(Exception):
    pass


# ---- digest ----------------------------------------------------------------

def _escape(s):
    """obs::json_escape: the short escapes, \\u00XX for other controls."""
    short = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
             "\r": "\\r", "\t": "\\t"}
    return "".join(short.get(c) or (f"\\u{ord(c):04x}" if ord(c) < 0x20 else c)
                   for c in s)


def _dump(v):
    """obs::Json::dump() in compact form, for a value parsed back by json.load."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return "%d" % v if v.is_integer() and abs(v) < 9.0e15 else "%.17g" % v
    if isinstance(v, str):
        return f'"{_escape(v)}"'
    if isinstance(v, list):
        return "[" + ",".join(_dump(x) for x in v) + "]"
    return "{" + ",".join(f'"{_escape(k)}":{_dump(x)}' for k, x in v.items()) + "}"


def digest(report):
    """The digest obs::RunReport::to_json() stamps, recomputed."""
    h = 1469598103934665603
    body = {k: v for k, v in report.items() if k not in HOST_FIELDS}
    for byte in _dump(body).encode():
        h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


# ---- report access ---------------------------------------------------------

def gauges(report, prefix):
    """-> {(name, ((label, value), ...)): value} for gauges under `prefix`."""
    return {(g["name"], tuple(sorted(g.get("labels", {}).items()))): float(g["value"])
            for g in report["metrics"]["gauges"] if g["name"].startswith(prefix)}


def gauge(table, name, **labels):
    key = (name, tuple(sorted(labels.items())))
    if key not in table:
        raise GateError(f"report lacks gauge {name}{labels or ''}")
    return table[key]


# ---- the six tables --------------------------------------------------------

def shuffle_table(report):
    modes, dists = ["barrier", "pipelined", "one_sided"], ["uniform", "skewed"]
    g = gauges(report, "ablation_shuffle_seconds")
    s = {(m, d): gauge(g, "ablation_shuffle_seconds", mode=m, dist=d)
         for m in modes for d in dists}
    for d in dists:
        for fast, slow in (("pipelined", "barrier"), ("one_sided", "pipelined")):
            if s[(fast, d)] >= s[(slow, d)]:
                raise GateError(f"{fast} is not strictly faster than {slow} under {d} keys "
                                f"({s[(fast, d)]:.3f} vs {s[(slow, d)]:.3f} s)")
    lines = ["| Exchange transport | uniform (full-scale s) | vs. barrier "
             "| skewed (full-scale s) | vs. barrier |",
             "|---|---|---|---|---|"]
    for m in modes:
        cells = [m]
        for d in dists:
            cells += [f"{s[(m, d)]:.2f}", f"{s[(m, d)] / s[('barrier', d)]:.3f}x"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def spill_table(report):
    cells = [(p, c) for p in ("sync", "async") for c in ("none", "lz")]
    g = gauges(report, "ablation_spill_")
    secs = {k: gauge(g, "ablation_spill_seconds", path=k[0], codec=k[1]) for k in cells}
    stall = {k: gauge(g, "ablation_spill_stall_seconds", path=k[0], codec=k[1])
             for k in cells}
    for codec in ("none", "lz"):
        if secs[("async", codec)] >= secs[("sync", codec)]:
            raise GateError(f"async offload is not strictly faster than sync under "
                            f"codec={codec} ({secs[('async', codec)]:.3f} vs "
                            f"{secs[('sync', codec)]:.3f} s)")
    fastest = min(secs, key=secs.get)
    if fastest != ("async", "lz"):
        raise GateError(f"fastest spill cell is {fastest[0]}/{fastest[1]}, expected async/lz")
    lines = ["| Spill path | codec | full-scale s | vs. sync/none "
             "| critical-path spill stall (s) |",
             "|---|---|---|---|---|"]
    for k in cells:
        lines.append(f"| {k[0]} | {k[1]} | {secs[k]:.2f} | "
                     f"{secs[k] / secs[('sync', 'none')]:.3f}x | {stall[k]:.2f} |")
    return "\n".join(lines)


def pipeline_table(report):
    chunks = ["monolithic", "256KB", "1MB", "4MB"]
    g = gauges(report, "ablation_pipeline_")
    secs = {c: gauge(g, "ablation_pipeline_seconds", chunk=c) for c in chunks}
    best = min(secs[c] for c in chunks[1:])
    if best >= secs["monolithic"]:
        raise GateError("no chunked configuration beats the monolithic baseline "
                        f"(best {best:.4f} vs monolithic {secs['monolithic']:.4f} s)")
    lines = ["| Chunk size | Makespan (s, 64×4 MB blocks, 1 stream) "
             "| vs. monolithic | Copy-compute overlap |",
             "|---|---|---|---|"]
    for c in chunks:
        overlap = g.get(("ablation_pipeline_overlap_efficiency", (("chunk", c),)), 0.0)
        lines.append(f"| {c} | {secs[c]:.4f} | {secs['monolithic'] / secs[c]:.2f}x "
                     f"| {overlap:.0%} |")
    return "\n".join(lines)


def critical_path_table(report):
    # Report order of src/obs/span.hpp's SpanCategory taxonomy.
    categories = ["control", "h2d", "kernel", "d2h", "shuffle", "spill", "wait"]
    cp = report.get("critical_path")
    if not cp:
        raise GateError("report has no critical_path section (run without tracing?)")
    total_ns = int(cp["total_ns"])
    breakdown = {k: int(v) for k, v in cp["breakdown_ns"].items()}
    if total_ns <= 0 or sum(breakdown.values()) != total_ns:
        raise GateError(f"critical-path breakdown sums to {sum(breakdown.values())} ns, "
                        f"not the makespan {total_ns} ns")
    unknown = sorted(set(breakdown) - set(categories))
    if unknown:
        raise GateError(f"unknown critical-path categories {unknown}")
    scale = float(report["config"]["scale"])
    total = total_ns * 1e-9 / scale
    lines = ["| Category | Critical-path time (full-scale s) | Share |", "|---|---|---|"]
    for c in categories:
        secs = breakdown.get(c, 0) * 1e-9 / scale
        lines.append(f"| {c} | {secs:.2f} | {secs / total:.1%} |")
    lines.append(f"| total | {total:.2f} | 100.0% |")
    return "\n".join(lines)


def tenant_table(report):
    g = gauges(report, "multitenant_")
    lines = ["| Tenant | Weight share | Throughput share | GPU-cache share "
             "| p99 latency (sim s) |",
             "|---|---|---|---|---|"]
    for t in ("gold", "silver", "bronze"):
        want = gauge(g, "multitenant_weight_share", tenant=t)
        shares = [gauge(g, f"multitenant_{what}_share", tenant=t)
                  for what in ("throughput", "cache")]
        for what, got in zip(("throughput", "GPU-cache"), shares):
            if abs(got - want) > FAIRNESS_TOLERANCE * want:
                raise GateError(f"{t}: {what} share {got:.3f} is more than "
                                f"{FAIRNESS_TOLERANCE:.0%} off its weight share {want:.3f}")
        p99 = gauge(g, "multitenant_p99_latency_s", tenant=t)
        lines.append(f"| {t} | {want:.3f} | {shares[0]:.3f} | {shares[1]:.3f} | {p99:.4f} |")
    lines += ["", f"Aggregate: {gauge(g, 'multitenant_jobs_per_second'):.1f} "
              "jobs/s (simulated)."]
    return "\n".join(lines)


def health_table(report):
    g = {**gauges(report, "health_"), **gauges(report, "telemetry_")}
    node = int(gauge(g, "health_straggler_node"))
    if node != 4:
        raise GateError(f"straggler detector attributed worker {node}, "
                        "expected the injected straggler on worker 4")
    return "\n".join([
        "| Detector | Fires at (sim ms) | Attributed to | Detector value |",
        "|---|---|---|---|",
        f"| straggler | {gauge(g, 'health_straggler_detect_ms'):.3f} "
        f"| worker {node} | {gauge(g, 'health_straggler_score'):.2f} |",
        f"| slo_burn | {gauge(g, 'health_slo_detect_ms'):.3f} "
        f"| tenant prod | {gauge(g, 'health_slo_burn_rate'):.2f} |",
        "",
        f"Scenario: {gauge(g, 'telemetry_scenario_periods'):.0f} sampling periods, "
        f"{gauge(g, 'health_events_emitted'):.0f} health events.",
    ])


# EXPERIMENTS.md marker name -> (bench, renderer).
TABLES = {
    "shuffle-ablation": ("ablation_shuffle", shuffle_table),
    "spill-ablation": ("ablation_spill", spill_table),
    "pipeline-ablation": ("ablation_pipeline", pipeline_table),
    "critical-path": ("critical_path", critical_path_table),
    "multitenant": ("multitenant", tenant_table),
    "health-table": ("telemetry", health_table),
}


# ---- the gate --------------------------------------------------------------

def load_reports(reports_dir, benches):
    """-> ({bench: report}, [failure]) for every bench with a readable report."""
    reports, failures = {}, []
    for bench in benches:
        path = os.path.join(reports_dir, f"BENCH_{bench}.json")
        try:
            with open(path) as f:
                reports[bench] = json.load(f)
        except OSError:
            failures.append(f"{bench}: no report {path} (bench not run, or it failed)")
        except json.JSONDecodeError as e:
            failures.append(f"{bench}: report {path} is not valid JSON ({e})")
    return reports, failures


def host_ledger(reports):
    """-> the lines of the host ledger: wall time and peak RSS per bench."""
    rows = sorted(((r.get("peak_rss_mb", 0.0), r.get("wall_seconds", 0.0), b)
                   for b, r in reports.items()), reverse=True)
    width = max([len(b) for _, _, b in rows] + [len("bench")])
    lines = ["host ledger (not gated):",
             f"  {'bench':<{width}}  {'wall_s':>8}  {'peak_rss_mb':>11}"]
    lines += [f"  {b:<{width}}  {wall:8.2f}  {rss:11.1f}" for rss, wall, b in rows]
    if rows:
        total = f"total ({len(rows)})"
        lines.append(f"  {total:<{width}}  {sum(w for _, w, _ in rows):8.2f}  "
                     f"{'max ' + format(rows[0][0], '.1f'):>11}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reports", required=True, help="directory of BENCH_<name>.json reports")
    ap.add_argument("--update", action="store_true",
                    help="rewrite bench/digests.json and the EXPERIMENTS.md tables")
    args = ap.parse_args()

    benches = sorted(os.path.basename(p)[len("bench_"):-len(".cpp")]
                     for p in glob.glob(os.path.join(ROOT, "bench", "bench_*.cpp")))
    reports, failures = load_reports(args.reports, benches)

    fresh = {}
    for bench, report in reports.items():
        fresh[bench] = digest(report)
        if report.get("digest") != fresh[bench]:
            failures.append(f"{bench}: report stamps digest {report.get('digest')}, "
                            f"its contents digest to {fresh[bench]}")

    bodies = {}
    for block, (bench, render) in TABLES.items():
        if bench in reports:
            try:
                bodies[block] = render(reports[bench])
            except GateError as e:
                failures.append(f"{bench} ({block}): {e}")
            except KeyError as e:
                failures.append(f"{bench} ({block}): report lacks {e}")

    diff = []
    if not args.update:
        with open(DIGESTS) as f:
            committed = json.load(f)
        failures += [f"{b}: digest {d}, committed {committed.get(b, 'none')}"
                     for b, d in fresh.items() if d != committed.get(b)]
        failures += [f"{b}: committed digest for a bench that does not exist"
                     for b in sorted(set(committed) - set(benches))]
        if len(bodies) == len(TABLES):
            diff = tablelib.sync_blocks(EXPERIMENTS, bodies, update=False)
    if failures or diff:
        print("bench gate failed:\n"
              + "".join(f"  {line}\n" for line in failures)
              + "".join(f"{line}\n" for line in diff)
              + "If a change is meant to move these numbers, re-run every bench and "
              "tools/bench_gate.py --update, and say why in the commit.", file=sys.stderr)
    elif args.update:
        with open(DIGESTS, "w") as f:
            json.dump(fresh, f, indent=2, sort_keys=True)
            f.write("\n")
        tablelib.sync_blocks(EXPERIMENTS, bodies, update=True)
        print(f"updated {DIGESTS} and the {len(bodies)} EXPERIMENTS.md bench tables")
    else:
        print(f"bench gate passed: {len(fresh)} digests and {len(bodies)} tables exact")
    print("\n".join(host_ledger(reports)), flush=True)
    if failures or diff:
        sys.exit(1)


if __name__ == "__main__":
    main()
