#!/usr/bin/env python3
"""The two-clock benchmark of the GFlink simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds ``perfbench/`` (with the simulator
sources in ``src/``) into ``.bench_build/``, then runs the workload twice,
each time in its own process:

* an untraced run, which gives the end-to-end metrics;
* a traced run (``Testbed::trace = true``), which gives the per-layer
  metrics. The gap between the two runs is the price of the instruments.

Each run is split into ROUNDS processes, interleaved untraced/traced so that
both sample the whole ``--seconds`` window. A process repeats the workload
(Flink mode then GFlink mode) until its share of the time is used. Host time
is the fastest Flink repetition plus the fastest GFlink repetition, set-up
time the median over every testbed built, peak RSS the median over the
processes of the RSS after their first repetition. The modelled numbers of both runs are digested and must match
bit for bit. Every output is checked, and so is each workload's mechanism
(see README.md); a failed check makes ``correct`` false.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, holding the end-to-end metrics with ``--trace 0``
and the per-layer metrics with ``--trace 1``. Every metric the benchmark
knows is also printed above it by name and unit.

``--seed-check`` instead runs the modelled part on the tuning and held-out
seeds recorded in ``reference.json`` and prints ``speedup_error`` on both.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("kmeans", "pagerank", "wordcount-spill", "tenants")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 80
ROUNDS = 2

# The gated metrics, (name, unit) in order: end-to-end ones are defined on
# every workload; per-layer ones are named after the src/ modules.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _spec = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _spec["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _spec["per_layer"]]

# Workload-specific end-to-end metrics: printed by name and unit, but not
# gated, because the gated metrics must exist, nonzero, on every workload.
EXTRA = {
    "speedup": "x",
    "speedup_error": "ratio",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p99_s": "s",
    "share_error": "ratio",
    "failed_frac": "ratio",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_binary(workload, seed, trace, seconds):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--seconds", repr(seconds)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("exit code %d: %s" % (p.returncode, " ".join(cmd)))
    return json.loads(p.stdout)


def host_stats(outs):
    """End-to-end host metrics of one kind of run (untraced or traced)."""
    return {
        "host_s": min(x for o in outs for x in o["host_flink_s"])
        + min(x for o in outs for x in o["host_gflink_s"]),
        "setup_s": statistics.median(x for o in outs for x in o["setup_s"]),
        "peak_rss_mb": statistics.median(o["host"]["peak_rss_mb"] for o in outs),
    }


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def quantile(sorted_vals, q):
    """Nearest-rank quantile, and the number of samples strictly beyond it."""
    n = len(sorted_vals)
    rank = max(1, math.ceil(q * n))
    return sorted_vals[rank - 1], n - rank


def steady_iteration(workload, mod, run_times):
    """The steady unit of GFlink work (see README.md)."""
    iters = [v for k, v in sorted(mod.items()) if k.startswith("iteration_s.")]
    if workload == "tenants":
        return sum(run_times) / len(run_times)  # mean job run, dispatch to finish
    if len(iters) >= 3:
        return statistics.median(iters[1:-1])  # drop the DFS-read first and output-write last
    return mod["gflink_s"]  # single pass


def modelled_view(workload, out, ref):
    """Speed-up and the workload-specific modelled metrics of one run."""
    mod = out["modelled"]
    view = {"speedup": mod["flink_s"] / mod["gflink_s"]}
    factor = ref["paper_speedup"].get(workload, {}).get("factor")
    if factor:
        view["speedup_error"] = abs(view["speedup"] / factor - 1.0)
    if workload == "tenants":
        lat = sorted(out["job_latency_s"])
        view["jobs_per_s"] = len(lat) / mod["gflink_s"]
        view["job_p50_s"] = statistics.median(lat)
        view["job_p99_s"], view["job_p99_beyond"] = quantile(lat, 0.99)
        view["job_samples"] = len(lat)
        view["share_error"] = mod["share_error"]
    return view


def mechanism_checks(workload, mod, view, names):
    """Each workload must exercise the mechanism it was chosen for."""
    errs = []
    tiers = [mod["spill.stored_bytes." + t] for t in ("memory", "disk", "dfs")]
    if workload == "wordcount-spill":
        if not all(b > 0 for b in tiers):
            errs.append("wordcount-spill: a spill tier saw no traffic: %s" % tiers)
        if mod["core.cache_hit_ratio"] != 0:
            errs.append("wordcount-spill: the GPU cache was re-read")
    if workload in ("kmeans", "pagerank"):
        if mod["spill.offload_bytes"] != 0 or any(tiers):
            errs.append("%s: the exchange spilled" % workload)
    if workload == "kmeans" and not mod["core.cache_hit_ratio"] > 0:
        errs.append("kmeans: no GPU cache hits")
    if workload == "tenants":
        if not mod["core.cross_tenant_evictions"] > 0:
            errs.append("tenants: no cross-tenant cache eviction")
        if view["job_p99_beyond"] < 10:
            errs.append("tenants: job_p99_s has only %d samples beyond it" % view["job_p99_beyond"])
    errs += ["bad metric name %r" % n for n in names if not NAME_RE.match(n) or len(n) > 64]
    return errs


def seed_check():
    build()
    ref = load_reference()
    for workload in WORKLOADS:
        seeds = ref["seeds"][workload]
        for role in ("tuning", "held_out"):
            out = run_binary(workload, seeds[role], 0, 0.0)
            view = modelled_view(workload, out, ref)
            err = view.get("speedup_error")
            print("%-16s %-8s seed=%-6d speedup=%.4fx speedup_error=%s" % (
                workload, role, seeds[role], view["speedup"],
                "n/a" if err is None else "%.4f" % err))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-check", action="store_true")
    args = ap.parse_args()
    if args.seed_check:
        seed_check()
        return
    if args.workload is None:
        ap.error("--workload is required")

    build()
    ref = load_reference()
    plains, traceds = [], []
    for _ in range(ROUNDS):
        plains.append(run_binary(args.workload, args.seed, 0, args.seconds / (2 * ROUNDS)))
        traceds.append(run_binary(args.workload, args.seed, 1, args.seconds / (2 * ROUNDS)))
    plain, traced = plains[0], traceds[0]

    mod = dict(plain["modelled"])
    mod.setdefault("service.queue_wait_p99_s", 0.0)
    mod.setdefault("service.run_p99_s", 0.0)
    view = modelled_view(args.workload, plain, ref)
    errors = [e for o in plains + traceds for e in o["errors"]]
    digests = sorted({o["digest"] for o in plains + traceds})
    if len(digests) != 1:
        errors.append("modelled numbers differ between processes (traced or not): digests %s"
                      % " ".join(digests))

    host, traced_host = host_stats(plains), host_stats(traceds)
    e2e = {
        "gflink_s": mod["gflink_s"],
        "flink_s": mod["flink_s"],
        "gflink_iter_s": steady_iteration(args.workload, mod, plain["job_run_s"]),
        "setup_s": host["setup_s"],
        "peak_rss_mb": host["peak_rss_mb"],
        "traced_rss_mb": traced_host["peak_rss_mb"],
    }
    attempted = plain["attempted"]
    failed = plain["failed"]
    view["failed_frac"] = failed / attempted if attempted else 1.0
    host_layers = {
        "sim.events": plain["host"]["sim.events"],
        "sim.host_ns_per_event": host["host_s"] * 1e9 / plain["host"]["sim.events"],
        "host_s": host["host_s"],
        "traced_host_s": traced_host["host_s"],
    }
    for name in traced["host"]:
        host_layers.setdefault(name, statistics.median(o["host"][name] for o in traceds))

    layers = {}
    for name, _ in PER_LAYER:
        if name in mod:
            layers[name] = mod[name]
        elif name.startswith("cp."):
            layers[name] = traced["critical_path"][name]
        else:
            layers[name] = host_layers[name]

    names = list(e2e) + list(layers) + list(EXTRA)
    errors += mechanism_checks(args.workload, mod, view, names)

    print("workload %s seed %d: %d untraced and %d traced repetitions in %d processes" % (
        args.workload, args.seed, sum(o["reps"] for o in plains),
        sum(o["reps"] for o in traceds), 2 * ROUNDS))
    print("model digest %s (every process, traced or not)" % " ".join(digests))
    for name, unit in END_TO_END:
        print("end_to_end %-26s %.10g %s" % (name, e2e[name], unit))
    for name, unit in EXTRA.items():
        if name in view:
            extra = ""
            if name == "job_p99_s":
                extra = " (%d samples, %d beyond)" % (view["job_samples"], view["job_p99_beyond"])
            if name == "speedup_error":
                factor = ref["paper_speedup"][args.workload]["factor"]
                extra = " (speedup %.4fx vs paper %gx)" % (view["speedup"], factor)
            print("end_to_end %-26s %.10g %s%s" % (name, view[name], unit, extra))
        else:
            print("end_to_end %-26s n/a" % name)
    for name, unit in PER_LAYER:
        print("per_layer  %-34s %.10g %s" % (name, layers[name], unit))
    for e in errors:
        print("CHECK FAILED: " + e)

    table = END_TO_END if args.trace == 0 else PER_LAYER
    values = e2e if args.trace == 0 else layers
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
