// Shared scaffolding for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one of the paper's tables or figures: it
// builds a fresh simulated testbed per case, runs the workload driver(s)
// to completion on the virtual clock, and reports *extrapolated full-scale
// seconds* (simulated seconds divided by the scale factor; see
// workloads/common.hpp for the scaling model). Benchmarks use
// google-benchmark's manual-time mode: the time column is virtual, not
// wall-clock, and runs are deterministic so a single iteration is exact.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_report.hpp"
#include "core/gdst.hpp"
#include "workloads/common.hpp"

namespace gflink::bench {

namespace df = gflink::dataflow;
namespace core = gflink::core;
namespace gpu = gflink::gpu;
namespace sim = gflink::sim;
namespace wl = gflink::workloads;

/// Add one finished case to the binary-wide run report, before the
/// session (and its registry) is torn down. Counters add across cases;
/// gauges keep the last case.
inline obs::RunReport& report_case(const wl::Session& session) {
  obs::RunReport& rep = bench_report();
  session.report_into(rep);
  rep.metrics.inc("bench_cases_total");
  return rep;
}

/// Run one workload driver on a fresh testbed and report the case.
template <typename ConfigT, typename ResultT>
ResultT run_workload(wl::Driver<ConfigT, ResultT> driver, const wl::Testbed& tb, wl::Mode mode,
                     const ConfigT& config) {
  wl::Session session(tb, mode);
  ResultT result = session.run(driver, config);
  report_case(session);
  return result;
}

/// Full-scale seconds of a run (the number the paper's figures plot).
inline double full_seconds(sim::Duration d, const wl::Testbed& tb) {
  return sim::to_seconds(d) / tb.scale;
}

/// Report one CPU-vs-GFlink pair through google-benchmark: the manual time
/// is the GFlink run; counters carry both times and the speedup.
inline void report_pair(benchmark::State& state, double cpu_seconds, double gflink_seconds,
                        const wl::Testbed& tb) {
  state.SetIterationTime(gflink_seconds * tb.scale);  // simulated seconds
  state.counters["cpu_s"] = cpu_seconds;
  state.counters["gflink_s"] = gflink_seconds;
  state.counters["speedup"] = cpu_seconds / gflink_seconds;
}

/// Run `driver` as stock Flink, then as GFlink, and report the pair.
template <typename ConfigT, typename ResultT>
void run_pair(benchmark::State& state, wl::Driver<ConfigT, ResultT> driver,
              const wl::Testbed& tb, const ConfigT& config) {
  const auto cpu = run_workload(driver, tb, wl::Mode::Cpu, config);
  const auto gpu = run_workload(driver, tb, wl::Mode::Gpu, config);
  report_pair(state, full_seconds(cpu.run.total, tb), full_seconds(gpu.run.total, tb), tb);
}

}  // namespace gflink::bench
