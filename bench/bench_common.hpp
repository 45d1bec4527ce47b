// Shared scaffolding for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one of the paper's tables or figures: it
// builds a fresh simulated testbed per case, runs the workload driver(s)
// to completion on the virtual clock, and reports *extrapolated full-scale
// seconds* (simulated seconds divided by the scale factor; see
// workloads/common.hpp for the scaling model). Each binary's case table
// runs through GFLINK_BENCH_MAIN (bench_report.hpp).
#pragma once

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
  rep.metrics.inc(obs::Metric::BenchCases);
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

/// Report one CPU-vs-GFlink pair: counters carry both times and the speedup.
inline void report_pair(CaseState& state, double cpu_seconds, double gflink_seconds) {
  state.counters["cpu_s"] = cpu_seconds;
  state.counters["gflink_s"] = gflink_seconds;
  state.counters["speedup"] = cpu_seconds / gflink_seconds;
}

/// Run `driver` as stock Flink, then as GFlink, and report the pair.
template <typename ConfigT, typename ResultT>
void run_pair(CaseState& state, wl::Driver<ConfigT, ResultT> driver, const wl::Testbed& tb,
              const ConfigT& config) {
  const auto cpu = run_workload(driver, tb, wl::Mode::Cpu, config);
  const auto gpu = run_workload(driver, tb, wl::Mode::Gpu, config);
  report_pair(state, full_seconds(cpu.run.total, tb), full_seconds(gpu.run.total, tb));
}

}  // namespace gflink::bench
