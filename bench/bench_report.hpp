// Machine-readable reporting for bench binaries.
//
// Each bench binary accumulates one obs::RunReport across all of its cases
// (report_case() in bench_common.hpp feeds it from each workloads::Session)
// and writes BENCH_<name>.json on exit via GFLINK_BENCH_MAIN. The output directory is $GFLINK_BENCH_OUT
// when set, else the current directory.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/run_report.hpp"

namespace gflink::bench {

/// The binary-wide accumulating report.
inline obs::RunReport& bench_report() {
  static obs::RunReport report;
  return report;
}

inline std::string bench_report_path(const std::string& name) {
  const char* dir = std::getenv("GFLINK_BENCH_OUT");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : ".";
  if (base.back() != '/') base += '/';
  return base + "BENCH_" + name + ".json";
}

/// Replacement for BENCHMARK_MAIN(): run the benchmarks, then write the
/// accumulated run report. A failed report write warns but does not fail
/// the bench.
inline int bench_main(int argc, char** argv, const char* name) {
  const auto wall_begin = std::chrono::steady_clock::now();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::RunReport& rep = bench_report();
  rep.name = name;
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();
  rep.peak_rss_mb = obs::host_peak_rss_mb();
  obs::add_derived_gflink_metrics(rep.metrics);
  const std::string path = bench_report_path(name);
  if (rep.write(path)) {
    std::printf("run report: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write run report %s\n", path.c_str());
  }
  return 0;
}

}  // namespace gflink::bench

#define GFLINK_BENCH_MAIN(name) \
  int main(int argc, char** argv) { return gflink::bench::bench_main(argc, argv, #name); }
