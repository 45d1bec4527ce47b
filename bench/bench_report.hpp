// The case runner and machine-readable reporting for bench binaries.
//
// Each bench binary declares its cases as a table: a function plus the
// argument tuples it runs with. GFLINK_BENCH_MAIN runs every case once, in
// table order, and prints one line per case: its name and arguments, its
// label, and its counters. Every case runs on the virtual clock, so one run
// is exact. Across all cases the binary accumulates one obs::RunReport
// (report_case() in bench_common.hpp feeds it from each workloads::Session)
// and writes it to BENCH_<name>.json on exit. The output directory is
// $GFLINK_BENCH_OUT when set, else the current directory.
//
// Usage: bench_<name> [FILTER] runs only the cases whose name (with its
// arguments, as printed) contains FILTER. A filtered run writes a report of
// those cases only, so its digest differs from the full run's.
#pragma once

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/run_report.hpp"

namespace gflink::bench {

/// One run of a case: its arguments in; its label and counters out, for
/// the case's stdout line (the report holds the gated numbers).
struct CaseState {
  std::vector<std::int64_t> args;
  std::string label;
  std::map<std::string, double> counters;
};

/// A row of a bench's case table: `fn` runs once per argument tuple, in
/// order; a row with no tuples runs once with none.
struct Case {
  const char* name;
  void (*fn)(CaseState&);
  std::vector<std::vector<std::int64_t>> args;
};

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

/// "name [label] key=value ...", values in shortest round-trip form.
inline void print_case(const std::string& name, const CaseState& state) {
  std::string line = name;
  if (!state.label.empty()) line += " [" + state.label + "]";
  for (const auto& [key, value] : state.counters) {
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    line += " " + key + "=" + std::string(buf, end);
  }
  std::printf("%s\n", line.c_str());
}

/// Run the cases that match the optional filter, then write the
/// accumulated run report. A bad argument, a filter that matches nothing
/// or a failed report write fails the bench (exit 1).
inline int bench_main(int argc, char** argv, const char* name, std::span<const Case> cases) {
  const auto wall_begin = std::chrono::steady_clock::now();
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: %s [FILTER]\n", argv[0]);
    return 1;
  }
  const std::string filter = argc == 2 ? argv[1] : "";

  const std::vector<std::vector<std::int64_t>> no_args{{}};
  int ran = 0;
  for (const Case& c : cases) {
    for (const auto& args : c.args.empty() ? no_args : c.args) {
      std::string full = c.name;
      for (const std::int64_t a : args) full.append("/").append(std::to_string(a));
      if (full.find(filter) == std::string::npos) continue;
      CaseState state{args, {}, {}};
      c.fn(state);
      print_case(full, state);
      ++ran;
    }
  }
  if (ran == 0) {
    std::fprintf(stderr, "error: no case matches '%s'\n", filter.c_str());
    return 1;
  }

  obs::RunReport& rep = bench_report();
  rep.name = name;
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();
  rep.peak_rss_mb = obs::host_peak_rss_mb();
  const std::string path = bench_report_path(name);
  if (!rep.write(path)) {
    std::fprintf(stderr, "error: could not write run report %s\n", path.c_str());
    return 1;
  }
  std::printf("run report: %s\n", path.c_str());
  return 0;
}

}  // namespace gflink::bench

#define GFLINK_BENCH_MAIN(name, cases)                                   \
  int main(int argc, char** argv) {                                      \
    return gflink::bench::bench_main(argc, argv, #name, cases);          \
  }
