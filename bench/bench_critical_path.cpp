// Critical-path breakdown — where the makespan of the GFlink PageRank run
// actually goes, by span category (control, H2D, kernel, D2H, shuffle,
// spill, wait).
//
// Unlike the figure benches this one runs with tracing on: the engine's
// SpanStore retains the causal span DAG, and capture_spans() extracts the
// last-finisher critical path whose per-category breakdown sums to the
// makespan exactly (the deterministic invariant tools/bench_gate.py
// re-checks in CI, where it also renders the EXPERIMENTS.md breakdown
// table from the report's critical_path section).
#include "bench_common.hpp"
#include "workloads/pagerank.hpp"

namespace {

using namespace gflink::bench;

void CriticalPath_PageRank(CaseState& state) {
  wl::Testbed tb;
  tb.trace = true;  // retain the span DAG for the critical-path walk
  wl::Session session(tb, wl::Mode::Gpu);
  wl::pagerank::Config pcfg;  // defaults: 10 M pages, 5 iterations
  const auto result = session.run(&wl::pagerank::run, pcfg);

  gflink::obs::RunReport& rep = report_case(session);
  rep.capture_spans(session.engine().cluster().spans());
  rep.trace_store_bytes = session.engine().cluster().spans().retained_bytes();
  // The table generator extrapolates breakdown_ns to full-scale seconds.
  rep.set_config("scale", tb.scale);

  state.counters["full_s"] = full_seconds(result.run.total, tb);
}

const Case kCases[] = {
    {"CriticalPath_PageRank", CriticalPath_PageRank, {}},
};

}  // namespace

GFLINK_BENCH_MAIN(critical_path, kCases);
