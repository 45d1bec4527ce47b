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

void CriticalPath_PageRank(benchmark::State& state) {
  for (auto _ : state) {
    wl::Testbed tb;
    tb.trace = true;  // retain the span DAG for the critical-path walk
    wl::Session session(tb, wl::Mode::Gpu);
    wl::pagerank::Config pcfg;  // defaults: 10 M pages, 5 iterations
    const auto result = session.run(&wl::pagerank::run, pcfg);

    gflink::obs::RunReport& rep = report_case(session);
    rep.capture_spans(session.engine().cluster().spans());
    // The table generator extrapolates breakdown_ns to full-scale seconds.
    rep.set_config("scale", tb.scale);

    const double secs = full_seconds(result.run.total, tb);
    state.SetIterationTime(secs * tb.scale);  // simulated seconds
    state.counters["full_s"] = secs;
  }
}
BENCHMARK(CriticalPath_PageRank)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

GFLINK_BENCH_MAIN(critical_path);
