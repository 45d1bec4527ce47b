// Extension bench — fault-tolerance overheads (the paper names Flink's
// reliability as the main reason GFlink builds on it, §1.1).
//
// Runs the KMeans job on the 10-slave GFlink cluster and kills one worker
// at different points of the run. Reports the makespan inflation and the
// retry counts. Expected shape: a failure costs roughly (detection delay +
// re-execution of the in-flight wave); later failures cost less absolute
// work but the detection delay floor remains.
#include "bench_common.hpp"
#include "workloads/kmeans.hpp"

namespace {

using namespace gflink::bench;

double run_with_failure(const wl::Testbed& tb, gflink::sim::Time kill_at,
                        std::uint64_t* retried) {
  wl::Session session(tb, wl::Mode::Gpu);
  if (kill_at > 0) {
    session.engine().schedule_worker_failure(3, kill_at);
  }
  wl::kmeans::Config cfg;
  cfg.points = 210'000'000;
  cfg.iterations = 10;
  const auto result = session.run(&wl::kmeans::run, cfg);
  report_case(session);
  if (retried != nullptr) *retried = session.engine().tasks_retried();
  return full_seconds(result.run.total, tb);
}

void Fault_RecoveryOverhead(CaseState& state) {
  wl::Testbed tb;
  const auto kill_ms = state.args[0];  // virtual ms; 0 = no failure
  static double baseline = 0;
  std::uint64_t retried = 0;
  const double seconds =
      run_with_failure(tb, gflink::sim::millis(static_cast<double>(kill_ms)), &retried);
  if (kill_ms == 0) baseline = seconds;
  state.counters["total_s"] = seconds;
  state.counters["tasks_retried"] = static_cast<double>(retried);
  if (baseline > 0) state.counters["overhead_pct"] = 100.0 * (seconds / baseline - 1.0);
  state.label = kill_ms == 0 ? "no failure"
                             : "worker killed at t=" + std::to_string(kill_ms) + "ms(sim)";
}

const Case kCases[] = {
    {"Fault_RecoveryOverhead", Fault_RecoveryOverhead, {{0}, {3}, {10}, {20}, {30}}},
};

}  // namespace

GFLINK_BENCH_MAIN(fault_recovery, kCases);
