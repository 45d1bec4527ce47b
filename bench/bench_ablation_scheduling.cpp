// Ablation — the adaptive locality-aware scheduling scheme (Algorithms
// 5.1/5.2) against round-robin and random GWork placement, on workers with
// *heterogeneous* GPUs (one C2050 + one K20 each), the environment the
// scheme was designed for.
//
// Expected shape: locality-aware wins on iterative workloads (cached
// blocks keep returning to the device that holds them, and work stealing
// balances the faster K20 against the slower C2050); round-robin loses
// cache locality (a block bounces between devices, re-transferring over
// PCIe); random is worst on both counts.
#include "bench_common.hpp"
#include "workloads/kmeans.hpp"

namespace {

using namespace gflink::bench;

const char* policy_name(core::SchedulingPolicy p) {
  switch (p) {
    case core::SchedulingPolicy::LocalityAware: return "locality-aware";
    case core::SchedulingPolicy::RoundRobin: return "round-robin";
    case core::SchedulingPolicy::Random: return "random";
  }
  return "?";
}

struct Outcome {
  double seconds = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t steals = 0;
};

Outcome run_with_policy(core::SchedulingPolicy policy) {
  wl::Testbed tb;
  tb.workers = 4;
  tb.scheduling = policy;
  // Strongly heterogeneous bulks: one C2050 and one P100 per worker (the
  // "computational power of GPUs is different from each other" setting the
  // scheme targets). Scaled platform constants copied from the base config.
  auto gcfg = wl::make_gpu_config(tb);
  auto p100 = gpu::DeviceSpec::p100();
  p100.device_memory = gcfg.devices[0].device_memory;
  p100.pcie_latency = gcfg.devices[0].pcie_latency;
  p100.kernel_launch_overhead = gcfg.devices[0].kernel_launch_overhead;
  gcfg.devices[1] = p100;
  wl::Session session(tb, wl::Mode::Gpu, wl::make_engine_config(tb), gcfg);

  wl::kmeans::Config cfg;
  cfg.points = 210'000'000;
  cfg.iterations = 10;
  cfg.write_output = false;

  Outcome out;
  out.seconds = full_seconds(session.run(&wl::kmeans::run, cfg).run.total, tb);
  report_case(session);
  core::GFlinkRuntime& runtime = *session.runtime();
  out.cache_hits = runtime.total_cache_hits();
  out.h2d_bytes = runtime.total_bytes_h2d();
  for (int w = 1; w <= tb.workers; ++w) {
    out.steals += runtime.manager(w).streams().steals();
  }
  return out;
}

void Ablation_Scheduling(CaseState& state) {
  const auto policy = static_cast<core::SchedulingPolicy>(state.args[0]);
  const Outcome out = run_with_policy(policy);
  state.counters["total_s"] = out.seconds;
  state.counters["cache_hits"] = static_cast<double>(out.cache_hits);
  state.counters["h2d_MB"] = static_cast<double>(out.h2d_bytes) / 1e6;
  state.counters["steals"] = static_cast<double>(out.steals);
  state.label = policy_name(policy);
}

const Case kCases[] = {
    {"Ablation_Scheduling", Ablation_Scheduling, {{0}, {1}, {2}}},
};

}  // namespace

GFLINK_BENCH_MAIN(ablation_scheduling, kCases);
