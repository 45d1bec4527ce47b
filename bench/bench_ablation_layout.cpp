// Ablation — data layout (paper §2.1 / §3.2): AoS vs SoA vs AoP.
//
// Two measurements:
//  1. Kernel-level: the roofline duration of the memory-bound SpMV and
//     compute-bound KMeans kernels under each declared layout on a C2050.
//     Expected: the memory-bound kernel suffers most under AoS (poor
//     coalescing); the compute-bound kernel barely notices.
//  2. Batch-level: the real CPU cost of transforming a RecordBatch between
//     layouts (what a system pays to present SoA to the device when the
//     host holds AoS pages).
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include <chrono>

#include "gpu/device_spec.hpp"
#include "gpu/kernel.hpp"
#include "mem/record_batch.hpp"
#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace {

namespace sim = gflink::sim;
namespace gpu = gflink::gpu;
namespace mem = gflink::mem;
namespace wl = gflink::workloads;

void Ablation_KernelLayout(benchmark::State& state) {
  wl::ensure_kernels_registered();
  const auto layout = static_cast<mem::Layout>(state.range(1));
  const bool memory_bound = state.range(0) == 0;
  const auto& kernel = gpu::KernelRegistry::global().lookup(
      memory_bound ? "cudaSpmvRow" : "cudaKmeansAssign");
  const auto spec = gpu::DeviceSpec::c2050();
  constexpr std::size_t kItems = 1'000'000;
  for (auto _ : state) {
    const sim::Duration d = gpu::kernel_duration(kernel, spec, kItems, layout);
    state.SetIterationTime(sim::to_seconds(d));
    state.counters["kernel_ms"] = sim::to_millis(d);
    // The roofline duration is modelled time: the report's virtual clock.
    gflink::bench::bench_report().virtual_ns += d;
  }
  state.SetLabel(std::string(memory_bound ? "SpMV(memory-bound) " : "KMeans(compute-bound) ") +
                 mem::layout_name(layout));
}
BENCHMARK(Ablation_KernelLayout)
    ->ArgsProduct({{0, 1}, {0, 1, 2}})
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

void Ablation_LayoutTransformCost(benchmark::State& state) {
  // Real (wall-clock) cost of the AoS -> target transform for 64k points.
  const auto target = static_cast<mem::Layout>(state.range(0));
  mem::RecordBatch batch(&wl::point_desc(), 65536, mem::Layout::AoS);
  for (std::size_t r = 0; r < batch.count(); ++r) {
    for (int j = 0; j < wl::kDim; ++j) {
      batch.set<float>(0, r, static_cast<float>(r + static_cast<std::size_t>(j)),
                       static_cast<std::size_t>(j));
    }
  }
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    auto transformed = batch.to_layout(target);
    benchmark::DoNotOptimize(transformed);
    auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    state.SetIterationTime(dt);
  }
  state.SetLabel(std::string("AoS->") + mem::layout_name(target));
}
BENCHMARK(Ablation_LayoutTransformCost)
    ->Arg(1)->Arg(2)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace

GFLINK_BENCH_MAIN(ablation_layout);
