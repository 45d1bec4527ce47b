// Ablation — data layout (paper §2.1 / §3.2): AoS vs SoA vs AoP.
//
// Two measurements:
//  1. Kernel-level: the roofline duration of the memory-bound SpMV and
//     compute-bound KMeans kernels under each declared layout on a C2050.
//     Expected: the memory-bound kernel suffers most under AoS (poor
//     coalescing); the compute-bound kernel barely notices.
//  2. Batch-level: the real CPU cost of transforming a RecordBatch between
//     layouts (what a system pays to present SoA to the device when the
//     host holds AoS pages). This one is wall-clock, so it stays out of
//     the run report; its case line prints it.
#include "bench_report.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

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

void Ablation_KernelLayout(gflink::bench::CaseState& state) {
  wl::ensure_kernels_registered();
  const auto layout = static_cast<mem::Layout>(state.args[1]);
  const bool memory_bound = state.args[0] == 0;
  const auto& kernel = gpu::KernelRegistry::global().lookup(
      memory_bound ? "cudaSpmvRow" : "cudaKmeansAssign");
  const auto spec = gpu::DeviceSpec::c2050();
  constexpr std::size_t kItems = 1'000'000;
  const sim::Duration d = gpu::kernel_duration(kernel, spec, kItems, layout);
  state.counters["kernel_ms"] = sim::to_millis(d);
  // The roofline duration is modelled time: the report's virtual clock.
  gflink::bench::bench_report().virtual_ns += d;
  state.label = std::string(memory_bound ? "SpMV(memory-bound) " : "KMeans(compute-bound) ") +
                mem::layout_name(layout);
}

void Ablation_LayoutTransformCost(gflink::bench::CaseState& state) {
  // Real (wall-clock) cost of one AoS -> target transform of 64k points:
  // the least of three, since the first also pays the first touch of its
  // output and cold caches.
  const auto target = static_cast<mem::Layout>(state.args[0]);
  mem::RecordBatch batch(&wl::point_desc(), 65536, mem::Layout::AoS);
  for (std::size_t r = 0; r < batch.count(); ++r) {
    for (int j = 0; j < wl::kDim; ++j) {
      batch.set<float>(0, r, static_cast<float>(r + static_cast<std::size_t>(j)),
                       static_cast<std::size_t>(j));
    }
  }
  double least_ms = std::numeric_limits<double>::infinity();
  for (int run = 0; run < 3; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    const mem::RecordBatch transformed = batch.to_layout(target);
    least_ms = std::min(least_ms, std::chrono::duration<double, std::milli>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
    // Printing a transformed value keeps the transform from being optimized away.
    state.counters["last_x"] = transformed.get<float>(0, batch.count() - 1, wl::kDim - 1);
  }
  state.counters["wall_ms"] = least_ms;
  state.label = std::string("AoS->") + mem::layout_name(target);
}

// The kernel sweep lists {bound, layout} with the bound fastest.
const gflink::bench::Case kCases[] = {
    {"Ablation_KernelLayout", Ablation_KernelLayout,
     {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}},
    {"Ablation_LayoutTransformCost", Ablation_LayoutTransformCost, {{1}, {2}}},
};

}  // namespace

GFLINK_BENCH_MAIN(ablation_layout, kCases);
