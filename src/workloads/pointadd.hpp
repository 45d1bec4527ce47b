// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// PointAdd — the paper's running example (Algorithm 3.1): map each 2-D
// point to {x + y, y}. Used by the Fig. 8 kernel-level and concurrency
// experiments as the light third application.
#pragma once

#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace gflink::workloads::pointadd {

struct Config {
  std::uint64_t points = 100'000'000;  // full-scale count
  int iterations = 1;
  int partitions = 0;
  std::uint64_t seed = 3;
};

struct Result {
  RunResult run;
};

Pt pt_at(std::uint64_t i, std::uint64_t seed);

/// The PointAdd map. Its data is static, so no iteration keys anything:
/// `iteration` is ignored, and stays only because perfbench's tenants
/// workload passes it.
df::DataSet<Pt> mapper(const df::DataSet<Pt>& points, Mode mode, std::uint64_t iteration = 0);

/// Register cudaAddPoint (see ensure_kernels_registered).
void register_kernels(gpu::KernelRegistry& registry);

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config);

}  // namespace gflink::workloads::pointadd
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
