// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// ConnectedComponents by iterative label propagation, CPU and GFlink paths.
//
// Per iteration: every vertex sends its current label to itself and to all
// neighbours; messages reduce by vertex with min(); the driver rebuilds the
// dense label vector and broadcasts it. Labels converge to the minimum
// vertex id of each component.
#pragma once

#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace gflink::workloads::concomp {

struct Config {
  std::uint64_t vertices = 10'000'000;  // full-scale count (Table 1: 5-25 M)
  int iterations = 5;
  int partitions = 0;
  /// Number of disjoint components the generator builds.
  std::uint64_t components = 32;
  bool write_output = true;
  std::uint64_t seed = 31;
};

struct Result {
  RunResult run;
  std::uint64_t distinct_labels = 0;
};

Vertex vertex_at(std::uint64_t id, std::uint64_t n, std::uint64_t components,
                 std::uint64_t seed);

df::DataSet<LabelMsg> mapper(const df::DataSet<Vertex>& vertices, Mode mode,
                             std::shared_ptr<std::vector<std::uint32_t>> labels,
                             std::uint64_t iteration);

/// Register cudaConcompMsgs (see ensure_kernels_registered).
void register_kernels(gpu::KernelRegistry& registry);

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config);

}  // namespace gflink::workloads::concomp
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
