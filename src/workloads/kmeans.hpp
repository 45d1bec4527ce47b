// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// KMeans clustering (HiBench-style), CPU and GFlink paths.
//
// Per iteration: assign every point to its nearest of k centers and emit a
// per-cluster partial aggregate; reduce aggregates by cluster; the driver
// recomputes centers and broadcasts them. The point dataset is read from
// GDFS in the first iteration and stays in cluster memory (and — in GPU
// mode — in the GPU cache) afterwards; the final iteration writes the
// clustered output back to GDFS, matching the paper's Fig. 7 shape.
#pragma once

#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace gflink::workloads::kmeans {

struct Config {
  std::uint64_t points = 210'000'000;  // full-scale count (Table 1)
  int iterations = 10;  // HiBench KMeans default max iterations
  int partitions = 0;  // 0 = mode default
  /// Snapshot the centers to DFS every N iterations (0 = off).
  int checkpoint_interval = 0;
  bool write_output = true;
  std::uint64_t seed = 42;
};

struct Result {
  RunResult run;
  std::vector<Point> centers;
};

/// Deterministic point for global index i (identical for CPU/GPU runs).
Point point_at(std::uint64_t i, std::uint64_t seed);

/// The assignment mapper as a dataset transformation (used by the
/// operator-level benches of Fig. 8b). `centers` (kClusters of them) is read
/// at task run time.
df::DataSet<ClusterAgg> mapper(const df::DataSet<Point>& points, Mode mode,
                               std::shared_ptr<std::vector<Point>> centers,
                               std::uint64_t iteration);

/// Register cudaKmeansAssign (see ensure_kernels_registered).
void register_kernels(gpu::KernelRegistry& registry);

/// Run the full workload. `runtime` may be null in CPU mode.
sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config);

}  // namespace gflink::workloads::kmeans
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
