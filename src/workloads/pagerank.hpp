// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// PageRank over a fixed-out-degree web graph, CPU and GFlink paths.
//
// Per iteration: every page scatters rank/out_degree to its targets
// (flatMap -> 8 messages), messages reduce by target page, and the driver
// rebuilds the dense rank vector with damping and broadcasts it. The
// shuffle of rank messages dominates the network — which is why PageRank's
// overall speedup is the lowest of the iterative workloads (paper Fig. 5b).
#pragma once

#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace gflink::workloads::pagerank {

struct Config {
  std::uint64_t pages = 10'000'000;  // full-scale count (Table 1: 5-25 M)
  int iterations = 5;
  int partitions = 0;
  double damping = 0.85;
  bool write_output = true;
  std::uint64_t seed = 23;
  /// Link-target skew: 0 draws targets uniformly; k > 0 concentrates links
  /// on low page ids with Zipf-like mass (each geometric(1/2) level
  /// shrinks the target range by k bits — see page_at). The shuffle-
  /// ablation bench uses this as its "skewed" key distribution.
  int zipf_shift = 0;
};

struct Result {
  RunResult run;
  std::vector<double> ranks;  // truncated probe of the final ranks
};

Page page_at(std::uint64_t id, std::uint64_t n, std::uint64_t seed, int zipf_shift = 0);

df::DataSet<RankMsg> mapper(const df::DataSet<Page>& pages, Mode mode,
                            std::shared_ptr<std::vector<float>> ranks,
                            std::uint64_t iteration);

/// Register cudaPagerankContrib (see ensure_kernels_registered).
void register_kernels(gpu::KernelRegistry& registry);

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config);

}  // namespace gflink::workloads::pagerank
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
