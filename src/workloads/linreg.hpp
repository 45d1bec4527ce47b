// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// LinearRegression via batch gradient descent, CPU and GFlink paths.
//
// Per iteration: every sample contributes err * x to the gradient; partial
// gradients reduce to one record; the driver updates the weights and
// broadcasts them. Samples are cached (cluster memory + GPU cache).
#pragma once

#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace gflink::workloads::linreg {

struct Config {
  std::uint64_t samples = 210'000'000;  // full-scale count (Table 1)
  int iterations = 10;  // gradient-descent epochs
  int partitions = 0;
  double learning_rate = 1e-3;
  bool write_output = true;
  std::uint64_t seed = 11;
};

struct Result {
  RunResult run;
  std::vector<double> weights;  // kDim + 1 (bias last)
};

Sample sample_at(std::uint64_t i, std::uint64_t seed);

/// The gradient mapper (one Gradient per partition block / per record).
df::DataSet<Gradient> mapper(const df::DataSet<Sample>& samples, Mode mode,
                             std::shared_ptr<std::vector<double>> weights,
                             std::uint64_t iteration);

/// Register cudaLinregGradient (see ensure_kernels_registered).
void register_kernels(gpu::KernelRegistry& registry);

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config);

}  // namespace gflink::workloads::linreg
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
