// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// Iterative sparse matrix-vector multiplication (y = A x), CPU and GFlink.
//
// The CSR matrix is static: it is read from GDFS in the first iteration,
// stays in cluster memory, and — in GPU mode — is cached in device memory
// (the paper's flagship use of the GPU cache scheme, Fig. 7b / Fig. 8a).
// The dense vector x changes per iteration and is re-broadcast; on GPUs it
// is transferred once per device per iteration through an iteration-scoped
// cache key. The final iteration writes the vector to GDFS.
#pragma once

#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace gflink::workloads::spmv {

struct Config {
  std::uint64_t matrix_bytes = 1ULL << 30;  // full-scale (Table 1: 2-32 GB)
  int iterations = 5;
  int partitions = 0;
  bool write_output = true;
  /// Disable to measure the GPU cache scheme's effect (paper Fig. 8a).
  bool gpu_cache = true;
  std::uint64_t seed = 5;
};

struct Result {
  RunResult run;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
};

/// Number of CSR rows / vector entries for a full-scale matrix size.
std::uint64_t rows_for(std::uint64_t matrix_bytes, double scale);
std::uint64_t cols_for(std::uint64_t matrix_bytes, double scale);

CsrRow row_at(std::uint64_t r, std::uint64_t n_cols, std::uint64_t seed);

df::DataSet<VecEntry> mapper(const df::DataSet<CsrRow>& rows, Mode mode,
                             std::shared_ptr<std::vector<float>> x, std::uint64_t iteration,
                             bool gpu_cache = true);

/// Register cudaSpmvRow (see ensure_kernels_registered).
void register_kernels(gpu::KernelRegistry& registry);

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config);

}  // namespace gflink::workloads::spmv
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
