// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// WordCount over Zipf-distributed text, CPU and GFlink paths.
//
// One-pass batch job: tokenized words (hashed ids) reduce by word. The job
// is I/O-bound — reading tens of GB of text dwarfs the counting — which is
// why GPU acceleration barely moves the total (paper: ~1.1x, Fig. 5c).
#pragma once

#include "workloads/common.hpp"
#include "workloads/records.hpp"

namespace gflink::workloads::wordcount {

struct Config {
  std::uint64_t text_bytes = 32ULL << 30;  // full-scale (Table 1: 24-56 GB)
  int partitions = 0;
  std::size_t vocabulary = 30000;
  double zipf_s = 1.0;
  /// Average bytes of text per token (word + separator).
  double bytes_per_word = 12.0;
  bool write_output = true;
  std::uint64_t seed = 77;
};

struct Result {
  RunResult run;
  std::uint64_t total_words = 0;
  std::uint64_t distinct_words = 0;
};

/// Register cudaWordcountBlock (see ensure_kernels_registered).
void register_kernels(gpu::KernelRegistry& registry);

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config);

}  // namespace gflink::workloads::wordcount
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
