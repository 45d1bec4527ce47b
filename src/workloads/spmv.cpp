// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "workloads/spmv.hpp"

#include <cmath>

#include "core/gdst.hpp"

namespace gflink::workloads::spmv {

// Compile-time + static-init layout proof for every mirror this
// translation unit reinterprets batch bytes as (see mem/gstruct.hpp).
GSTRUCT_MIRROR_CHECK(CsrRow, csr_row_desc);
GSTRUCT_MIRROR_CHECK(VecEntry, vec_entry_desc);

namespace {

// CPU row UDF. Idiomatic Flink SpMV processes every nonzero as a Tuple3
// (row, col, value) joined with the vector and grouped by row, costing on
// the order of 1 us per nonzero (~64 us per row here) — this is the cost
// the paper's cuBLAS-backed GPU path removes. Calibrated accordingly.
const df::OpCost kRowCost{29500.0, sizeof(CsrRow) + 4.0 * kNnzPerRow};

/// Full-scale vector size: the paper pairs a 1.0 GB matrix with a 123 MB
/// vector (ratio ~1/8), capped so huge matrices keep a realistic vector.
std::uint64_t vector_bytes_for(std::uint64_t matrix_bytes) {
  return std::min<std::uint64_t>(matrix_bytes / 8, 256ULL << 20);
}

// The row body, shared by the Flink UDF and cudaSpmvRow: one entry of
// y = A x.
inline VecEntry row_dot(const CsrRow& row, const float* x) {
  float acc = 0;
  for (int j = 0; j < kNnzPerRow; ++j) acc += row.val[j] * x[row.col[j]];
  return VecEntry{row.row, acc};
}

}  // namespace

void register_kernels(gpu::KernelRegistry& registry) {
  // y_block = A_block * x. Buffers: [rows, x(vector of floats), out(n
  // VecEntry)]. This is the cuBLAS/cuSPARSE-quality path the paper uses,
  // hence SoA efficiency.
  gpu::Kernel k;
  k.name = "cudaSpmvRow";
  k.preferred_layout = mem::Layout::SoA;
  k.cost.flops_per_item = 2.0 * kNnzPerRow;
  k.cost.dram_bytes_per_item = sizeof(CsrRow) + 4.0 * kNnzPerRow;  // row + gathered x
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* rows = reinterpret_cast<const CsrRow*>(launch.buffers[0].data());
    const auto* x = reinterpret_cast<const float*>(launch.buffers[1].data());
    auto* out = reinterpret_cast<VecEntry*>(launch.buffers.back().data());
    for (std::size_t i = 0; i < launch.items; ++i) out[i] = row_dot(rows[i], x);
  };
  registry.register_kernel(std::move(k));
}

std::uint64_t rows_for(std::uint64_t matrix_bytes, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(matrix_bytes) * scale) / sizeof(CsrRow));
}

std::uint64_t cols_for(std::uint64_t matrix_bytes, double scale) {
  return std::max<std::uint64_t>(
      kNnzPerRow,
      static_cast<std::uint64_t>(static_cast<double>(vector_bytes_for(matrix_bytes)) * scale) /
          sizeof(float));
}

CsrRow row_at(std::uint64_t r, std::uint64_t n_cols, std::uint64_t seed) {
  CsrRow row;
  row.row = r;
  std::uint64_t h = r * 0x9e3779b97f4a7c15ULL + seed;
  for (int j = 0; j < kNnzPerRow; ++j) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    row.col[j] = static_cast<std::uint32_t>((h >> 16) % n_cols);
    row.val[j] = static_cast<float>(static_cast<std::int32_t>(h & 0xffff) - 0x8000) / 0x8000;
  }
  return row;
}

df::DataSet<VecEntry> mapper(const df::DataSet<CsrRow>& rows, Mode mode,
                             std::shared_ptr<std::vector<float>> x, std::uint64_t iteration,
                             bool gpu_cache) {
  if (mode == Mode::Cpu) {
    return rows.map<VecEntry>(&vec_entry_desc(), "spmvRow", kRowCost,
                              [x](const CsrRow& row) { return row_dot(row, x->data()); });
  }
  ensure_kernels_registered();
  core::GpuOpSpec spec;
  spec.kernel = "cudaSpmvRow";
  spec.ptx_path = "/kernels/spmv.ptx";
  spec.layout = mem::Layout::SoA;  // cuSPARSE-style columnar access
  spec.cache_input = gpu_cache;    // the matrix is cached on first touch
  spec.chunkable = true;           // one output row per input row
  spec.cache_namespace = 1;
  spec.make_aux = broadcast_aux(std::move(x), iteration, gpu_cache);
  return core::gpu_dataset_op<CsrRow, VecEntry>(rows, &vec_entry_desc(), "gpuSpmvRow",
                                                std::move(spec));
}

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config) {
  const std::uint64_t n_rows = rows_for(config.matrix_bytes, tb.scale);
  const std::uint64_t n_cols = cols_for(config.matrix_bytes, tb.scale);
  const DriverInput input = prepare_input(engine, runtime, mode, config.partitions, "spmv",
                                          n_rows, n_rows * sizeof(CsrRow));

  Result result;
  result.rows = n_rows;
  result.cols = n_cols;
  auto x = std::make_shared<std::vector<float>>(n_cols, 1.0f);

  df::Job job(engine, "spmv");
  co_await job.submit();

  auto source = df::DataSet<CsrRow>::from_generator(
      engine, &csr_row_desc(),
      striped<CsrRow>(n_rows, input.partitions,
                      [n_cols, seed = config.seed](std::uint64_t r) {
                        return row_at(r, n_cols, seed);
                      }),
      df::OpCost{16.0, sizeof(CsrRow)}, input.path);

  // The benchmark repeatedly applies the static matrix to the static input
  // vector (the paper's setup: the matrix is cached on the GPUs after the
  // first iteration, and only the first/last iterations touch the DFS).
  df::DataHandle rows;
  std::vector<VecEntry> y_entries;
  for (int iter = 0; iter < config.iterations; ++iter) {
    const sim::Time t0 = engine.now();
    if (iter == 0) {
      rows = co_await source.materialize(job);  // DFS read of the matrix
      // Distribute the vector to the workers once.
      co_await engine.broadcast(n_cols * sizeof(float));
    }
    auto ds = df::DataSet<CsrRow>::from_handle(engine, rows);
    // The vector is static: cache key 0 on every iteration (one transfer
    // per device for the whole job).
    auto y = mapper(ds, mode, x, /*iteration=*/0, config.gpu_cache);
    if (iter == config.iterations - 1) {
      // Last iteration: pull the result vector to the driver and persist it.
      y_entries = co_await y.collect(job);
      if (config.write_output) {
        const std::string out_path = "/out/spmv-" + std::to_string(n_rows);
        co_await engine.dfs().write(0, out_path, n_rows * sizeof(float));
        job.stats().io_bytes_written += n_rows * sizeof(float);
      }
    } else {
      (void)co_await y.count(job);  // metadata-only action per superstep
    }
    result.run.iterations.push_back(engine.now() - t0);
  }

  finish_run(job, runtime, result.run);
  for (const auto& e : y_entries) {
    if (e.index < 1024) result.run.checksum += e.value;
  }
  co_return result;
}

}  // namespace gflink::workloads::spmv
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
