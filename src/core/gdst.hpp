// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// GDST: the GPU-based DataSet programming framework (paper §3.5).
//
// A GPU-based mapper/reducer is expressed as a GpuOpSpec: which kernel to
// invoke, how the data is laid out, whether input blocks should be cached
// on the device, which broadcast (auxiliary) buffers accompany every block,
// and how many output items a block produces. `gpu_map_partition` turns the
// spec into the engine's AsyncPartitionFn: at run time the partition is
// split into page-sized blocks (§5.1 — a GStruct never straddles a page),
// one GWork per block is submitted to the worker's GStreamManager, and each
// block's output is written in place where it stays.
//
// Zero copy: a block's input buffer is a view of the partition's own record
// bytes. Its output buffer is a view of where the block's result stays:
// - If the task owns its input (TaskContext::owns_input), the op's output
//   descriptor is the input's, and every block yields one output record per
//   input record, the output view is the block's own input bytes. Once the
//   last block retires, the output batch takes the partition's storage and
//   the input is left empty: no second batch is allocated.
// - Otherwise it is the block's slot in the output batch, sized once before
//   the first submit. A dataset the caller holds is never written.
// Writing over the input is safe because a kernel reads its inputs in place
// at launch and writes a device buffer, the D2H copies that buffer back only
// after the block's (or chunk's) kernel ran, and no other block reads those
// bytes. The H2D reads the partition and the D2H writes the result where it
// stays; both views are charged to the page budget per block exactly as
// separately allocated block buffers would be, so the model is the same on
// either path.
//
// Note on layouts: block buffers physically hold AoS GStruct bytes (the
// zero-copy representation); GWork.layout declares the access pattern the
// kernel was written for and drives the coalescing term of the device cost
// model. Real layout transforms are available in mem::RecordBatch and are
// exercised by the layout ablation at the batch level.
#pragma once

#include <functional>

#include "core/gpu_manager.hpp"
#include "dataflow/dataset.hpp"

namespace gflink::core {

struct GpuOpSpec {
  std::string kernel;    // executeName registered in the KernelRegistry
  std::string ptx_path;  // carried for fidelity ("/addPoint.ptx")
  mem::Layout layout = mem::Layout::SoA;

  /// Cache input blocks in the per-job GPU cache region (iterative jobs).
  bool cache_input = false;
  /// Distinguishes datasets of one job in cache keys.
  std::uint32_t cache_namespace = 1;

  /// The kernel is element-wise (output items [a,b) depend only on input
  /// items [a,b) plus broadcast buffers): blocks become chunkable GWork and
  /// flow through the intra-GWork chunked pipeline. Block-level reducers
  /// must leave this false.
  bool chunkable = false;

  /// Output items produced by a block of n input items (identity for pure
  /// maps; constant k for block-level reducers).
  std::function<std::size_t(std::size_t)> out_items;

  /// Broadcast buffers shared by all blocks of a task (e.g. the current
  /// KMeans centers). Built once per task. Entries may set `cache`.
  std::function<std::vector<GBuffer>(dataflow::TaskContext&)> make_aux;

  int block_size = 256;      // CUDA threads per block
  std::size_t block_bytes = 0;  // data block size; 0 = the engine page size
};

/// Execute a GPU-based mapPartition over one partition: split into blocks,
/// submit one GWork per block (they pipeline across streams) and await
/// all. Block outputs land in `out` in block order; `in` is left empty if
/// the blocks were written over it (see "Zero copy" above).
sim::Co<void> gpu_map_partition_run(dataflow::TaskContext& ctx, const GpuOpSpec& spec,
                                    mem::RecordBatch& in, mem::RecordBatch& out);

/// Typed facade: build the AsyncPartitionFn for DataSet::async_map_partition.
inline dataflow::AsyncPartitionFn gpu_map_partition(GpuOpSpec spec) {
  auto shared = std::make_shared<GpuOpSpec>(std::move(spec));
  return [shared](dataflow::TaskContext& ctx, mem::RecordBatch& in,
                  mem::RecordBatch& out) -> sim::Co<void> {
    return gpu_map_partition_run(ctx, *shared, in, out);
  };
}

/// Convenience: apply a GPU mapper to a typed dataset (the gpuMapPartition
/// of the paper's programming framework).
template <typename T, typename U>
dataflow::DataSet<U> gpu_dataset_op(const dataflow::DataSet<T>& in,
                                    const mem::StructDesc* out_desc, std::string name,
                                    GpuOpSpec spec) {
  return in.template async_map_partition<U>(out_desc, std::move(name),
                                            gpu_map_partition(std::move(spec)));
}

/// gpuReduce (paper §3.5.2): a block-level GPU reducer — the kernel folds
/// each data block into a single output record; chain a cheap CPU
/// reduce/reduce_by_key after it to combine the per-block partials.
template <typename T, typename U>
dataflow::DataSet<U> gpu_reduce_op(const dataflow::DataSet<T>& in,
                                   const mem::StructDesc* out_desc, std::string name,
                                   GpuOpSpec spec) {
  spec.out_items = [](std::size_t) { return std::size_t{1}; };
  return gpu_dataset_op<T, U>(in, out_desc, std::move(name), std::move(spec));
}

}  // namespace gflink::core
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
