// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "core/gdst.hpp"

#include <deque>
#include <utility>

namespace gflink::core {

namespace {

/// Await the oldest in-flight block. Its output already sits in place (the
/// D2H wrote through the view); dropping the GWork releases the block's page
/// budget. Bounding the in-flight window keeps the task's footprint
/// independent of partition size (and free of budget deadlocks). A named
/// coroutine instead of a capturing lambda (gflint C1); awaited in-scope.
sim::Co<void> retire_oldest_block(std::deque<GWorkPtr>& in_flight) {
  GWorkPtr work = std::move(in_flight.front());
  in_flight.pop_front();
  co_await work->done->wait();
}

}  // namespace

sim::Co<void> gpu_map_partition_run(dataflow::TaskContext& ctx, const GpuOpSpec& spec,
                                    mem::RecordBatch& in, mem::RecordBatch& out) {
  GpuManager& mgr = GpuManager::of(ctx);
  if (in.count() == 0) co_return;
  GFLINK_CHECK_MSG(in.layout() == mem::Layout::AoS, "GDST blocks are built from AoS pages");

  const std::size_t stride = in.desc().stride();
  const std::size_t out_stride = out.desc().stride();
  const std::size_t block_bytes =
      spec.block_bytes > 0 ? spec.block_bytes : ctx.engine().config().page_size;
  // A GStruct must not straddle a page (paper §5.1).
  const std::size_t records_per_block = std::max<std::size_t>(1, block_bytes / stride);
  const std::size_t blocks = (in.count() + records_per_block - 1) / records_per_block;
  const auto block_records = [&](std::size_t b) {
    return std::min(records_per_block, in.count() - b * records_per_block);
  };
  const auto block_out_records = [&](std::size_t n) {
    return spec.out_items ? spec.out_items(n) : n;
  };
  // The output size is known before the first block is submitted. If every
  // block yields one record of the input's type per input record and the
  // task owns its input, each block's D2H lands on the block's own input
  // bytes and `out` takes the partition's storage at the end. Otherwise
  // size `out` once, so each block's D2H lands in its own slot of it.
  bool in_place = ctx.owns_input() && &out.desc() == &in.desc() && out.empty();
  std::size_t next_out = out.count();
  std::size_t total_out = next_out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t n = block_records(b);
    const std::size_t out_records = block_out_records(n);
    in_place = in_place && out_records == n;
    total_out += out_records;
  }
  if (!in_place) out.resize(total_out);

  // Task-level shared piece: the broadcast buffers.
  std::vector<GBuffer> aux =
      spec.make_aux ? spec.make_aux(ctx) : std::vector<GBuffer>{};

  mem::MemoryManager& memory = ctx.worker_state().memory();

  // Block buffers are views of `in` or `out`, so no block may outlive this
  // call. Every exit path below retires every submitted block: nothing
  // between a submit and the final drain throws (only the engine's
  // work_delay raises TaskFailed, and it is not called here).
  std::deque<GWorkPtr> in_flight;
  const std::size_t window = std::max<std::size_t>(
      16, 4 * static_cast<std::size_t>(mgr.num_devices() * mgr.streams().streams_per_gpu()));

  // Producer: assemble and submit one GWork per block. Submission does not
  // wait, so blocks pipeline through the GStreamManager's streams.
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * records_per_block;
    const std::size_t n = block_records(b);
    const std::size_t in_bytes = n * stride;
    const std::size_t out_records = block_out_records(n);
    const std::size_t out_bytes = out_records * out_stride;

    // The input block is the partition's own off-heap page (zero copy).
    // Kernels read it at launch and write a device buffer; only the D2H,
    // after the block's (or chunk's) kernel ran, may write over it in place.
    std::byte* const in_ptr = in.record_ptr(first);
    mem::HBufferPtr in_buf = co_await memory.view(in_ptr, in_bytes, in_bytes);
    std::byte* const out_ptr = in_place ? in_ptr : out.bytes().data() + next_out * out_stride;
    mem::HBufferPtr out_buf =
        co_await memory.view(out_ptr, out_bytes, std::max<std::size_t>(out_bytes, 1));
    next_out += out_records;

    auto work = std::make_shared<GWork>();
    work->execute_name = spec.kernel;
    work->ptx_path = spec.ptx_path;
    work->layout = spec.layout;
    work->size = n;
    work->block_size = spec.block_size;
    work->job_id = ctx.job().id();
    work->tenant = ctx.job().tenant();
    work->span = ctx.span();
    work->chunkable = spec.chunkable;
    GBuffer in_binding;
    in_binding.host = std::move(in_buf);
    in_binding.bytes = in_bytes;
    in_binding.cache = spec.cache_input;
    in_binding.cache_key = make_cache_key(spec.cache_namespace,
                                          static_cast<std::uint32_t>(ctx.partition()),
                                          static_cast<std::uint32_t>(b));
    in_binding.item_stride = stride;  // records never split across chunks
    work->inputs.push_back(std::move(in_binding));
    // Broadcast buffers stay indivisible (item_stride 0 as built by
    // make_aux): kernels index them absolutely.
    for (const GBuffer& a : aux) work->inputs.push_back(a);
    GBuffer out_binding;
    out_binding.host = std::move(out_buf);
    out_binding.bytes = out_bytes;
    // Element-wise ops produce a fixed number of output records per input
    // item; expose that as the output stride so chunks stay element-aligned.
    if (spec.chunkable && out_records >= n && out_records % n == 0) {
      out_binding.item_stride = (out_records / n) * out_stride;
    }
    work->outputs.push_back(std::move(out_binding));

    mgr.streams().submit(work);
    in_flight.push_back(std::move(work));
    if (in_flight.size() >= window) {
      co_await retire_oldest_block(in_flight);
    }
  }
  while (!in_flight.empty()) {
    co_await retire_oldest_block(in_flight);
  }
  // Every block's output now sits on its input bytes: the output batch
  // takes the partition's storage, and the consumed input is left empty.
  if (in_place) std::swap(in, out);
}

}  // namespace gflink::core
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
