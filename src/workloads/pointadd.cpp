// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "workloads/pointadd.hpp"

#include "core/gdst.hpp"

namespace gflink::workloads::pointadd {

// Compile-time + static-init layout proof for every mirror this
// translation unit reinterprets batch bytes as (see mem/gstruct.hpp).
GSTRUCT_MIRROR_CHECK(Pt, pt_desc);

namespace {

const df::OpCost kAddCost{60.0, 2.0 * sizeof(Pt)};

// The paper's Algorithm 3.1 body, shared by the Flink UDF and cudaAddPoint.
inline Pt add_point(const Pt& p) { return Pt{p.x + p.y, p.y}; }

}  // namespace

void register_kernels(gpu::KernelRegistry& registry) {
  // Buffers: [points, out(n Pt)].
  gpu::Kernel k;
  k.name = "cudaAddPoint";
  k.preferred_layout = mem::Layout::AoS;  // the paper's example uses AoS
  k.cost.flops_per_item = 2.0;
  k.cost.dram_bytes_per_item = 2.0 * sizeof(Pt);
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* in = reinterpret_cast<const Pt*>(launch.buffers[0].data());
    auto* out = reinterpret_cast<Pt*>(launch.buffers.back().data());
    for (std::size_t i = 0; i < launch.items; ++i) out[i] = add_point(in[i]);
  };
  registry.register_kernel(std::move(k));
}

Pt pt_at(std::uint64_t i, std::uint64_t seed) {
  std::uint64_t h = i * 0x9e3779b97f4a7c15ULL + seed;
  Pt p;
  p.x = static_cast<float>(static_cast<std::int64_t>(h >> 40)) / (1 << 20);
  h = h * 6364136223846793005ULL + 1442695040888963407ULL;
  p.y = static_cast<float>(static_cast<std::int64_t>(h >> 40)) / (1 << 20);
  return p;
}

df::DataSet<Pt> mapper(const df::DataSet<Pt>& points, Mode mode, std::uint64_t /*iteration*/) {
  if (mode == Mode::Cpu) {
    return points.map<Pt>(&pt_desc(), "addPoint", kAddCost,
                          [](const Pt& p) { return add_point(p); });
  }
  ensure_kernels_registered();
  core::GpuOpSpec spec;
  spec.kernel = "cudaAddPoint";
  spec.ptx_path = "/addPoint.ptx";  // the paper's Algorithm 3.1 literal
  spec.layout = mem::Layout::AoS;
  spec.cache_input = true;
  spec.chunkable = true;  // Algorithm 3.1's map is purely element-wise
  spec.cache_namespace = 1;  // static data
  return core::gpu_dataset_op<Pt, Pt>(points, &pt_desc(), "gpuAddPoint", std::move(spec));
}

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config) {
  const auto n = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(config.points) * tb.scale));
  const DriverInput input =
      prepare_input(engine, runtime, mode, config.partitions, "pointadd", n, n * sizeof(Pt));

  Result result;
  df::Job job(engine, "pointadd");
  co_await job.submit();

  auto source = df::DataSet<Pt>::from_generator(
      engine, &pt_desc(),
      striped<Pt>(n, input.partitions,
                  [seed = config.seed](std::uint64_t i) { return pt_at(i, seed); }),
      df::OpCost{8.0, sizeof(Pt)}, input.path);

  df::DataHandle points;
  double sum = 0;
  for (int iter = 0; iter < config.iterations; ++iter) {
    const sim::Time t0 = engine.now();
    if (iter == 0) {
      points = co_await source.materialize(job);
    }
    auto ds = df::DataSet<Pt>::from_handle(engine, points);
    auto added = co_await mapper(ds, mode).materialize(job);
    // Probe: count as the action (the example's driver just runs the map).
    auto handle_ds = df::DataSet<Pt>::from_handle(engine, added);
    sum += static_cast<double>(co_await handle_ds.count(job));
    result.run.iterations.push_back(engine.now() - t0);
  }

  finish_run(job, runtime, result.run);
  result.run.checksum = sum;
  co_return result;
}

}  // namespace gflink::workloads::pointadd
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
