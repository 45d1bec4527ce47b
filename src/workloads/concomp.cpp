// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "workloads/concomp.hpp"

#include <set>

#include "core/gdst.hpp"

namespace gflink::workloads::concomp {

// Compile-time + static-init layout proof for every mirror this
// translation unit reinterprets batch bytes as (see mem/gstruct.hpp).
GSTRUCT_MIRROR_CHECK(Vertex, vertex_desc);
GSTRUCT_MIRROR_CHECK(LabelMsg, label_msg_desc);

namespace {

// 9 emitted tuples per vertex with JVM boxing/serialization (~26 us, Flink coGroup machinery).
const df::OpCost kScatterCost{11400.0,
                              sizeof(Vertex) + (kOutDegree + 1) * sizeof(LabelMsg)};
// min() combine: dominated by (de)serialization on original Flink; raw
// GStruct bytes under GFlink.
const df::OpCost kMinCostCpu{1350.0, 2.0 * sizeof(LabelMsg)};
const df::OpCost kMinCostGpu{60.0, 2.0 * sizeof(LabelMsg)};

// The scatter body, shared by the Flink UDF and cudaConcompMsgs: vertex `v`
// offers its label to itself and to each of its kOutDegree neighbours.
template <typename Emit>
inline void scatter(const Vertex& v, const std::uint32_t* labels, Emit&& emit) {
  const std::uint32_t own = labels[v.id];
  emit(LabelMsg{static_cast<std::uint32_t>(v.id), own});
  for (int j = 0; j < kOutDegree; ++j) {
    emit(LabelMsg{static_cast<std::uint32_t>(v.neighbour[j]), own});
  }
}

}  // namespace

void register_kernels(gpu::KernelRegistry& registry) {
  // Label messages. Buffers: [vertices, labels(dense u32),
  // out((kOutDegree+1) per vertex)].
  gpu::Kernel k;
  k.name = "cudaConcompMsgs";
  k.preferred_layout = mem::Layout::SoA;
  k.cost.flops_per_item = 2.0 * (kOutDegree + 1);
  k.cost.dram_bytes_per_item = sizeof(Vertex) + sizeof(LabelMsg) * (kOutDegree + 1);
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* verts = reinterpret_cast<const Vertex*>(launch.buffers[0].data());
    const auto* labels = reinterpret_cast<const std::uint32_t*>(launch.buffers[1].data());
    auto* out = reinterpret_cast<LabelMsg*>(launch.buffers.back().data());
    for (std::size_t i = 0; i < launch.items; ++i) {
      scatter(verts[i], labels, [&out](const LabelMsg& m) { *out++ = m; });
    }
  };
  registry.register_kernel(std::move(k));
}

Vertex vertex_at(std::uint64_t id, std::uint64_t n, std::uint64_t components,
                 std::uint64_t seed) {
  // Vertices are striped over `components`; edges stay within a component
  // (vertex ids congruent modulo `components`), so the ground truth is
  // exactly `components` labels.
  Vertex v;
  v.id = id;
  const std::uint64_t comp = id % components;
  const std::uint64_t per = (n + components - 1) / components;
  std::uint64_t h = id * 0x9e3779b97f4a7c15ULL + seed;
  for (int j = 0; j < kOutDegree; ++j) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t k = (h >> 16) % per;
    std::uint64_t target = comp + k * components;
    if (target >= n) target = comp;  // clamp into the component
    v.neighbour[j] = target;
  }
  return v;
}

df::DataSet<LabelMsg> mapper(const df::DataSet<Vertex>& vertices, Mode mode,
                             std::shared_ptr<std::vector<std::uint32_t>> labels,
                             std::uint64_t iteration) {
  if (mode == Mode::Cpu) {
    return vertices.flat_map<LabelMsg>(
        &label_msg_desc(), "concompScatter", kScatterCost,
        [labels](const Vertex& v, df::FlatCollector<LabelMsg>& out) {
          scatter(v, labels->data(), [&out](const LabelMsg& m) { out.add(m); });
        });
  }
  ensure_kernels_registered();
  core::GpuOpSpec spec;
  spec.kernel = "cudaConcompMsgs";
  spec.ptx_path = "/kernels/concomp.ptx";
  spec.layout = mem::Layout::SoA;
  spec.cache_input = true;
  spec.chunkable = true;  // label messages are element-wise per vertex
  spec.cache_namespace = 1;
  spec.out_items = [](std::size_t n) { return n * (kOutDegree + 1); };
  spec.make_aux = broadcast_aux(std::move(labels), iteration);
  return core::gpu_dataset_op<Vertex, LabelMsg>(vertices, &label_msg_desc(), "gpuConcompScatter",
                                                std::move(spec));
}

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config) {
  const auto n = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(config.vertices) * tb.scale));
  const std::uint64_t components = std::min(config.components, n);
  const DriverInput input =
      prepare_input(engine, runtime, mode, config.partitions, "concomp", n, n * sizeof(Vertex));

  Result result;
  auto labels = std::make_shared<std::vector<std::uint32_t>>(n);
  for (std::uint64_t i = 0; i < n; ++i) (*labels)[i] = static_cast<std::uint32_t>(i);

  df::Job job(engine, "concomp");
  co_await job.submit();

  auto source = df::DataSet<Vertex>::from_generator(
      engine, &vertex_desc(),
      striped<Vertex>(n, input.partitions,
                      [n, components, seed = config.seed](std::uint64_t i) {
                        return vertex_at(i, n, components, seed);
                      }),
      df::OpCost{10.0, sizeof(Vertex)}, input.path);

  df::DataHandle vertices;
  for (int iter = 0; iter < config.iterations; ++iter) {
    const sim::Time t0 = engine.now();
    if (iter == 0) {
      vertices = co_await source.materialize(job);
    }
    auto ds = df::DataSet<Vertex>::from_handle(engine, vertices);
    auto mins = mapper(ds, mode, labels, static_cast<std::uint64_t>(iter))
                    .reduce_by_key("concompReduce",
                                   mode == Mode::Cpu ? kMinCostCpu : kMinCostGpu,
                                   [](const LabelMsg& m) { return m.vertex; },
                                   [](LabelMsg& acc, const LabelMsg& m) {
                                     acc.label = std::min(acc.label, m.label);
                                   });
    auto updates = co_await mins.collect(job);
    for (const auto& u : updates) {
      (*labels)[u.vertex] = std::min((*labels)[u.vertex], u.label);
    }
    co_await engine.broadcast(n * sizeof(std::uint32_t));

    if (iter == config.iterations - 1 && config.write_output) {
      const std::string out_path = "/out/concomp-" + std::to_string(n);
      co_await engine.dfs().write(0, out_path, n * sizeof(std::uint32_t));
      job.stats().io_bytes_written += n * sizeof(std::uint32_t);
    }
    result.run.iterations.push_back(engine.now() - t0);
  }

  finish_run(job, runtime, result.run);
  std::set<std::uint32_t> distinct(labels->begin(), labels->end());
  result.distinct_labels = distinct.size();
  result.run.checksum = static_cast<double>(result.distinct_labels);
  co_return result;
}

}  // namespace gflink::workloads::concomp
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
