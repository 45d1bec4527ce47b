// Quickstart: WordCount on GFlink, end to end.
//
// This example shows the whole public API surface on the simplest job:
//   1. describe a record type as a GStruct (zero-serialization layout),
//   2. stand up a simulated heterogeneous cluster (engine + GPU runtime),
//   3. build a DataSet pipeline with a GPU-based operator,
//   4. run it and read results + timing off the virtual clock.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/gdst.hpp"
#include "dataflow/dataset.hpp"
#include "gpu/kernel.hpp"
#include "obs/run_report.hpp"
#include "sim/random.hpp"

namespace df = gflink::dataflow;
namespace core = gflink::core;
namespace gpu = gflink::gpu;
namespace mem = gflink::mem;
namespace obs = gflink::obs;
namespace sim = gflink::sim;

namespace {

// 1. The record: a word occurrence. The descriptor mirrors the struct
//    exactly, so records move through the engine (and onto GPUs) as raw
//    bytes — the paper's GStruct idea.
struct Word {
  std::uint64_t id;     // hashed token
  std::uint64_t count;  // always 1 at the source
};

const mem::StructDesc& word_desc() {
  static const mem::StructDesc d =
      mem::StructDescBuilder("Word", 8)
          .field("id", mem::FieldType::U64, 1, offsetof(Word, id))
          .field("count", mem::FieldType::U64, 1, offsetof(Word, count))
          .build();
  return d;
}

// 2. A CUDA-style kernel: combine word counts within one block. Registered
//    by name, exactly like GFlink resolves PTX functions (GWork.executeName).
void register_kernel() {
  gpu::Kernel k;
  k.name = "quickstartCombine";
  k.cost.flops_per_item = 12.0;                       // hash + probe
  k.cost.dram_bytes_per_item = 2.0 * sizeof(Word);    // read + write
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* in = reinterpret_cast<const Word*>(launch.buffers[0].data());
    auto* out = reinterpret_cast<Word*>(launch.buffers.back().data());
    std::map<std::uint64_t, std::uint64_t> counts;
    for (std::size_t i = 0; i < launch.items; ++i) counts[in[i].id] += in[i].count;
    std::size_t o = 0;
    for (const auto& [id, count] : counts) out[o++] = Word{id, count};
    for (; o < launch.items; ++o) out[o] = Word{~0ULL, 0};  // padding
  };
  gpu::KernelRegistry::global().register_kernel(k);
}

}  // namespace

int main() {
  register_kernel();

  // 3. The cluster: 4 workers, each with 4 CPU cores and 2 Tesla C2050s.
  df::EngineConfig config;
  config.cluster.num_workers = 4;
  df::Engine engine(config);
  core::GpuManagerConfig gpu_config;  // defaults: 2x C2050 per worker
  core::GFlinkRuntime runtime(engine, gpu_config);

  // 4. The driver program — a coroutine over the virtual clock.
  engine.run([&runtime](df::Engine& eng) -> sim::Co<void> {
    df::Job job(eng, "quickstart");
    co_await job.submit();

    // Source: 200k Zipf-distributed words, generated deterministically.
    constexpr std::uint64_t kWords = 200'000;
    auto zipf = std::make_shared<sim::ZipfTable>(10'000, 1.0);
    auto words = df::DataSet<Word>::from_generator(
        eng, &word_desc(), eng.default_parallelism(),
        [zipf](int part, std::vector<Word>& out) {
          for (std::uint64_t i = static_cast<std::uint64_t>(part); i < kWords; i += 16) {
            std::uint64_t h = i * 1000003 + 7;
            const double u = static_cast<double>(sim::splitmix64(h) >> 11) * 0x1.0p-53;
            out.push_back(Word{static_cast<std::uint64_t>(zipf->sample_u(u)), 1});
          }
        });

    // GPU-based pre-combine (gpuMapPartition), then the final reduce.
    core::GpuOpSpec spec;
    spec.kernel = "quickstartCombine";
    spec.ptx_path = "/kernels/quickstart.ptx";
    auto counted =
        core::gpu_dataset_op<Word, Word>(words, &word_desc(), "gpuCombine", spec)
            .filter("dropPadding", df::OpCost{2.0, sizeof(Word)},
                    [](const Word& w) { return w.id != ~0ULL; })
            .reduce_by_key("countWords", df::OpCost{60.0, 2.0 * sizeof(Word)},
                           [](const Word& w) { return w.id; },
                           [](Word& acc, const Word& w) { acc.count += w.count; });

    auto counts = co_await counted.collect(job);
    job.finish();

    std::uint64_t total = 0;
    Word top{0, 0};
    for (const auto& w : counts) {
      total += w.count;
      if (w.count > top.count) top = w;
    }
    std::printf("counted %llu words, %zu distinct\n",
                static_cast<unsigned long long>(total), counts.size());
    std::printf("most frequent word id=%llu appeared %llu times\n",
                static_cast<unsigned long long>(top.id),
                static_cast<unsigned long long>(top.count));
    std::printf("job wall time (virtual): %s\n",
                sim::format_duration(job.stats().total()).c_str());
    std::printf("shuffle volume: %llu bytes over %zu stages\n",
                static_cast<unsigned long long>(job.stats().shuffle_bytes),
                job.stats().stages.size());
  });

  // 5. Observability: snapshot the run's metrics (obs subsystem) and print
  //    the headline numbers every GFlink run is judged by.
  obs::MetricsRegistry snapshot;
  engine.export_metrics(snapshot);
  runtime.export_metrics(snapshot);
  // A hit ratio is hits / (hits + misses), 0 when there were no lookups.
  const auto hit_ratio = [&snapshot](const char* hits, const char* misses) {
    const double h = snapshot.counter_value(hits);
    const double lookups = h + snapshot.counter_value(misses);
    return lookups > 0 ? h / lookups : 0.0;
  };
  std::printf("\n-- metrics summary --\n");
  std::printf("kernels launched:      %.0f\n", snapshot.counter_sum("gpu_kernels_total"));
  std::printf("H2D bytes:             %.0f\n", snapshot.counter_sum("gpu_bytes_h2d_total"));
  std::printf("GPU cache hit ratio:   %.2f\n",
              hit_ratio("gpu_cache_hits_total", "gpu_cache_misses_total"));
  std::printf("locality hit ratio:    %.2f\n",
              hit_ratio("gstream_locality_hits_total", "gstream_locality_misses_total"));
  std::printf("stage busy (h2d/kernel/d2h): %.2f / %.2f / %.2f ms\n",
              snapshot.counter_value("gpu_stage_busy_ns", {{"stage", "h2d"}}) / 1e6,
              snapshot.counter_value("gpu_stage_busy_ns", {{"stage", "kernel"}}) / 1e6,
              snapshot.counter_value("gpu_stage_busy_ns", {{"stage", "d2h"}}) / 1e6);
  std::printf("network bytes:         %.0f\n", snapshot.counter_value("net.bytes"));
  return 0;
}
