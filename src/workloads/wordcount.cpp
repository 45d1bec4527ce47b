// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "workloads/wordcount.hpp"

#include <unordered_map>

#include "core/gdst.hpp"
#include "sim/random.hpp"

namespace gflink::workloads::wordcount {

// Compile-time + static-init layout proof for every mirror this
// translation unit reinterprets batch bytes as (see mem/gstruct.hpp).
GSTRUCT_MIRROR_CHECK(WordCount, word_count_desc);

namespace {

// Tokenization cost is charged at the source. The count combine pays JVM
// string/Tuple2 handling on original Flink, raw GStruct bytes on GFlink.
const df::OpCost kCountCostCpu{400.0, 2.0 * sizeof(WordCount)};
const df::OpCost kCountCostGpu{310.0, 2.0 * sizeof(WordCount)};

// The count body, shared by the reduce in both modes and by
// cudaWordcountBlock's per-block combine: records of one word add up.
constexpr auto word_key = [](const WordCount& w) { return w.word; };
constexpr auto add_count = [](WordCount& acc, const WordCount& w) { acc.count += w.count; };

// Fills the tail of a combined block's output (never a hashed word).
constexpr std::uint64_t kPadding = ~0ULL;

}  // namespace

void register_kernels(gpu::KernelRegistry& registry) {
  // Per-block combine. Buffers: [words, out(n WordCount, padded with
  // word = kPadding)].
  gpu::Kernel k;
  k.name = "cudaWordcountBlock";
  k.preferred_layout = mem::Layout::SoA;
  k.cost.flops_per_item = 12.0;  // hash + probe
  k.cost.dram_bytes_per_item = 2.0 * sizeof(WordCount);
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* in = reinterpret_cast<const WordCount*>(launch.buffers[0].data());
    auto* out = reinterpret_cast<WordCount*>(launch.buffers.back().data());
    std::unordered_map<std::uint64_t, WordCount> counts;
    counts.reserve(launch.items);
    for (std::size_t i = 0; i < launch.items; ++i) {
      auto [it, fresh] = counts.try_emplace(word_key(in[i]), in[i]);
      if (!fresh) add_count(it->second, in[i]);
    }
    std::size_t o = 0;
    for (const auto& entry : counts) out[o++] = entry.second;
    for (; o < launch.items; ++o) out[o] = WordCount{kPadding, 0};
  };
  registry.register_kernel(std::move(k));
}

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config) {
  const auto bytes = static_cast<std::uint64_t>(static_cast<double>(config.text_bytes) * tb.scale);
  const auto n_words =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     static_cast<double>(bytes) / config.bytes_per_word));
  const DriverInput input =
      prepare_input(engine, runtime, mode, config.partitions, "wordcount", bytes, bytes);

  Result result;
  df::Job job(engine, "wordcount");
  co_await job.submit();

  // Shared Zipf table (deterministic; sampling is per-partition seeded).
  auto zipf = std::make_shared<sim::ZipfTable>(config.vocabulary, config.zipf_s);

  auto words = df::DataSet<WordCount>::from_generator(
      engine, &word_count_desc(),
      // Word choice depends only on the global token index.
      striped<WordCount>(n_words, input.partitions,
                         [zipf, seed = config.seed](std::uint64_t i) {
                           std::uint64_t h = i * 1000003 + seed;
                           const double u =
                               static_cast<double>(sim::splitmix64(h) >> 11) * 0x1.0p-53;
                           return WordCount{static_cast<std::uint64_t>(zipf->sample_u(u)), 1};
                         }),
      // Tokenizing ~12 bytes of text per record: split + hash (JVM string
      // handling dominates WordCount's CPU cost).
      df::OpCost{120.0, 24.0}, input.path);

  if (mode == Mode::Gpu) {
    // Each block is combined on the GPU first; its padding is dropped
    // before the reduce.
    ensure_kernels_registered();
    core::GpuOpSpec spec;
    spec.kernel = "cudaWordcountBlock";
    spec.ptx_path = "/kernels/wordcount.ptx";
    spec.layout = mem::Layout::SoA;
    // One pass: caching buys nothing (the paper's stated reason WordCount
    // barely speeds up).
    spec.cache_input = false;
    words = core::gpu_dataset_op<WordCount, WordCount>(words, &word_count_desc(),
                                                       "gpuWordcountBlock", std::move(spec))
                .filter("dropPadding", df::OpCost{2.0, sizeof(WordCount)},
                        [](const WordCount& w) { return w.word != kPadding; });
  }
  auto counted = words.reduce_by_key("wordcountReduce",
                                     mode == Mode::Cpu ? kCountCostCpu : kCountCostGpu, word_key,
                                     add_count);

  auto counts = co_await counted.collect(job);
  result.total_words = 0;
  for (const auto& w : counts) result.total_words += w.count;
  result.distinct_words = counts.size();

  if (config.write_output) {
    const std::string out_path = "/out/wordcount";
    co_await engine.dfs().write(0, out_path, counts.size() * sizeof(WordCount));
    job.stats().io_bytes_written += counts.size() * sizeof(WordCount);
  }

  finish_run(job, runtime, result.run);
  result.run.iterations.push_back(result.run.total);
  result.run.checksum =
      static_cast<double>(result.total_words) + static_cast<double>(result.distinct_words);
  co_return result;
}

}  // namespace gflink::workloads::wordcount
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
