// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "workloads/pagerank.hpp"

#include <algorithm>

#include "core/gdst.hpp"

namespace gflink::workloads::pagerank {

// Compile-time + static-init layout proof for every mirror this
// translation unit reinterprets batch bytes as (see mem/gstruct.hpp).
GSTRUCT_MIRROR_CHECK(Page, page_desc);
GSTRUCT_MIRROR_CHECK(RankMsg, rank_msg_desc);

namespace {

// Scatter UDF: 8 emitted tuples per page; on the JVM every emission boxes a
// Tuple2 and serializes it toward the shuffle (~18 us/page total).
const df::OpCost kScatterCost{8300.0, sizeof(Page) + kOutDegree * sizeof(RankMsg)};
// Message combine: on original Flink each message is deserialized, keyed
// and reserialized (~1.5 us); with GFlink's GStruct representation the
// combine runs over raw off-heap bytes (paper SS4) at a fraction of that.
const df::OpCost kCombineCostCpu{900.0, 2.0 * sizeof(RankMsg)};
const df::OpCost kCombineCostGpu{60.0, 2.0 * sizeof(RankMsg)};

// The scatter body, shared by the Flink UDF and cudaPagerankContrib: page
// `p` emits rank/out-degree to each of its kOutDegree targets.
template <typename Emit>
inline void scatter(const Page& p, const float* ranks, Emit&& emit) {
  const float share = ranks[p.id] / kOutDegree;
  for (int j = 0; j < kOutDegree; ++j) {
    emit(RankMsg{static_cast<std::uint32_t>(p.out[j]), share});
  }
}

}  // namespace

void register_kernels(gpu::KernelRegistry& registry) {
  // Rank contributions. Buffers: [pages, ranks(dense floats),
  // out(kOutDegree per page)].
  gpu::Kernel k;
  k.name = "cudaPagerankContrib";
  k.preferred_layout = mem::Layout::SoA;
  k.cost.flops_per_item = 4.0 * kOutDegree;
  k.cost.dram_bytes_per_item = sizeof(Page) + sizeof(RankMsg) * kOutDegree;
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* pages = reinterpret_cast<const Page*>(launch.buffers[0].data());
    const auto* ranks = reinterpret_cast<const float*>(launch.buffers[1].data());
    auto* out = reinterpret_cast<RankMsg*>(launch.buffers.back().data());
    for (std::size_t i = 0; i < launch.items; ++i) {
      scatter(pages[i], ranks, [&out](const RankMsg& m) { *out++ = m; });
    }
  };
  registry.register_kernel(std::move(k));
}

Page page_at(std::uint64_t id, std::uint64_t n, std::uint64_t seed, int zipf_shift) {
  Page p;
  p.id = id;
  std::uint64_t h = id * 0x9e3779b97f4a7c15ULL + seed;
  for (int j = 0; j < kOutDegree; ++j) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t range = n;
    if (zipf_shift > 0) {
      // Zipf-like hot-page skew in pure integer math (determinism): a
      // geometric(1/2) level drawn from the hash's low bits shrinks the
      // target range by zipf_shift bits per level, piling link mass onto
      // low page ids with power-law-ish frequencies.
      int level = 0;
      std::uint64_t g = h;
      while ((g & 1) != 0 && level < 20) {
        g >>= 1;
        ++level;
      }
      const int shift = std::min(level * zipf_shift, 48);
      range = std::max<std::uint64_t>(1, n >> shift);
    }
    p.out[j] = (h >> 16) % range;
  }
  return p;
}

df::DataSet<RankMsg> mapper(const df::DataSet<Page>& pages, Mode mode,
                            std::shared_ptr<std::vector<float>> ranks,
                            std::uint64_t iteration) {
  if (mode == Mode::Cpu) {
    return pages.flat_map<RankMsg>(
        &rank_msg_desc(), "pagerankScatter", kScatterCost,
        [ranks](const Page& p, df::FlatCollector<RankMsg>& out) {
          scatter(p, ranks->data(), [&out](const RankMsg& m) { out.add(m); });
        });
  }
  ensure_kernels_registered();
  core::GpuOpSpec spec;
  spec.kernel = "cudaPagerankContrib";
  spec.ptx_path = "/kernels/pagerank.ptx";
  spec.layout = mem::Layout::SoA;
  spec.cache_input = true;  // the adjacency is static
  spec.chunkable = true;    // contributions are element-wise per page
  spec.cache_namespace = 1;
  spec.out_items = [](std::size_t n) { return n * kOutDegree; };
  spec.make_aux = broadcast_aux(std::move(ranks), iteration);
  return core::gpu_dataset_op<Page, RankMsg>(pages, &rank_msg_desc(), "gpuPagerankScatter",
                                             std::move(spec));
}

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config) {
  const auto n = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(config.pages) * tb.scale));
  const DriverInput input =
      prepare_input(engine, runtime, mode, config.partitions, "pagerank", n, n * sizeof(Page));

  Result result;
  auto ranks = std::make_shared<std::vector<float>>(
      n, static_cast<float>(1.0 / static_cast<double>(n)));

  df::Job job(engine, "pagerank");
  co_await job.submit();

  auto source = df::DataSet<Page>::from_generator(
      engine, &page_desc(),
      striped<Page>(n, input.partitions,
                    [n, seed = config.seed, zipf = config.zipf_shift](std::uint64_t i) {
                      return page_at(i, n, seed, zipf);
                    }),
      df::OpCost{10.0, sizeof(Page)}, input.path);

  df::DataHandle pages;
  for (int iter = 0; iter < config.iterations; ++iter) {
    const sim::Time t0 = engine.now();
    if (iter == 0) {
      pages = co_await source.materialize(job);
    }
    auto ds = df::DataSet<Page>::from_handle(engine, pages);
    auto sums = mapper(ds, mode, ranks, static_cast<std::uint64_t>(iter))
                    .reduce_by_key("pagerankReduce",
                                   mode == Mode::Cpu ? kCombineCostCpu : kCombineCostGpu,
                                   [](const RankMsg& m) { return m.page; },
                                   [](RankMsg& acc, const RankMsg& m) { acc.rank += m.rank; });
    auto contributions = co_await sums.collect(job);
    const float base = static_cast<float>((1.0 - config.damping) / static_cast<double>(n));
    std::fill(ranks->begin(), ranks->end(), base);
    for (const auto& c : contributions) {
      (*ranks)[c.page] = base + static_cast<float>(config.damping) * c.rank;
    }
    co_await engine.broadcast(n * sizeof(float));

    if (iter == config.iterations - 1 && config.write_output) {
      const std::string out_path = "/out/pagerank-" + std::to_string(n);
      co_await engine.dfs().write(0, out_path, n * sizeof(float));
      job.stats().io_bytes_written += n * sizeof(float);
    }
    result.run.iterations.push_back(engine.now() - t0);
  }

  finish_run(job, runtime, result.run);
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(n, 64); ++i) {
    result.ranks.push_back((*ranks)[i]);
    result.run.checksum += (*ranks)[i];
  }
  co_return result;
}

}  // namespace gflink::workloads::pagerank
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
