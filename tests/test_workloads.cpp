// Tests for the benchmark workloads: CPU-vs-GPU result equivalence,
// convergence behaviour, generator determinism, and run accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <span>

#include "obs/run_report.hpp"
#include "workloads/concomp.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/linreg.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/pointadd.hpp"
#include "workloads/spmv.hpp"
#include "workloads/wordcount.hpp"

namespace sim = gflink::sim;
namespace obs = gflink::obs;
namespace df = gflink::dataflow;
namespace wl = gflink::workloads;
using wl::Mode;
using wl::Testbed;

namespace {

Testbed small_testbed() {
  Testbed tb;
  tb.workers = 3;
  tb.gpus_per_worker = 2;
  tb.scale = 1e-3;
  return tb;
}

/// Series of the GPU runtime's metric families (gpu_*, gstream_*).
std::size_t runtime_series(const obs::MetricsRegistry& m) {
  std::size_t n = 0;
  auto add = [&n](const auto& series) {
    for (const auto& [id, v] : series) {
      n += id.name.rfind("gpu_", 0) == 0 || id.name.rfind("gstream_", 0) == 0 ? 1 : 0;
    }
  };
  add(m.counters());
  add(m.gauges());
  add(m.histograms());
  return n;
}

}  // namespace

// ---- Session ----------------------------------------------------------------

TEST(Session, GflinkModeAttachesTheRuntime) {
  wl::Session cpu(small_testbed(), Mode::Cpu);
  wl::Session gpu(small_testbed(), Mode::Gpu);
  EXPECT_EQ(cpu.runtime(), nullptr);
  EXPECT_NE(gpu.runtime(), nullptr);
}

TEST(Session, ReportIntoSumsVirtualTimeAndKeepsRuntimeMetricsToGflink) {
  wl::Session cpu(small_testbed(), Mode::Cpu);
  wl::Session gpu(small_testbed(), Mode::Gpu);
  wl::pointadd::Config cfg;
  cfg.points = 1'000'000;
  const auto a = cpu.run(&wl::pointadd::run, cfg);
  const auto b = gpu.run(&wl::pointadd::run, cfg);
  EXPECT_EQ(a.run.checksum, b.run.checksum);
  ASSERT_GT(cpu.engine().now(), 0);
  ASSERT_GT(gpu.engine().now(), 0);

  obs::RunReport cpu_only;
  cpu.report_into(cpu_only);
  EXPECT_EQ(cpu_only.virtual_ns, cpu.engine().now());
  EXPECT_EQ(runtime_series(cpu_only.metrics), 0u);

  obs::RunReport both;
  cpu.report_into(both);
  gpu.report_into(both);
  EXPECT_EQ(both.virtual_ns, cpu.engine().now() + gpu.engine().now());
  EXPECT_GT(runtime_series(both.metrics), 0u);
}

// ---- KMeans -----------------------------------------------------------------

TEST(KMeans, CpuAndGpuCentersAgree) {
  auto tb = small_testbed();
  wl::kmeans::Config cfg;
  cfg.points = 4'000'000;  // 4000 scaled
  cfg.iterations = 3;
  cfg.write_output = false;
  auto cpu = wl::run(&wl::kmeans::run, tb, Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::kmeans::run, tb, Mode::Gpu, cfg);
  ASSERT_EQ(cpu.centers.size(), gpu.centers.size());
  for (std::size_t c = 0; c < cpu.centers.size(); ++c) {
    for (int j = 0; j < wl::kDim; ++j) {
      EXPECT_NEAR(cpu.centers[c].x[j], gpu.centers[c].x[j], 1e-2)
          << "center " << c << " dim " << j;
    }
  }
}

TEST(KMeans, CentersConvergeTowardGroundTruth) {
  auto tb = small_testbed();
  wl::kmeans::Config cfg;
  cfg.points = 8'000'000;
  cfg.iterations = 6;
  cfg.write_output = false;
  auto result = wl::run(&wl::kmeans::run, tb, Mode::Cpu, cfg);
  // Ground-truth centers sit near (20c, 20c+eps, ...) per cluster c; after
  // convergence every recovered center must be close to one truth cluster.
  for (const auto& center : result.centers) {
    double best = 1e30;
    for (int truth = 0; truth < wl::kClusters; ++truth) {
      double d = 0;
      for (int j = 0; j < wl::kDim; ++j) {
        const double e = center.x[j] - (truth * 20 + (j % 3));
        d += e * e;
      }
      best = std::min(best, d);
    }
    EXPECT_LT(std::sqrt(best), 2.0);
  }
}

TEST(KMeans, IterationTimesShapeFirstHighMiddleLow) {
  auto tb = small_testbed();
  wl::kmeans::Config cfg;
  cfg.points = 20'000'000;
  cfg.iterations = 5;
  cfg.write_output = true;
  auto result = wl::run(&wl::kmeans::run, tb, Mode::Gpu, cfg);
  ASSERT_EQ(result.run.iterations.size(), 5u);
  // First iteration reads the input: clearly slower than the second.
  EXPECT_GT(result.run.iterations[0], 2 * result.run.iterations[1]);
  // Last iteration writes the clustered output: slower than the middle.
  EXPECT_GT(result.run.iterations[4], result.run.iterations[2]);
}

TEST(KMeans, GpuCacheHitsAfterFirstIteration) {
  wl::Session session(small_testbed(), Mode::Gpu);
  wl::kmeans::Config cfg;
  cfg.points = 4'000'000;
  cfg.iterations = 3;
  cfg.write_output = false;
  (void)session.run(&wl::kmeans::run, cfg);
  EXPECT_GT(session.runtime()->total_cache_hits(), 0u);
}

// ---- LinearRegression ---------------------------------------------------------

TEST(LinReg, CpuAndGpuWeightsAgree) {
  auto tb = small_testbed();
  wl::linreg::Config cfg;
  cfg.samples = 4'000'000;
  cfg.iterations = 3;
  cfg.write_output = false;
  auto cpu = wl::run(&wl::linreg::run, tb, Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::linreg::run, tb, Mode::Gpu, cfg);
  ASSERT_EQ(cpu.weights.size(), gpu.weights.size());
  for (std::size_t j = 0; j < cpu.weights.size(); ++j) {
    EXPECT_NEAR(cpu.weights[j], gpu.weights[j], 1e-9) << "weight " << j;
  }
}

TEST(LinReg, LossDecreasesOverIterations) {
  auto tb = small_testbed();
  wl::linreg::Config cfg;
  cfg.samples = 4'000'000;
  cfg.write_output = false;
  cfg.learning_rate = 0.05;
  // Proxy for loss: distance of learned weights from the generator's
  // ground truth (w_j = (j+1)*0.25, bias 3.0) shrinks with more epochs.
  auto distance = [&](int iters) {
    cfg.iterations = iters;
    auto r = wl::run(&wl::linreg::run, tb, Mode::Cpu, cfg);
    double d = 0;
    for (int j = 0; j < wl::kDim; ++j) {
      const double e = r.weights[static_cast<std::size_t>(j)] - (j + 1) * 0.25;
      d += e * e;
    }
    d += (r.weights[wl::kDim] - 3.0) * (r.weights[wl::kDim] - 3.0);
    return std::sqrt(d);
  };
  EXPECT_LT(distance(8), distance(2));
}

// ---- SpMV ---------------------------------------------------------------------

TEST(Spmv, CpuAndGpuChecksumsAgree) {
  auto tb = small_testbed();
  wl::spmv::Config cfg;
  cfg.matrix_bytes = 64ULL << 20;  // 64 KB scaled
  cfg.iterations = 3;
  cfg.write_output = false;
  auto cpu = wl::run(&wl::spmv::run, tb, Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::spmv::run, tb, Mode::Gpu, cfg);
  EXPECT_EQ(cpu.rows, gpu.rows);
  EXPECT_NEAR(cpu.run.checksum, gpu.run.checksum, 1e-3);
}

TEST(Spmv, MatrixCachedAfterFirstIteration) {
  // The paper's Fig. 7b setup: a single machine (colocated master) with a
  // matrix far larger than the vector.
  auto tb = small_testbed();
  tb.workers = 1;
  wl::Session session(tb, Mode::Gpu);
  wl::spmv::Config cfg;
  cfg.matrix_bytes = 1ULL << 30;  // the paper's 1.0 GB matrix
  cfg.iterations = 4;
  cfg.write_output = false;
  const std::vector<sim::Duration> iters = session.run(&wl::spmv::run, cfg).run.iterations;
  ASSERT_EQ(iters.size(), 4u);
  // Iterations after the first run much faster (matrix cached, no DFS).
  EXPECT_GT(iters[0], 3 * iters[1]);
  EXPECT_GT(session.runtime()->total_cache_hits(), 0u);
}

// ---- PageRank -------------------------------------------------------------------

TEST(PageRank, CpuAndGpuRanksAgree) {
  auto tb = small_testbed();
  wl::pagerank::Config cfg;
  cfg.pages = 2'000'000;
  cfg.iterations = 3;
  cfg.write_output = false;
  auto cpu = wl::run(&wl::pagerank::run, tb, Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::pagerank::run, tb, Mode::Gpu, cfg);
  ASSERT_EQ(cpu.ranks.size(), gpu.ranks.size());
  for (std::size_t i = 0; i < cpu.ranks.size(); ++i) {
    // f32 contributions are summed in different orders by the two paths
    // (different partition counts): bit-exactness is not expected.
    EXPECT_NEAR(cpu.ranks[i], gpu.ranks[i], 1e-8);
  }
}

TEST(PageRank, RanksFormADistribution) {
  auto tb = small_testbed();
  wl::pagerank::Config cfg;
  cfg.pages = 2'000'000;
  cfg.iterations = 5;
  cfg.write_output = false;
  auto r = wl::run(&wl::pagerank::run, tb, Mode::Cpu, cfg);
  for (double rank : r.ranks) {
    EXPECT_GT(rank, 0.0);
    EXPECT_LT(rank, 1.0);
  }
}

TEST(PageRank, ShuffleDominatesNetwork) {
  auto tb = small_testbed();
  wl::pagerank::Config cfg;
  cfg.pages = 2'000'000;
  cfg.iterations = 3;
  cfg.write_output = false;
  auto r = wl::run(&wl::pagerank::run, tb, Mode::Cpu, cfg);
  EXPECT_GT(r.run.stats.shuffle_bytes, 0u);
}

// ---- ConnectedComponents ---------------------------------------------------------

TEST(ConComp, LabelsConvergeToComponents) {
  auto tb = small_testbed();
  wl::concomp::Config cfg;
  cfg.vertices = 2'000'000;
  cfg.components = 16;
  cfg.iterations = 8;
  cfg.write_output = false;
  auto r = wl::run(&wl::concomp::run, tb, Mode::Cpu, cfg);
  EXPECT_EQ(r.distinct_labels, 16u);
}

TEST(ConComp, CpuAndGpuAgree) {
  auto tb = small_testbed();
  wl::concomp::Config cfg;
  cfg.vertices = 2'000'000;
  cfg.components = 8;
  cfg.iterations = 4;
  cfg.write_output = false;
  auto cpu = wl::run(&wl::concomp::run, tb, Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::concomp::run, tb, Mode::Gpu, cfg);
  EXPECT_EQ(cpu.distinct_labels, gpu.distinct_labels);
  EXPECT_EQ(cpu.run.checksum, gpu.run.checksum);
}

// ---- WordCount --------------------------------------------------------------------

TEST(WordCount, CpuAndGpuCountsAgree) {
  auto tb = small_testbed();
  wl::wordcount::Config cfg;
  cfg.text_bytes = 64ULL << 20;  // 64 KB scaled
  cfg.write_output = false;
  auto cpu = wl::run(&wl::wordcount::run, tb, Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::wordcount::run, tb, Mode::Gpu, cfg);
  EXPECT_EQ(cpu.total_words, gpu.total_words);
  EXPECT_EQ(cpu.distinct_words, gpu.distinct_words);
}

TEST(WordCount, CountsEveryGeneratedWord) {
  auto tb = small_testbed();
  wl::wordcount::Config cfg;
  cfg.text_bytes = 64ULL << 20;
  cfg.write_output = false;
  auto r = wl::run(&wl::wordcount::run, tb, Mode::Cpu, cfg);
  const auto bytes = static_cast<std::uint64_t>(static_cast<double>(cfg.text_bytes) * tb.scale);
  EXPECT_EQ(r.total_words, static_cast<std::uint64_t>(bytes / cfg.bytes_per_word));
  EXPECT_GT(r.distinct_words, 100u);
}

TEST(WordCount, ZipfSkewsCounts) {
  auto tb = small_testbed();
  wl::wordcount::Config cfg;
  cfg.text_bytes = 64ULL << 20;
  cfg.write_output = false;
  auto r = wl::run(&wl::wordcount::run, tb, Mode::Cpu, cfg);
  // With Zipf(1.0), the vocabulary is far from exhausted uniformly.
  EXPECT_LT(r.distinct_words, cfg.vocabulary);
}

// ---- PointAdd ---------------------------------------------------------------------

TEST(PointAdd, CpuAndGpuAgree) {
  auto tb = small_testbed();
  wl::pointadd::Config cfg;
  cfg.points = 2'000'000;
  auto cpu = wl::run(&wl::pointadd::run, tb, Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::pointadd::run, tb, Mode::Gpu, cfg);
  EXPECT_EQ(cpu.run.checksum, gpu.run.checksum);
}

TEST(PointAdd, GeneratedSourceMapsInPlaceLikeCpu) {
  // The map's stage owns a generated source, so GFlink mode writes the
  // points over their own storage; they must equal Flink mode's points.
  const auto collect = [](Mode mode) {
    wl::Session session(small_testbed(), mode);
    std::vector<wl::Pt> rows;
    session.engine().run([&](df::Engine& eng) -> sim::Co<void> {
      df::Job job(eng, "pointadd");
      co_await job.submit();
      auto src = df::DataSet<wl::Pt>::from_generator(
          eng, &wl::pt_desc(),
          wl::striped<wl::Pt>(20000, 8, [](std::uint64_t i) { return wl::pointadd::pt_at(i, 7); }));
      rows = co_await wl::pointadd::mapper(src, mode).collect(job);
      job.finish();
      if (session.runtime() != nullptr) session.runtime()->release_job(job.id());
    });
    return rows;
  };
  const std::vector<wl::Pt> cpu = collect(Mode::Cpu);
  const std::vector<wl::Pt> gpu = collect(Mode::Gpu);
  ASSERT_EQ(cpu.size(), 20000u);
  ASSERT_EQ(gpu.size(), cpu.size());
  for (std::size_t i = 0; i < cpu.size(); ++i) {
    ASSERT_EQ(gpu[i].x, cpu[i].x) << i;
    ASSERT_EQ(gpu[i].y, cpu[i].y) << i;
  }
}

// ---- Kernels ----------------------------------------------------------------------

namespace {

/// The records `map(dataset)`, a Flink-mode mapper, yields for gen(0 .. n-1) held in
/// one partition, in index order: the Flink-mode UDF's own output.
template <typename U, typename T, typename Gen, typename Map>
std::vector<U> cpu_udf_records(const gflink::mem::StructDesc* desc, std::uint64_t n, Gen gen,
                               Map map) {
  wl::Session session(small_testbed(), Mode::Cpu);
  std::vector<U> rows;
  session.engine().run([&](df::Engine& eng) -> sim::Co<void> {
    df::Job job(eng, "cpu-udf");
    co_await job.submit();
    auto src = df::DataSet<T>::from_generator(eng, desc, wl::striped<T>(n, 1, gen));
    rows = co_await map(src).collect(job);
    job.finish();
  });
  return rows;
}

template <typename V>
std::span<std::byte> bytes_of(V& v) {
  return std::as_writable_bytes(std::span(v));
}

/// Call the registered kernel `name`'s host function directly, on one
/// block of `items` records bound as [in, aux..., out].
void launch_host_function(const char* name, std::size_t items,
                          std::vector<std::span<std::byte>> buffers) {
  wl::ensure_kernels_registered();
  gflink::gpu::KernelLaunch launch;
  launch.items = items;
  launch.buffers = std::move(buffers);
  gflink::gpu::KernelRegistry::global().lookup(name).fn(launch);
}

/// Every field of every record bit for bit (padding bytes excluded).
template <typename U>
void expect_bit_identical(const gflink::mem::StructDesc& desc, const std::vector<U>& kernel,
                          const std::vector<U>& udf) {
  ASSERT_EQ(kernel.size(), udf.size()) << desc.name();
  for (std::size_t i = 0; i < udf.size(); ++i) {
    const auto* a = reinterpret_cast<const std::byte*>(&kernel[i]);
    const auto* b = reinterpret_cast<const std::byte*>(&udf[i]);
    for (const auto& f : desc.fields()) {
      ASSERT_EQ(std::memcmp(a + f.offset, b + f.offset, f.byte_size()), 0)
          << desc.name() << " record " << i << " field " << f.name;
    }
  }
}

}  // namespace

// Each kernel's host function and its workload's Flink-mode UDF share one
// per-record body, so their results agree bit for bit: element-wise
// kernels record for record, fold kernels with the UDF's records folded in
// index order. (CpuAndGpu*Agree compare whole runs within a tolerance.)
TEST(Kernels, HostFunctionMatchesCpuUdf) {
  constexpr std::uint64_t n = 1000;

  {  // KMeans: cudaKmeansAssign folds kmeansAssign's per-point aggregates.
    const auto gen = [](std::uint64_t i) { return wl::kmeans::point_at(i, 42); };
    auto centers = std::make_shared<std::vector<wl::Point>>();
    for (int c = 0; c < wl::kClusters; ++c) centers->push_back(gen(97 * c + 5));
    const auto udf = cpu_udf_records<wl::ClusterAgg, wl::Point>(
        &wl::point_desc(), n, gen, [&](const df::DataSet<wl::Point>& ds) {
          return wl::kmeans::mapper(ds, Mode::Cpu, centers, 0);
        });
    std::vector<wl::ClusterAgg> folded(wl::kClusters);
    for (int c = 0; c < wl::kClusters; ++c) folded[c].cluster = static_cast<std::uint64_t>(c);
    for (const auto& rec : udf) {
      for (int j = 0; j < wl::kDim; ++j) folded[rec.cluster].sum[j] += rec.sum[j];
      folded[rec.cluster].count += rec.count;
    }
    std::vector<wl::Point> in;
    for (std::uint64_t i = 0; i < n; ++i) in.push_back(gen(i));
    std::vector<wl::ClusterAgg> out(wl::kClusters);
    launch_host_function("cudaKmeansAssign", n, {bytes_of(in), bytes_of(*centers), bytes_of(out)});
    expect_bit_identical(wl::cluster_agg_desc(), out, folded);
  }

  {  // LinReg: cudaLinregGradient folds linregGradient's per-sample terms.
    const auto gen = [](std::uint64_t i) { return wl::linreg::sample_at(i, 11); };
    auto weights = std::make_shared<std::vector<double>>();
    for (int j = 0; j <= wl::kDim; ++j) weights->push_back(0.1 * (j + 1) - 0.7);
    const auto udf = cpu_udf_records<wl::Gradient, wl::Sample>(
        &wl::sample_desc(), n, gen, [&](const df::DataSet<wl::Sample>& ds) {
          return wl::linreg::mapper(ds, Mode::Cpu, weights, 0);
        });
    std::vector<wl::Gradient> folded(1);
    for (const auto& rec : udf) {
      for (int j = 0; j <= wl::kDim; ++j) folded[0].g[j] += rec.g[j];
      folded[0].count += rec.count;
    }
    std::vector<wl::Sample> in;
    for (std::uint64_t i = 0; i < n; ++i) in.push_back(gen(i));
    std::vector<wl::Gradient> out(1);
    launch_host_function("cudaLinregGradient", n,
                         {bytes_of(in), bytes_of(*weights), bytes_of(out)});
    expect_bit_identical(wl::gradient_desc(), out, folded);
  }

  {  // SpMV: cudaSpmvRow against spmvRow, row for row.
    constexpr std::uint64_t cols = 4096;
    const auto gen = [](std::uint64_t i) { return wl::spmv::row_at(i, cols, 5); };
    auto x = std::make_shared<std::vector<float>>();
    for (std::uint64_t c = 0; c < cols; ++c) {
      x->push_back(1.0f + 0.37f * static_cast<float>(c % 11));
    }
    const auto udf = cpu_udf_records<wl::VecEntry, wl::CsrRow>(
        &wl::csr_row_desc(), n, gen, [&](const df::DataSet<wl::CsrRow>& ds) {
          return wl::spmv::mapper(ds, Mode::Cpu, x, 0);
        });
    std::vector<wl::CsrRow> in;
    for (std::uint64_t i = 0; i < n; ++i) in.push_back(gen(i));
    std::vector<wl::VecEntry> out(n);
    launch_host_function("cudaSpmvRow", n, {bytes_of(in), bytes_of(*x), bytes_of(out)});
    expect_bit_identical(wl::vec_entry_desc(), out, udf);
  }

  {  // PageRank: cudaPagerankContrib against pagerankScatter's messages.
    const auto gen = [](std::uint64_t i) { return wl::pagerank::page_at(i, n, 23); };
    auto ranks = std::make_shared<std::vector<float>>();
    for (std::uint64_t i = 0; i < n; ++i) ranks->push_back(1.0f / static_cast<float>(i + 3));
    const auto udf = cpu_udf_records<wl::RankMsg, wl::Page>(
        &wl::page_desc(), n, gen, [&](const df::DataSet<wl::Page>& ds) {
          return wl::pagerank::mapper(ds, Mode::Cpu, ranks, 0);
        });
    std::vector<wl::Page> in;
    for (std::uint64_t i = 0; i < n; ++i) in.push_back(gen(i));
    std::vector<wl::RankMsg> out(n * wl::kOutDegree);
    launch_host_function("cudaPagerankContrib", n, {bytes_of(in), bytes_of(*ranks), bytes_of(out)});
    expect_bit_identical(wl::rank_msg_desc(), out, udf);
  }

  {  // ConComp: cudaConcompMsgs against concompScatter's messages.
    const auto gen = [](std::uint64_t i) { return wl::concomp::vertex_at(i, n, 32, 31); };
    auto labels = std::make_shared<std::vector<std::uint32_t>>();
    for (std::uint64_t i = 0; i < n; ++i) labels->push_back(static_cast<std::uint32_t>(i * 7 % n));
    const auto udf = cpu_udf_records<wl::LabelMsg, wl::Vertex>(
        &wl::vertex_desc(), n, gen, [&](const df::DataSet<wl::Vertex>& ds) {
          return wl::concomp::mapper(ds, Mode::Cpu, labels, 0);
        });
    std::vector<wl::Vertex> in;
    for (std::uint64_t i = 0; i < n; ++i) in.push_back(gen(i));
    std::vector<wl::LabelMsg> out(n * (wl::kOutDegree + 1));
    launch_host_function("cudaConcompMsgs", n, {bytes_of(in), bytes_of(*labels), bytes_of(out)});
    expect_bit_identical(wl::label_msg_desc(), out, udf);
  }

  {  // WordCount: cudaWordcountBlock against the words combined by word in
     // index order, in word order; the tail of the block is padding.
    std::vector<wl::WordCount> in;
    for (std::uint64_t i = 0; i < n; ++i) in.push_back(wl::WordCount{i * i % 97, 1 + i % 3});
    std::map<std::uint64_t, wl::WordCount> combined;
    for (const auto& w : in) {
      auto [it, fresh] = combined.try_emplace(w.word, w);
      if (!fresh) it->second.count += w.count;
    }
    std::vector<wl::WordCount> out(n);
    launch_host_function("cudaWordcountBlock", n, {bytes_of(in), bytes_of(out)});
    std::vector<wl::WordCount> expected;
    for (const auto& [word, w] : combined) expected.push_back(w);
    std::vector<wl::WordCount> counted(out.begin(), out.begin() + combined.size());
    std::sort(counted.begin(), counted.end(),
              [](const wl::WordCount& a, const wl::WordCount& b) { return a.word < b.word; });
    expect_bit_identical(wl::word_count_desc(), counted, expected);
    for (std::size_t o = combined.size(); o < n; ++o) EXPECT_EQ(out[o].word, ~0ULL) << o;
  }

  {  // PointAdd: cudaAddPoint against addPoint, point for point.
    const auto gen = [](std::uint64_t i) { return wl::pointadd::pt_at(i, 3); };
    const auto udf = cpu_udf_records<wl::Pt, wl::Pt>(
        &wl::pt_desc(), n, gen,
        [](const df::DataSet<wl::Pt>& ds) { return wl::pointadd::mapper(ds, Mode::Cpu); });
    std::vector<wl::Pt> in;
    for (std::uint64_t i = 0; i < n; ++i) in.push_back(gen(i));
    std::vector<wl::Pt> out(n);
    launch_host_function("cudaAddPoint", n, {bytes_of(in), bytes_of(out)});
    expect_bit_identical(wl::pt_desc(), out, udf);
  }
}

// ---- Cross-cutting ----------------------------------------------------------------

TEST(Workloads, GeneratorsAreDeterministic) {
  auto a = wl::kmeans::point_at(123456, 42);
  auto b = wl::kmeans::point_at(123456, 42);
  for (int j = 0; j < wl::kDim; ++j) EXPECT_EQ(a.x[j], b.x[j]);
  auto r1 = wl::spmv::row_at(77, 1000, 5);
  auto r2 = wl::spmv::row_at(77, 1000, 5);
  EXPECT_EQ(r1.col[13], r2.col[13]);
  EXPECT_EQ(r1.val[63], r2.val[63]);
  auto p1 = wl::pagerank::page_at(9, 100, 23);
  auto p2 = wl::pagerank::page_at(9, 100, 23);
  EXPECT_EQ(p1.out[7], p2.out[7]);
}

TEST(Workloads, RunsAreDeterministic) {
  auto tb = small_testbed();
  wl::kmeans::Config cfg;
  cfg.points = 2'000'000;
  cfg.iterations = 2;
  cfg.write_output = false;
  auto a = wl::run(&wl::kmeans::run, tb, Mode::Gpu, cfg);
  auto b = wl::run(&wl::kmeans::run, tb, Mode::Gpu, cfg);
  EXPECT_EQ(a.run.total, b.run.total);
  EXPECT_EQ(a.run.checksum, b.run.checksum);
}

// ---- Read-only kernel inputs --------------------------------------------------

namespace {

/// FNV-1a 64 over the record bytes of every partition of `data`.
std::uint64_t record_hash(const df::DataHandle& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& part : data->parts) {
    for (const std::byte b : part.batch->bytes()) {
      h = (h ^ static_cast<std::uint64_t>(b)) * 1099511628211ULL;
    }
  }
  return h;
}

/// Materialize records gen(0..n) in a GFlink-mode session, run
/// map(dataset, iteration) over them for iterations 0 and 1 (the second
/// hits the GPU cache), and check the records hash the same afterwards:
/// kernels read their inputs in place and must not write them.
template <typename T, typename Gen, typename Map>
void expect_gpu_mapper_leaves_input_intact(const gflink::mem::StructDesc* desc, std::uint64_t n,
                                           Gen gen, Map map) {
  wl::Session session(small_testbed(), Mode::Gpu);
  std::uint64_t before = 0, after = 0;
  session.engine().run([&](df::Engine& eng) -> sim::Co<void> {
    df::Job job(eng, "read-only-inputs");
    co_await job.submit();
    const int parts = eng.default_parallelism();
    auto src = df::DataSet<T>::from_generator(eng, desc, wl::striped<T>(n, parts, gen));
    const df::DataHandle data = co_await src.materialize(job);
    before = record_hash(data);
    for (std::uint64_t iteration = 0; iteration < 2; ++iteration) {
      (void)co_await map(df::DataSet<T>::from_handle(eng, data), iteration).count(job);
    }
    after = record_hash(data);
    session.runtime()->release_job(job.id());
    job.finish();
  });
  EXPECT_GT(session.runtime()->total_cache_hits(), 0u);
  EXPECT_EQ(after, before);
}

}  // namespace

TEST(KMeans, GpuMapperLeavesCachedInputIntact) {
  auto centers = std::make_shared<std::vector<wl::Point>>(wl::kClusters);
  for (int c = 0; c < wl::kClusters; ++c) {
    (*centers)[static_cast<std::size_t>(c)] =
        wl::kmeans::point_at(static_cast<std::uint64_t>(c), 1);
  }
  expect_gpu_mapper_leaves_input_intact<wl::Point>(
      &wl::point_desc(), 20'000, [](std::uint64_t i) { return wl::kmeans::point_at(i, 1); },
      [centers](const df::DataSet<wl::Point>& points, std::uint64_t iteration) {
        return wl::kmeans::mapper(points, Mode::Gpu, centers, iteration);
      });
}

TEST(PageRank, GpuMapperLeavesCachedInputIntact) {
  constexpr std::uint64_t kPages = 20'000;
  auto ranks = std::make_shared<std::vector<float>>(kPages, 1.0f / kPages);
  expect_gpu_mapper_leaves_input_intact<wl::Page>(
      &wl::page_desc(), kPages,
      [](std::uint64_t i) { return wl::pagerank::page_at(i, kPages, 23); },
      [ranks](const df::DataSet<wl::Page>& pages, std::uint64_t iteration) {
        return wl::pagerank::mapper(pages, Mode::Gpu, ranks, iteration);
      });
}

// Property sweep: GPU speedup over CPU is positive for the compute-bound
// iterative workloads at every size in a small grid.
class SpeedupProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpeedupProperty, KmeansGpuBeatsCpu) {
  auto tb = small_testbed();
  wl::kmeans::Config cfg;
  cfg.points = GetParam();
  cfg.iterations = 4;
  cfg.write_output = false;
  auto cpu = wl::run(&wl::kmeans::run, tb, Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::kmeans::run, tb, Mode::Gpu, cfg);
  EXPECT_LT(gpu.run.total, cpu.run.total)
      << "points=" << cfg.points << " cpu=" << sim::format_duration(cpu.run.total)
      << " gpu=" << sim::format_duration(gpu.run.total);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpeedupProperty,
                         ::testing::Values(10'000'000ULL, 40'000'000ULL, 100'000'000ULL));
