// Ablation — the three-stage pipelining execution model (paper §5).
//
// A GStreamManager-level microbenchmark: a batch of identical GWorks whose
// kernel time roughly equals their H2D transfer time (the regime where
// overlap matters most) is pushed through 1..8 streams per GPU on one
// C2050. With a single stream the three stages serialize
// (H2D -> K -> D2H per block); with multiple streams block i+1's transfer
// overlaps block i's kernel, approaching max(total H2D, total K) instead
// of their sum.
//
// Expected: ~1.6-1.9x gain from 1 -> 4 streams, flat beyond that (the
// copy engine saturates).
//
// A second sweep ablates the *intra-GWork* chunked pipeline on a single
// stream (so cross-stream overlap cannot help): each GWork is split into
// chunks driven through the device staging ring, H2D(i+1) ‖ kernel(i) ‖
// D2H(i-1). tools/bench_gate.py renders the recorded gauges into the
// EXPERIMENTS.md chunk-size table.
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include "core/gmemory_manager.hpp"
#include "core/gstream_manager.hpp"
#include "gpu/api.hpp"
#include "sim/simulation.hpp"

namespace {

namespace sim = gflink::sim;
namespace gpu = gflink::gpu;
namespace mem = gflink::mem;
namespace core = gflink::core;
using gflink::obs::Metric;

constexpr std::uint64_t kBlockBytes = 4ULL << 20;
constexpr int kBlocks = 64;

void ensure_balanced_kernel() {
  static const bool once = [] {
    gpu::Kernel k;
    k.name = "ablation_balanced";
    // Tuned so kernel time ~= H2D time on a C2050 (2.97 GB/s PCIe,
    // ~227 GFLOP/s sustained): flops/byte ~= 227/2.97 ~= 76.
    k.cost.flops_per_item = 76.0;
    k.cost.dram_bytes_per_item = 1.0;
    k.fn = [](gpu::KernelLaunch&) {};
    gpu::KernelRegistry::global().register_kernel(k);
    return true;
  }();
  (void)once;
}

double run_with_streams(int streams) {
  ensure_balanced_kernel();
  sim::Simulation s;
  gpu::GpuDevice device(s, "gpu0", gpu::DeviceSpec::c2050());
  gpu::CudaStub stub(device);
  gpu::CudaWrapper wrapper(stub);
  core::GMemoryManager memory({&device}, 1 << 20, core::CachePolicy::Fifo);
  core::GStreamConfig cfg;
  cfg.streams_per_gpu = streams;
  core::GStreamManager manager(s, {&wrapper}, memory, cfg);
  mem::AddressSpace addresses;

  sim::WaitGroup wg(s);
  std::vector<core::GWorkPtr> works;
  for (int b = 0; b < kBlocks; ++b) {
    auto in = std::make_shared<mem::HBuffer>(kBlockBytes, addresses.allocate(kBlockBytes));
    in->set_pinned(true);
    auto out = std::make_shared<mem::HBuffer>(64, addresses.allocate(64));
    out->set_pinned(true);
    auto work = std::make_shared<core::GWork>();
    work->execute_name = "ablation_balanced";
    work->size = kBlockBytes;  // one "item" per byte, matching the cost model
    core::GBuffer ib;
    ib.host = in;
    ib.bytes = kBlockBytes;
    work->inputs.push_back(ib);
    core::GBuffer ob;
    ob.host = out;
    ob.bytes = 64;
    work->outputs.push_back(ob);
    works.push_back(work);
    wg.add();
    s.spawn([](core::GStreamManager& gs, core::GWorkPtr w, sim::WaitGroup& join) -> sim::Co<void> {
      co_await gs.run(w);
      join.done();
    }(manager, work, wg));
  }
  sim::Time end = 0;
  s.spawn([](sim::WaitGroup& join, sim::Simulation& sm, sim::Time& out) -> sim::Co<void> {
    co_await join.wait();
    out = sm.now();
  }(wg, s, end));
  s.run();
  gflink::bench::bench_report().virtual_ns += s.now();
  return sim::to_seconds(end);
}

struct ChunkRun {
  double seconds = 0;
  double overlap_efficiency = 0;
  std::size_t chunks_per_work = 1;
};

// Same balanced workload, one stream per GPU, symmetric input/output volume
// (both copy engines active) — the regime the staging ring targets.
ChunkRun run_with_chunks(std::uint64_t chunk_bytes) {
  ensure_balanced_kernel();
  sim::Simulation s;
  gpu::GpuDevice device(s, "gpu0", gpu::DeviceSpec::c2050());
  gpu::CudaStub stub(device);
  gpu::CudaWrapper wrapper(stub);
  core::GMemoryManager memory({&device}, 1 << 20, core::CachePolicy::Fifo);
  core::GStreamConfig cfg;
  cfg.streams_per_gpu = 1;  // isolate intra-GWork overlap from cross-stream overlap
  cfg.chunk_bytes = chunk_bytes;
  core::GStreamManager manager(s, {&wrapper}, memory, cfg);
  mem::AddressSpace addresses;

  sim::WaitGroup wg(s);
  std::vector<core::GWorkPtr> works;
  for (int b = 0; b < kBlocks; ++b) {
    auto in = std::make_shared<mem::HBuffer>(kBlockBytes, addresses.allocate(kBlockBytes));
    in->set_pinned(true);
    auto out = std::make_shared<mem::HBuffer>(kBlockBytes, addresses.allocate(kBlockBytes));
    out->set_pinned(true);
    auto work = std::make_shared<core::GWork>();
    work->execute_name = "ablation_balanced";
    work->size = kBlockBytes;  // one "item" per byte, matching the cost model
    work->chunkable = true;
    core::GBuffer ib;
    ib.host = in;
    ib.bytes = kBlockBytes;
    ib.item_stride = 1;
    work->inputs.push_back(ib);
    core::GBuffer ob;
    ob.host = out;
    ob.bytes = kBlockBytes;
    ob.item_stride = 1;
    work->outputs.push_back(ob);
    works.push_back(work);
    wg.add();
    s.spawn([](core::GStreamManager& gs, core::GWorkPtr w, sim::WaitGroup& join) -> sim::Co<void> {
      co_await gs.run(w);
      join.done();
    }(manager, work, wg));
  }
  sim::Time end = 0;
  s.spawn([](sim::WaitGroup& join, sim::Simulation& sm, sim::Time& out) -> sim::Co<void> {
    co_await join.wait();
    out = sm.now();
  }(wg, s, end));
  s.run();
  gflink::bench::bench_report().virtual_ns += s.now();

  ChunkRun r;
  r.seconds = sim::to_seconds(end);
  r.overlap_efficiency = device.overlap_efficiency();
  r.chunks_per_work = works.front()->executed_chunks;
  return r;
}

std::string chunk_key(std::uint64_t chunk_bytes) {
  if (chunk_bytes == 0) return "monolithic";
  if (chunk_bytes >= 1 << 20) return std::to_string(chunk_bytes >> 20) + "MB";
  return std::to_string(chunk_bytes >> 10) + "KB";
}

void Ablation_ChunkedPipeline(benchmark::State& state) {
  const auto chunk_bytes = static_cast<std::uint64_t>(state.range(0));
  static double monolithic_baseline = 0;
  for (auto _ : state) {
    const ChunkRun r = run_with_chunks(chunk_bytes);
    if (chunk_bytes == 0) monolithic_baseline = r.seconds;
    state.SetIterationTime(r.seconds);
    state.counters["makespan_s"] = r.seconds;
    state.counters["overlap_eff"] = r.overlap_efficiency;
    if (monolithic_baseline > 0) {
      state.counters["gain_vs_monolithic"] = monolithic_baseline / r.seconds;
    }
    const std::string key = chunk_key(chunk_bytes);
    auto& rep = gflink::bench::bench_report();
    rep.metrics.gauge(Metric::AblationPipelineSeconds, {{"chunk", key}}).set(r.seconds);
    rep.metrics.gauge(Metric::AblationPipelineOverlapEfficiency, {{"chunk", key}})
        .set(r.overlap_efficiency);
    rep.metrics.gauge(Metric::AblationPipelineChunksPerWork, {{"chunk", key}})
        .set(static_cast<double>(r.chunks_per_work));
    if (monolithic_baseline > 0) {
      rep.metrics.gauge(Metric::AblationPipelineGain, {{"chunk", key}})
          .set(monolithic_baseline / r.seconds);
    }
  }
  state.SetLabel("chunk=" + chunk_key(chunk_bytes));
}
BENCHMARK(Ablation_ChunkedPipeline)
    ->Arg(0)                 // monolithic baseline
    ->Arg(256 << 10)
    ->Arg(1 << 20)
    ->Arg(4 << 20)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

void Ablation_Pipeline(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  static double serial_baseline = 0;
  for (auto _ : state) {
    const double seconds = run_with_streams(streams);
    if (streams == 1) serial_baseline = seconds;
    state.SetIterationTime(seconds);
    state.counters["makespan_s"] = seconds;
    if (serial_baseline > 0) state.counters["gain_vs_serial"] = serial_baseline / seconds;
  }
  state.SetLabel("streams/gpu=" + std::to_string(streams));
}
BENCHMARK(Ablation_Pipeline)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

GFLINK_BENCH_MAIN(ablation_pipeline);
