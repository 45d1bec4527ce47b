// Shared workload scaffolding: the scaled testbed model, calibration
// constants, the per-run result record, and the run harness (Session)
// that turns a testbed into a running engine plus GPU runtime.
//
// ## The scaling model
//
// The paper's datasets (150-270 M points, 24-56 GB text) cannot be
// processed record-for-record here, so benches run a uniformly *scaled*
// replica of the testbed: data sizes are multiplied by `scale` (default
// 1/1000) and — crucially — every fixed latency constant in the platform
// (job submission, scheduling, RPC/NIC/disk/namenode latencies, cudaMalloc,
// kernel launch, JNI redirect, PCIe setup) is multiplied by the same
// factor, while bandwidths and per-record costs stay untouched. Block and
// page sizes also scale, keeping block *counts* constant. Under this
// transformation every simulated duration is `scale` times the full-size
// duration, so ratios — speedups, crossovers, iteration shapes — are
// preserved exactly. Reports extrapolate to full-size seconds by dividing
// by `scale`.
//
// ## Calibration (targets in DESIGN.md)
//
// CPU: i5-4590 running JVM UDF code — 4 cores, ~0.5 GFLOP/s effective
// scalar throughput per core on boxed/iterator-heavy inner loops, ~4 GB/s
// effective copy bandwidth, 50 ns per-record iterator overhead.
// GPUs: DeviceSpec presets (see gpu/device_spec.cpp). PCIe matches the
// paper's Table 2 (2.97 GB/s plateau, ~1.8 us setup, ~0.2 us JNI).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/gpu_manager.hpp"
#include "dataflow/dataset.hpp"
#include "dataflow/engine.hpp"

namespace gflink::obs {
struct RunReport;
}  // namespace gflink::obs

namespace gflink::workloads {

namespace df = gflink::dataflow;
namespace core = gflink::core;

/// Testbed description for one benchmark run.
struct Testbed {
  int workers = 10;
  int gpus_per_worker = 2;
  gpu::DeviceSpec gpu_spec = gpu::DeviceSpec::c2050();
  double scale = 1e-3;
  /// GPU data-block size at full scale (scaled down like everything else).
  std::size_t full_block_bytes = 4 << 20;
  /// Per-job per-device GPU cache region at full scale (a user parameter;
  /// sized to fit a C2050's 3 GB minus working buffers).
  std::uint64_t full_cache_region = 2560ULL << 20;
  core::CachePolicy cache_policy = core::CachePolicy::Fifo;
  core::SchedulingPolicy scheduling = core::SchedulingPolicy::LocalityAware;
  int streams_per_gpu = 4;
  /// Chunk size of the intra-GWork pipeline at full scale (scaled down like
  /// the block size, so the chunks-per-block ratio is preserved). 0 turns
  /// the chunked pipeline off (monolithic three-stage execution).
  std::uint64_t full_chunk_bytes = 1 << 20;
  /// Device staging-ring depth (chunks in flight per stream).
  int staging_slots = 3;
  /// Exchange transport for every shuffled edge (barrier / pipelined /
  /// one_sided — the CLI's --shuffle-mode). One-sided is the default
  /// after its PR 7 soak: it wins on every workload cell measured.
  shuffle::ShuffleMode shuffle_mode = shuffle::ShuffleMode::OneSided;
  /// Spill-path configuration (the CLI's --spill-codec / --spill-tiers):
  /// async tiered offload with the LZ-style codec by default; the sync
  /// flag and tier switches exist for the bench_ablation_spill cells.
  spill::SpillCodec spill_codec = spill::SpillCodec::Lz;
  bool spill_async = true;
  bool spill_memory_tier = true;
  bool spill_disk_tier = true;
  /// Spill-tier budgets at full scale (scaled down like the data).
  std::uint64_t full_spill_memory_tier = 512ULL << 20;
  std::uint64_t full_spill_disk_tier = 8ULL << 30;
  bool trace = false;
};

/// Scale a duration constant (min 0; sub-ns truncates to 0, which only
/// affects constants that are negligible at full size too).
inline sim::Duration scaled(sim::Duration d, double scale) {
  return static_cast<sim::Duration>(static_cast<double>(d) * scale);
}

/// Build the dataflow engine config for a testbed.
df::EngineConfig make_engine_config(const Testbed& tb);

/// Build the GFlink GPU-layer config for a testbed.
core::GpuManagerConfig make_gpu_config(const Testbed& tb);

/// Register all workload kernels in the global registry (idempotent). Each
/// workload's `register_kernels` adds its own kernels, whose host functions
/// call the same per-record body as the workload's Flink-mode UDF.
void ensure_kernels_registered();

/// Result of one workload run.
struct RunResult {
  /// Simulated wall time of the whole job, submission included.
  sim::Duration total = 0;
  /// Simulated wall time per iteration (iterative workloads). The first
  /// iteration includes the DFS read; the last includes the DFS write.
  std::vector<sim::Duration> iterations;
  df::JobStats stats;
  /// Workload-defined correctness probe (identical for CPU and GPU paths).
  double checksum = 0.0;

  /// Extrapolate a scaled duration to full-size seconds.
  static double full_seconds(sim::Duration d, double scale) {
    return sim::to_seconds(d) / scale;
  }
};

/// Execution mode of a workload run.
enum class Mode : std::uint8_t { Cpu, Gpu };

inline const char* mode_name(Mode m) { return m == Mode::Cpu ? "CPU" : "GFlink"; }

/// A workload driver: every workload's `run` has this shape.
template <typename ConfigT, typename ResultT>
using Driver = sim::Co<ResultT> (*)(df::Engine&, core::GFlinkRuntime*, const Testbed&, Mode,
                                    const ConfigT&);

/// One run on a testbed: the dataflow engine (stock Flink) and, in GFlink
/// mode, the GPU runtime attached to it. The runtime is declared after the
/// engine so it is torn down first.
class Session {
 public:
  Session(const Testbed& tb, Mode mode);
  /// Explicit configs, for ablations that edit what the testbed derives.
  /// `gpu_config` is used in GFlink mode only.
  Session(const Testbed& tb, Mode mode, const df::EngineConfig& engine_config,
          const core::GpuManagerConfig& gpu_config);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  df::Engine& engine() { return engine_; }
  /// Null in CPU mode.
  core::GFlinkRuntime* runtime() { return runtime_.get(); }

  /// Drive one workload to completion on the virtual clock.
  template <typename ConfigT, typename ResultT>
  ResultT run(Driver<ConfigT, ResultT> driver, const ConfigT& config) {
    ResultT result{};
    engine_.run([&](df::Engine& eng) {
      return drive(driver, eng, runtime_.get(), tb_, mode_, config, result);
    });
    return result;
  }

  /// Add this run to `report`: its virtual time and the engine's and
  /// runtime's metrics (counters add up; gauges keep the last run).
  void report_into(obs::RunReport& report) const;

 private:
  // The root coroutine of run(). Every reference outlives it: Engine::run
  // returns only once the simulation has drained.
  // NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
  template <typename ConfigT, typename ResultT>
  static sim::Co<void> drive(Driver<ConfigT, ResultT> driver, df::Engine& engine,
                             core::GFlinkRuntime* runtime, const Testbed& tb, Mode mode,
                             const ConfigT& config, ResultT& result) {
    result = co_await driver(engine, runtime, tb, mode, config);
  }
  // NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)

  Testbed tb_;
  Mode mode_;
  df::Engine engine_;
  std::unique_ptr<core::GFlinkRuntime> runtime_;
};

/// Run one workload on a fresh session.
template <typename ConfigT, typename ResultT>
ResultT run(Driver<ConfigT, ResultT> driver, const Testbed& tb, Mode mode,
            const ConfigT& config) {
  Session session(tb, mode);
  return session.run(driver, config);
}

// ---- Driver scaffolding -----------------------------------------------------

/// Where a driver's source reads from and how many producer tasks it runs.
struct DriverInput {
  int partitions = 0;
  std::string path;
};

/// The start of every driver: GFlink mode needs a runtime; producer tasks
/// run at full slot parallelism in both modes unless `partitions` is set
/// (GWork production is cheap, and the job's CPU-side stages need the
/// slots either way); and the input file "/data/<name>-<size_key>" of
/// `bytes` exists on the DFS.
DriverInput prepare_input(df::Engine& engine, const core::GFlinkRuntime* runtime, Mode mode,
                          int partitions, const char* name, std::uint64_t size_key,
                          std::uint64_t bytes);

/// The end of every driver: finish `job`, release its GPU cache, and copy
/// its stats and makespan into `run`.
void finish_run(df::Job& job, core::GFlinkRuntime* runtime, RunResult& run);

/// A source generator that stripes records over partitions: partition
/// `part` of `parts` yields gen(i) for i = part, part + parts, ... < n, so
/// any partitioning yields the same multiset of records.
template <typename T, typename Gen>
df::IndexedGenerator<T> striped(std::uint64_t n, int parts, Gen gen) {
  return {n, parts, std::move(gen)};
}

/// A GpuOpSpec::make_aux whose one broadcast buffer is a pinned off-heap
/// copy of `*values`, taken when each task runs. With `cache`, the buffer
/// is cached on each device under the iteration's key, so it crosses PCIe
/// once per device per iteration. It is not input data, so it does not
/// steer locality.
template <typename T>
std::function<std::vector<core::GBuffer>(df::TaskContext&)> broadcast_aux(
    std::shared_ptr<std::vector<T>> values, std::uint64_t iteration, bool cache = true) {
  return [values = std::move(values), iteration, cache](df::TaskContext& ctx) {
    const std::uint64_t bytes = values->size() * sizeof(T);
    core::GBuffer aux;
    aux.host = ctx.worker_state().memory().allocate_unbudgeted(bytes);
    aux.host->write(0, values->data(), bytes);
    aux.bytes = bytes;
    aux.cache = cache;
    aux.cache_key = core::make_cache_key(100, 0, static_cast<std::uint32_t>(iteration));
    aux.counts_for_locality = false;
    return std::vector<core::GBuffer>{std::move(aux)};
  };
}

}  // namespace gflink::workloads
