#include "workloads/common.hpp"

#include "obs/run_report.hpp"
#include "workloads/concomp.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/linreg.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/pointadd.hpp"
#include "workloads/records.hpp"
#include "workloads/spmv.hpp"
#include "workloads/wordcount.hpp"

namespace gflink::workloads {

df::EngineConfig make_engine_config(const Testbed& tb) {
  const double s = tb.scale;
  df::EngineConfig cfg;
  cfg.cluster.num_workers = tb.workers;
  // Single-machine runs (Fig. 7b, Fig. 8c, Table 2) host the JobManager on
  // the worker: master traffic is in-memory.
  cfg.cluster.colocated_master = (tb.workers == 1);

  net::NodeSpec node;
  node.cpu.cores = 4;                      // i5-4590
  node.cpu.effective_flops = 0.5e9;        // JVM UDF scalar throughput
  node.cpu.mem_bandwidth = 4.0e9;          // JVM effective copy bandwidth
  node.cpu.record_overhead = 50;           // iterator + virtual dispatch
  node.nic.bandwidth = 117.0e6;            // 1 GbE effective
  node.nic.latency = scaled(sim::micros(80), s);
  node.rdma.bandwidth = 6.0e9;             // 56 Gb/s FDR effective
  node.rdma.latency = scaled(sim::micros(2), s);
  node.disk.read_bandwidth = 150.0e6;
  node.disk.write_bandwidth = 120.0e6;
  node.disk.access_latency = scaled(sim::millis(4), s);
  cfg.cluster.worker = node;
  cfg.cluster.master = node;

  cfg.dfs.block_size =
      std::max<std::uint64_t>(4096, static_cast<std::uint64_t>((64.0 * (1 << 20)) * s));
  cfg.dfs.replication = std::min(2, tb.workers);
  cfg.dfs.namenode_latency = scaled(sim::micros(200), s);

  cfg.page_size = std::max<std::size_t>(
      1024, static_cast<std::size_t>(static_cast<double>(tb.full_block_bytes) * s));
  cfg.memory_pages_per_worker =
      std::max<std::size_t>(1024, static_cast<std::size_t>(8.0e9 * s) / cfg.page_size);

  cfg.job_submit_overhead = scaled(sim::millis(900), s);
  cfg.job_schedule_overhead = scaled(sim::millis(400), s);
  cfg.stage_schedule_overhead = scaled(sim::millis(8), s);
  cfg.task_deploy_overhead = scaled(sim::micros(300), s);
  cfg.failure_detection_delay = scaled(sim::millis(500), s);

  // Exchange blocks and the receiver spill budget shrink with the data
  // (bytes scale like record counts); retry backoff scales like latencies.
  cfg.shuffle.block_bytes = std::max<std::uint64_t>(
      1024, static_cast<std::uint64_t>((32.0 * (1 << 20)) * s));
  cfg.shuffle.receiver_budget_bytes = std::max<std::uint64_t>(
      64 * 1024, static_cast<std::uint64_t>(4.0e9 * s));
  cfg.shuffle.retry_backoff = scaled(sim::millis(100), s);
  cfg.shuffle.mode = tb.shuffle_mode;
  // Spill tiers scale like the data (byte budgets), while codec
  // bandwidths — like every bandwidth — stay unscaled.
  cfg.shuffle.spill_async = tb.spill_async;
  cfg.shuffle.spill.codec = tb.spill_codec;
  cfg.shuffle.spill.memory_tier_bytes =
      !tb.spill_memory_tier
          ? 0
          : std::max<std::uint64_t>(
                16 * 1024,
                static_cast<std::uint64_t>(static_cast<double>(tb.full_spill_memory_tier) * s));
  cfg.shuffle.spill.disk_tier_bytes =
      !tb.spill_disk_tier
          ? 0
          : std::max<std::uint64_t>(
                64 * 1024,
                static_cast<std::uint64_t>(static_cast<double>(tb.full_spill_disk_tier) * s));

  cfg.trace = tb.trace;
  return cfg;
}

core::GpuManagerConfig make_gpu_config(const Testbed& tb) {
  const double s = tb.scale;
  core::GpuManagerConfig cfg;
  gpu::DeviceSpec spec = tb.gpu_spec;
  spec.device_memory = std::max<std::uint64_t>(
      1 << 20, static_cast<std::uint64_t>(static_cast<double>(spec.device_memory) * s));
  spec.pcie_latency = scaled(spec.pcie_latency, s);
  spec.kernel_launch_overhead = scaled(spec.kernel_launch_overhead, s);
  cfg.devices.assign(static_cast<std::size_t>(tb.gpus_per_worker), spec);
  cfg.streams.streams_per_gpu = tb.streams_per_gpu;
  cfg.streams.idle_timeout = std::max<sim::Duration>(1, scaled(sim::millis(20), s));
  cfg.streams.policy = tb.scheduling;
  // Chunks scale with the blocks so every block splits into the same number
  // of chunks as at full size (0 stays 0: chunking disabled).
  cfg.streams.chunk_bytes =
      tb.full_chunk_bytes == 0
          ? 0
          : std::max<std::uint64_t>(
                256, static_cast<std::uint64_t>(static_cast<double>(tb.full_chunk_bytes) * s));
  cfg.streams.staging_slots = tb.staging_slots;
  cfg.streams.oom_retry_backoff = std::max<sim::Duration>(1, scaled(sim::micros(100), s));
  // The cache region is a user parameter but can never exceed the board:
  // leave a quarter of device memory for transient work buffers.
  cfg.cache_region_bytes = std::max<std::uint64_t>(
      1 << 16, std::min(static_cast<std::uint64_t>(
                            static_cast<double>(tb.full_cache_region) * s),
                        spec.device_memory * 3 / 4));
  cfg.cache_policy = tb.cache_policy;
  cfg.jni_overhead = scaled(sim::nanos(200), s);
  cfg.stub_overheads.malloc_cost = scaled(sim::micros(90), s);
  cfg.stub_overheads.free_cost = scaled(sim::micros(40), s);
  cfg.stub_overheads.host_register_cost_per_mb = scaled(sim::micros(200), s);
  return cfg;
}

Session::Session(const Testbed& tb, Mode mode)
    : Session(tb, mode, make_engine_config(tb),
              mode == Mode::Gpu ? make_gpu_config(tb) : core::GpuManagerConfig{}) {}

Session::Session(const Testbed& tb, Mode mode, const df::EngineConfig& engine_config,
                 const core::GpuManagerConfig& gpu_config)
    : tb_(tb), mode_(mode), engine_(engine_config) {
  if (mode == Mode::Gpu) {
    ensure_kernels_registered();
    runtime_ = std::make_unique<core::GFlinkRuntime>(engine_, gpu_config);
  }
}

void Session::report_into(obs::RunReport& report) const {
  report.virtual_ns += engine_.now();
  engine_.export_metrics(report.metrics);
  if (runtime_) runtime_->export_metrics(report.metrics);
}

DriverInput prepare_input(df::Engine& engine, const core::GFlinkRuntime* runtime, Mode mode,
                          int partitions, const char* name, std::uint64_t size_key,
                          std::uint64_t bytes) {
  GFLINK_CHECK_MSG(mode == Mode::Cpu || runtime != nullptr, "GPU mode needs a GFlinkRuntime");
  DriverInput input;
  input.partitions = partitions > 0 ? partitions : engine.default_parallelism();
  input.path = std::string("/data/") + name + "-" + std::to_string(size_key);
  if (!engine.dfs().exists(input.path)) engine.dfs().create_file(input.path, bytes);
  return input;
}

void finish_run(df::Job& job, core::GFlinkRuntime* runtime, RunResult& run) {
  job.finish();
  if (runtime != nullptr) runtime->release_job(job.id());
  run.stats = job.stats();
  run.total = job.stats().total();
}

namespace {

// The generic block-sum reducer (the GReducer of Fig. 8b). Buffers:
// [entries, out(1 VecEntry)]. Deliberately not compute-intensive: one add
// per item — the paper notes GReducers gain little from GPUs.
void register_sum_kernel(gpu::KernelRegistry& registry) {
  gpu::Kernel k;
  k.name = "cudaSumVec";
  k.preferred_layout = mem::Layout::SoA;
  k.cost.flops_per_item = 1.0;
  k.cost.dram_bytes_per_item = sizeof(VecEntry);
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* in = reinterpret_cast<const VecEntry*>(launch.buffers[0].data());
    auto* out = reinterpret_cast<VecEntry*>(launch.buffers.back().data());
    VecEntry acc{0, 0.0f};
    for (std::size_t i = 0; i < launch.items; ++i) acc.value += in[i].value;
    out[0] = acc;
  };
  registry.register_kernel(std::move(k));
}

}  // namespace

void ensure_kernels_registered() {
  static const bool once = [] {
    auto& registry = gpu::KernelRegistry::global();
    kmeans::register_kernels(registry);
    linreg::register_kernels(registry);
    spmv::register_kernels(registry);
    pagerank::register_kernels(registry);
    concomp::register_kernels(registry);
    wordcount::register_kernels(registry);
    register_sum_kernel(registry);
    pointadd::register_kernels(registry);
    return true;
  }();
  (void)once;
}

}  // namespace gflink::workloads
