#include "workloads/common.hpp"

#include <cstring>
#include <unordered_map>

#include "obs/run_report.hpp"
#include "workloads/records.hpp"

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

namespace {

// Kernel parameter blocks (shared_ptr-held; see GWork::params).
struct KmeansParams {
  int k;
  int dim;
};
struct LinregParams {
  int dim;
};
struct GraphParams {
  std::uint64_t num_nodes;
  double damping;
};

void register_all_kernels() {
  auto& reg = gpu::KernelRegistry::global();

  // --- KMeans assignment + per-block partial sums ---------------------------
  // Buffers: [points, centers, out(k ClusterAgg)].
  {
    gpu::Kernel k;
    k.name = "cudaKmeansAssign";
    k.preferred_layout = mem::Layout::SoA;
    k.cost.flops_per_item = 3.0 * kClusters * kDim;  // distance to every center
    k.cost.dram_bytes_per_item = sizeof(Point);
    k.cost.fixed_flops = 2.0 * kClusters * kDim;     // block-level reduction tail
    k.fn = [](gpu::KernelLaunch& launch) {
      const auto* pts = reinterpret_cast<const Point*>(launch.buffers[0].data());
      const auto* centers = reinterpret_cast<const Point*>(launch.buffers[1].data());
      auto* out = reinterpret_cast<ClusterAgg*>(launch.buffers.back().data());
      for (int c = 0; c < kClusters; ++c) {
        out[c].cluster = static_cast<std::uint64_t>(c);
        std::memset(out[c].sum, 0, sizeof(out[c].sum));
        out[c].count = 0;
      }
      for (std::size_t i = 0; i < launch.items; ++i) {
        int best = 0;
        float best_d = 1e30f;
        for (int c = 0; c < kClusters; ++c) {
          float d = 0;
          for (int j = 0; j < kDim; ++j) {
            const float diff = pts[i].x[j] - centers[c].x[j];
            d += diff * diff;
          }
          if (d < best_d) {
            best_d = d;
            best = c;
          }
        }
        for (int j = 0; j < kDim; ++j) out[best].sum[j] += pts[i].x[j];
        ++out[best].count;
      }
    };
    reg.register_kernel(k);
  }

  // --- LinearRegression per-block gradient ----------------------------------
  // Buffers: [samples, weights(dim+1 doubles), out(1 Gradient)].
  {
    gpu::Kernel k;
    k.name = "cudaLinregGradient";
    k.preferred_layout = mem::Layout::SoA;
    k.cost.flops_per_item = 5.0 * kDim;  // fused dot + scaled accumulate
    k.cost.dram_bytes_per_item = sizeof(Sample);
    k.fn = [](gpu::KernelLaunch& launch) {
      const auto* samples = reinterpret_cast<const Sample*>(launch.buffers[0].data());
      const auto* w = reinterpret_cast<const double*>(launch.buffers[1].data());
      auto* out = reinterpret_cast<Gradient*>(launch.buffers.back().data());
      std::memset(out, 0, sizeof(Gradient));
      for (std::size_t i = 0; i < launch.items; ++i) {
        double pred = w[kDim];  // bias
        for (int j = 0; j < kDim; ++j) pred += w[j] * samples[i].x[j];
        const double err = pred - samples[i].y;
        for (int j = 0; j < kDim; ++j) out->g[j] += err * samples[i].x[j];
        out->g[kDim] += err;
        ++out->count;
      }
    };
    reg.register_kernel(k);
  }

  // --- SpMV: y_block = A_block * x ------------------------------------------
  // Buffers: [rows, x(vector of floats), out(n VecEntry)]. This is the
  // cuBLAS/cuSPARSE-quality path the paper uses, hence SoA efficiency.
  {
    gpu::Kernel k;
    k.name = "cudaSpmvRow";
    k.preferred_layout = mem::Layout::SoA;
    k.cost.flops_per_item = 2.0 * kNnzPerRow;
    k.cost.dram_bytes_per_item = sizeof(CsrRow) + 4.0 * kNnzPerRow;  // row + gathered x
    k.fn = [](gpu::KernelLaunch& launch) {
      const auto* rows = reinterpret_cast<const CsrRow*>(launch.buffers[0].data());
      const auto* x = reinterpret_cast<const float*>(launch.buffers[1].data());
      auto* out = reinterpret_cast<VecEntry*>(launch.buffers.back().data());
      for (std::size_t i = 0; i < launch.items; ++i) {
        float acc = 0;
        for (int j = 0; j < kNnzPerRow; ++j) acc += rows[i].val[j] * x[rows[i].col[j]];
        out[i] = VecEntry{rows[i].row, acc};
      }
    };
    reg.register_kernel(k);
  }

  // --- PageRank contributions ------------------------------------------------
  // Buffers: [pages, ranks(dense doubles), out(kOutDegree per page)].
  {
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
        const float share = ranks[pages[i].id] / kOutDegree;
        for (int j = 0; j < kOutDegree; ++j) {
          out[i * kOutDegree + j] =
              RankMsg{static_cast<std::uint32_t>(pages[i].out[j]), share};
        }
      }
    };
    reg.register_kernel(k);
  }

  // --- ConnectedComponents label messages ------------------------------------
  // Buffers: [vertices, labels(dense u64), out((kOutDegree+1) per vertex)].
  {
    gpu::Kernel k;
    k.name = "cudaConcompMsgs";
    k.preferred_layout = mem::Layout::SoA;
    k.cost.flops_per_item = 2.0 * (kOutDegree + 1);
    k.cost.dram_bytes_per_item = sizeof(Vertex) + sizeof(LabelMsg) * (kOutDegree + 1);
    k.fn = [](gpu::KernelLaunch& launch) {
      const auto* verts = reinterpret_cast<const Vertex*>(launch.buffers[0].data());
      const auto* labels = reinterpret_cast<const std::uint32_t*>(launch.buffers[1].data());
      auto* out = reinterpret_cast<LabelMsg*>(launch.buffers.back().data());
      std::size_t o = 0;
      for (std::size_t i = 0; i < launch.items; ++i) {
        const std::uint32_t own = labels[verts[i].id];
        out[o++] = LabelMsg{static_cast<std::uint32_t>(verts[i].id), own};
        for (int j = 0; j < kOutDegree; ++j) {
          out[o++] = LabelMsg{static_cast<std::uint32_t>(verts[i].neighbour[j]), own};
        }
      }
    };
    reg.register_kernel(k);
  }

  // --- WordCount per-block combine -------------------------------------------
  // Buffers: [words, out(n WordCount, padded with word = UINT64_MAX)].
  {
    gpu::Kernel k;
    k.name = "cudaWordcountBlock";
    k.preferred_layout = mem::Layout::SoA;
    k.cost.flops_per_item = 12.0;  // hash + probe
    k.cost.dram_bytes_per_item = 2.0 * sizeof(WordCount);
    k.fn = [](gpu::KernelLaunch& launch) {
      const auto* in = reinterpret_cast<const WordCount*>(launch.buffers[0].data());
      auto* out = reinterpret_cast<WordCount*>(launch.buffers.back().data());
      std::unordered_map<std::uint64_t, std::uint64_t> counts;
      counts.reserve(launch.items);
      for (std::size_t i = 0; i < launch.items; ++i) counts[in[i].word] += in[i].count;
      std::size_t o = 0;
      for (const auto& [word, count] : counts) out[o++] = WordCount{word, count};
      for (; o < launch.items; ++o) out[o] = WordCount{~0ULL, 0};
    };
    reg.register_kernel(k);
  }

  // --- Generic block-sum reducer (the GReducer of Fig. 8b) --------------------
  // Buffers: [entries, out(1 VecEntry)]. Deliberately not compute-intensive:
  // one add per item — the paper notes GReducers gain little from GPUs.
  {
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
    reg.register_kernel(k);
  }

  // --- PointAdd (the paper's Algorithm 3.1 example) ---------------------------
  // Buffers: [points, out(n Pt)].
  {
    gpu::Kernel k;
    k.name = "cudaAddPoint";
    k.preferred_layout = mem::Layout::AoS;  // the paper's example uses AoS
    k.cost.flops_per_item = 2.0;
    k.cost.dram_bytes_per_item = 2.0 * sizeof(Pt);
    k.fn = [](gpu::KernelLaunch& launch) {
      const auto* in = reinterpret_cast<const Pt*>(launch.buffers[0].data());
      auto* out = reinterpret_cast<Pt*>(launch.buffers.back().data());
      for (std::size_t i = 0; i < launch.items; ++i) {
        out[i] = Pt{in[i].x + in[i].y, in[i].y};
      }
    };
    reg.register_kernel(k);
  }
}

}  // namespace

void ensure_kernels_registered() {
  static const bool once = [] {
    register_all_kernels();
    return true;
  }();
  (void)once;
}

}  // namespace gflink::workloads
