// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// GpuManager: the per-worker component that owns everything GPU-side
// (paper §3.4, Fig. 1b) — the devices, the JNI communication layers
// (CUDAWrapper/CUDAStub), GMemoryManager and GStreamManager.
//
// One GpuManager is installed as the `extension` of each dataflow Worker;
// GPU-based mappers/reducers retrieve it from their TaskContext.
#pragma once

#include <memory>
#include <vector>

#include "core/gmemory_manager.hpp"
#include "core/gstream_manager.hpp"
#include "dataflow/engine.hpp"
#include "gpu/api.hpp"
#include "gpu/device.hpp"
#include "gpu/device_spec.hpp"

namespace gflink::core {

struct GpuManagerConfig {
  /// One entry per GPU on the worker (the paper's testbed: 2x Tesla C2050).
  std::vector<gpu::DeviceSpec> devices = {gpu::DeviceSpec::c2050(), gpu::DeviceSpec::c2050()};
  GStreamConfig streams;
  /// Per-job, per-device cache region capacity (a user parameter in GFlink).
  std::uint64_t cache_region_bytes = 512ULL << 20;
  CachePolicy cache_policy = CachePolicy::Fifo;
  /// JNI control-channel overhead per wrapped call.
  sim::Duration jni_overhead = sim::nanos(200);
  gpu::StubOverheads stub_overheads;
};

class GpuManager {
 public:
  /// `registry` (optional) is the observability sink for scheduler
  /// distributions. `spans` (optional) records per-GWork causal spans and
  /// the devices' copy/kernel lane intervals; `flight` (optional)
  /// receives cache-eviction and staging-failure flight events.
  GpuManager(sim::Simulation& sim, int node_id, const GpuManagerConfig& config,
             obs::MetricsRegistry* registry = nullptr,
             obs::SpanStore* spans = nullptr, obs::FlightRecorder* flight = nullptr);

  int node_id() const { return node_id_; }
  int num_devices() const { return static_cast<int>(devices_.size()); }
  gpu::GpuDevice& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }
  const gpu::GpuDevice& device(int i) const { return *devices_.at(static_cast<std::size_t>(i)); }
  gpu::CudaWrapper& wrapper(int i) { return *wrappers_.at(static_cast<std::size_t>(i)); }
  GMemoryManager& memory() { return *memory_; }
  const GMemoryManager& memory() const { return *memory_; }
  GStreamManager& streams() { return *streams_; }
  const GStreamManager& streams() const { return *streams_; }

  /// Publish this worker's GPU-side state: per-device engine busy time and
  /// byte counts, cache totals, and the scheduler's counters.
  void export_metrics(obs::MetricsRegistry& out) const;

  /// Submit a GWork and await its completion (the producer side of the
  /// producer-consumer scheme).
  sim::Co<void> run(const GWorkPtr& work) { return streams_->run(work); }

  /// Release all cache regions of a finished job on this worker.
  void release_job(std::uint64_t job_id) { memory_->release_job(job_id); }

  /// Retrieve the GpuManager from a GPU-based operator's task context.
  static GpuManager& of(dataflow::TaskContext& ctx) {
    auto* mgr = static_cast<GpuManager*>(ctx.extension());
    GFLINK_CHECK_MSG(mgr != nullptr, "no GpuManager installed on this worker");
    return *mgr;
  }

 private:
  int node_id_;
  std::vector<std::unique_ptr<gpu::GpuDevice>> devices_;
  std::vector<std::unique_ptr<gpu::CudaStub>> stubs_;
  std::vector<std::unique_ptr<gpu::CudaWrapper>> wrappers_;
  std::unique_ptr<GMemoryManager> memory_;
  std::unique_ptr<GStreamManager> streams_;
};

/// The heterogeneous-cluster runtime: attaches a GpuManager to every worker
/// of a dataflow engine, turning it into GFlink.
class GFlinkRuntime {
 public:
  GFlinkRuntime(dataflow::Engine& engine, const GpuManagerConfig& config);

  GpuManager& manager(int worker_node) {
    return *managers_.at(static_cast<std::size_t>(worker_node) - 1);
  }
  int num_workers() const { return static_cast<int>(managers_.size()); }

  /// Release a finished job's cache regions cluster-wide.
  void release_job(std::uint64_t job_id) {
    for (auto& m : managers_) m->release_job(job_id);
  }

  // ---- Multi-tenant configuration (JobService) ----------------------------
  // Fan the tenant mapping/quota/priority out to every worker's
  // GMemoryManager / GStreamManager.
  void set_job_tenant(std::uint64_t job_id, const std::string& tenant) {
    for (auto& m : managers_) m->memory().set_job_tenant(job_id, tenant);
  }
  void set_tenant_quota(const std::string& tenant, std::uint64_t bytes) {
    for (auto& m : managers_) m->memory().set_tenant_quota(tenant, bytes);
  }
  void set_tenant_priority(const std::string& tenant, int priority) {
    for (auto& m : managers_) m->streams().set_tenant_priority(tenant, priority);
  }
  /// Cluster-wide cumulative cache bytes inserted by `tenant` (the
  /// achieved-cache-share numerator for fairness reporting).
  std::uint64_t tenant_inserted_bytes(const std::string& tenant) const {
    std::uint64_t n = 0;
    for (const auto& m : managers_) n += m->memory().tenant_inserted_bytes(tenant);
    return n;
  }

  // Cluster-wide statistics.
  std::uint64_t total_cache_hits() const;
  std::uint64_t total_kernels() const;
  std::uint64_t total_bytes_h2d() const;

  /// Publish every worker's GPU-side metrics into `out`.
  void export_metrics(obs::MetricsRegistry& out) const {
    for (const auto& m : managers_) m->export_metrics(out);
  }

 private:
  std::vector<std::unique_ptr<GpuManager>> managers_;
};

}  // namespace gflink::core
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
