#include "core/gpu_manager.hpp"

namespace gflink::core {

GpuManager::GpuManager(sim::Simulation& sim, int node_id, const GpuManagerConfig& config,
                       obs::MetricsRegistry* registry,
                       obs::SpanStore* spans, obs::FlightRecorder* flight)
    : node_id_(node_id) {
  GFLINK_CHECK_MSG(!config.devices.empty(), "worker needs at least one GPU");
  std::vector<gpu::GpuDevice*> raw_devices;
  std::vector<gpu::CudaWrapper*> raw_wrappers;
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    auto id = "node" + std::to_string(node_id) + ".gpu" + std::to_string(i);
    devices_.push_back(std::make_unique<gpu::GpuDevice>(sim, id, config.devices[i], spans));
    stubs_.push_back(std::make_unique<gpu::CudaStub>(*devices_.back(), config.stub_overheads));
    wrappers_.push_back(
        std::make_unique<gpu::CudaWrapper>(*stubs_.back(), config.jni_overhead));
    raw_devices.push_back(devices_.back().get());
    raw_wrappers.push_back(wrappers_.back().get());
  }
  memory_ = std::make_unique<GMemoryManager>(std::move(raw_devices), config.cache_region_bytes,
                                             config.cache_policy);
  memory_->attach_flight(flight, node_id, &sim);
  streams_ = std::make_unique<GStreamManager>(sim, std::move(raw_wrappers), *memory_,
                                              config.streams, registry, spans, node_id);
}

void GpuManager::export_metrics(obs::MetricsRegistry& out) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const gpu::GpuDevice& dev = *devices_[i];
    const obs::Labels l{{"gpu", dev.id()}};
    out.counter(obs::Metric::GpuKernels, l).inc(static_cast<double>(dev.kernels_launched()));
    out.counter(obs::Metric::GpuKernelBusyNs, l).inc(static_cast<double>(dev.kernel_busy()));
    out.counter(obs::Metric::GpuH2dBusyNs, l).inc(static_cast<double>(dev.h2d_busy()));
    out.counter(obs::Metric::GpuD2hBusyNs, l).inc(static_cast<double>(dev.d2h_busy()));
    out.counter(obs::Metric::GpuBytesH2d, l).inc(static_cast<double>(dev.bytes_h2d()));
    out.counter(obs::Metric::GpuCopyComputeOverlapNs, l)
        .inc(static_cast<double>(dev.copy_compute_overlap()));
    out.gauge(obs::Metric::GpuCopyComputeOverlapEfficiency, l).set(dev.overlap_efficiency());
  }
  out.counter(obs::Metric::GpuCacheHits).inc(static_cast<double>(memory_->hits()));
  out.counter(obs::Metric::GpuCacheMisses).inc(static_cast<double>(memory_->misses()));
  out.counter(obs::Metric::GpuCacheEvictions).inc(static_cast<double>(memory_->evictions()));
  out.counter(obs::Metric::GpuCacheCrossTenantEvictions)
      .inc(static_cast<double>(memory_->cross_tenant_evictions()));
  streams_->export_metrics(out);
}

GFlinkRuntime::GFlinkRuntime(dataflow::Engine& engine, const GpuManagerConfig& config) {
  for (int w = 1; w <= engine.num_workers(); ++w) {
    managers_.push_back(std::make_unique<GpuManager>(engine.sim(), w, config,
                                                     &engine.cluster().metrics(),
                                                     &engine.cluster().spans(),
                                                     &engine.cluster().flight()));
    engine.set_extension(w, managers_.back().get());
  }
}

std::uint64_t GFlinkRuntime::total_cache_hits() const {
  std::uint64_t n = 0;
  for (const auto& m : managers_) n += m->memory().hits();
  return n;
}

std::uint64_t GFlinkRuntime::total_kernels() const {
  std::uint64_t n = 0;
  for (const auto& m : managers_) {
    for (int d = 0; d < m->num_devices(); ++d) {
      n += const_cast<GpuManager&>(*m).device(d).kernels_launched();
    }
  }
  return n;
}

std::uint64_t GFlinkRuntime::total_bytes_h2d() const {
  std::uint64_t n = 0;
  for (const auto& m : managers_) {
    for (int d = 0; d < m->num_devices(); ++d) {
      n += const_cast<GpuManager&>(*m).device(d).bytes_h2d();
    }
  }
  return n;
}

}  // namespace gflink::core
