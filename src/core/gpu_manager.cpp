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
    out.counter("gpu_kernels_total", l).inc(static_cast<double>(dev.kernels_launched()));
    out.counter("gpu_kernel_busy_ns_total", l).inc(static_cast<double>(dev.kernel_busy()));
    out.counter("gpu_h2d_busy_ns_total", l).inc(static_cast<double>(dev.h2d_busy()));
    out.counter("gpu_d2h_busy_ns_total", l).inc(static_cast<double>(dev.d2h_busy()));
    out.counter("gpu_bytes_h2d_total", l).inc(static_cast<double>(dev.bytes_h2d()));
    out.counter("gpu_bytes_d2h_total", l).inc(static_cast<double>(dev.bytes_d2h()));
    out.counter("gpu_copy_compute_overlap_ns_total", l)
        .inc(static_cast<double>(dev.copy_compute_overlap()));
    out.gauge("gpu_copy_compute_overlap_efficiency", l).set(dev.overlap_efficiency());
    out.gauge("gpu_cache_region_used_bytes", l)
        .set(static_cast<double>(memory_->region_used(static_cast<int>(i))));
    out.gauge("gpu_staging_ring_bytes", l)
        .set(static_cast<double>(memory_->staging_bytes(static_cast<int>(i))));
  }
  out.counter("gpu_cache_hits_total").inc(static_cast<double>(memory_->hits()));
  out.counter("gpu_cache_misses_total").inc(static_cast<double>(memory_->misses()));
  out.counter("gpu_cache_evictions_total").inc(static_cast<double>(memory_->evictions()));
  out.counter("gpu_cache_cross_tenant_evictions_total")
      .inc(static_cast<double>(memory_->cross_tenant_evictions()));
  out.counter("gpu_cache_pins_total").inc(static_cast<double>(memory_->pins()));
  out.counter("gpu_staging_reservations_total")
      .inc(static_cast<double>(memory_->staging_reservations()));
  out.counter("gpu_staging_failures_total").inc(static_cast<double>(memory_->staging_failures()));
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

std::uint64_t GFlinkRuntime::total_cache_misses() const {
  std::uint64_t n = 0;
  for (const auto& m : managers_) n += m->memory().misses();
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
