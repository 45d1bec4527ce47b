// Probe wiring: connects the telemetry plane's samplers to the gauges the
// rest of the system already exposes. Header-only on purpose — the
// telemetry library proper depends only on net/obs/sim, while these
// helpers reach up into dataflow, shuffle, spill, gpu and service; the
// consumers that call them (CLI, benches, tests) already link those
// layers.
//
// All registration happens at wiring time (closures capture cached
// references, pre-built strings and cached registry counter handles), so
// the per-period sample path stays allocation-free. Every series is a
// Telemetry family of the metric catalog, so its name carries a units
// suffix: _ns and _bytes mean what they say, _total is a count of things,
// _ratio is a 0..1 fraction.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/gpu_manager.hpp"
#include "dataflow/engine.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "service/job_service.hpp"
#include "shuffle/shuffle_service.hpp"
#include "spill/spill_store.hpp"

namespace gflink::obs::telemetry {

/// Dataflow-layer probes, per worker: the per-period task-busy delta (the
/// straggler signal), shuffle exchange-buffer residency and spill queue
/// depth; on the master, the cluster-wide count of shuffle blocks in
/// flight.
inline void install_engine_probes(TelemetryPlane& plane, dataflow::Engine& engine) {
  shuffle::ShuffleService& shuffle = engine.shuffle_service();
  spill::SpillStore& spill = shuffle.spill_store();
  for (int w = 1; w <= engine.num_workers(); ++w) {
    NodeSampler& s = plane.sampler(w);
    Counter& busy =
        engine.metrics().counter(Metric::EngineTaskBusyNs, {{"node", std::to_string(w)}});
    s.add_probe(Metric::TelemetryTaskBusyNs, {}, [&busy] { return busy.value(); });
    s.add_probe(Metric::TelemetryShuffleResidentBytes, {},
                [&shuffle, w] { return static_cast<double>(shuffle.resident_bytes(w)); });
    s.add_probe(Metric::TelemetrySpillQueueDepth, {},
                [&spill, w] { return static_cast<double>(spill.queued_blocks(w)); });
  }
  plane.sampler(0).add_probe(
      Metric::TelemetryShuffleInFlight, {},
      [&shuffle] { return static_cast<double>(shuffle.blocks_in_flight()); });
}

/// GPU-layer probes, per worker: cache region occupancy and staging-ring
/// bytes from the GMemoryManager, GWork queue depth from the
/// GStreamManager, and — for each tenant with a cache quota — the
/// fraction of that quota in use.
inline void install_runtime_probes(TelemetryPlane& plane, core::GFlinkRuntime& runtime,
                                   const std::vector<service::TenantConfig>& tenants = {}) {
  for (int w = 1; w <= runtime.num_workers(); ++w) {
    NodeSampler& s = plane.sampler(w);
    core::GpuManager& gm = runtime.manager(w);
    s.add_probe(Metric::TelemetryGpuCacheUsedBytes, {}, [&gm] {
      double used = 0.0;
      for (int d = 0; d < gm.num_devices(); ++d) {
        used += static_cast<double>(gm.memory().region_used(d));
      }
      return used;
    });
    s.add_probe(Metric::TelemetryGpuStagingBytes, {}, [&gm] {
      double staged = 0.0;
      for (int d = 0; d < gm.num_devices(); ++d) {
        staged += static_cast<double>(gm.memory().staging_bytes(d));
      }
      return staged;
    });
    s.add_probe(Metric::TelemetryGstreamQueueDepth, {}, [&gm] {
      double depth = 0.0;
      for (int d = 0; d < gm.num_devices(); ++d) {
        depth += static_cast<double>(gm.streams().queue_depth(d));
      }
      return depth;
    });
    for (const auto& tenant : tenants) {
      if (tenant.cache_quota_bytes == 0) continue;
      const std::string name = tenant.name;
      const double quota =
          static_cast<double>(tenant.cache_quota_bytes) * gm.num_devices();
      s.add_probe(Metric::TelemetryTenantQuotaUsedRatio, {{"tenant", name}},
                  [&gm, name, quota] {
                    double used = 0.0;
                    for (int d = 0; d < gm.num_devices(); ++d) {
                      used += static_cast<double>(gm.memory().tenant_cached_bytes(d, name));
                    }
                    return used / quota;
                  });
    }
  }
}

/// Service-layer probes on the master: per-tenant admission-queue depth,
/// plus the completion feed the SLO burn-rate detector runs on.
inline void install_service_probes(TelemetryPlane& plane, service::JobService& service) {
  NodeSampler& master = plane.sampler(0);
  for (const std::string& tenant : service.tenant_names()) {
    master.add_probe(Metric::TelemetryServicePending, {{"tenant", tenant}},
                     [&service, tenant] {
                       return static_cast<double>(service.tenant_pending(tenant));
                     });
  }
  TelemetryAggregator& aggregator = plane.aggregator();
  service.set_completion_observer(
      [&aggregator](const std::string& tenant, sim::Duration latency) {
        aggregator.observe_completion(tenant, latency);
      });
}

}  // namespace gflink::obs::telemetry
