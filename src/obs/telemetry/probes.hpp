// Probe wiring: the one place that knows where each probed quantity
// lives. Header-only on purpose — the telemetry library proper depends
// only on obs and sim, while these helpers reach up into dataflow,
// shuffle, spill, gpu and service; the consumers that call them (CLI,
// benches, tests) already link those layers.
//
// Probes are closures over cached references, pre-built strings and
// cached registry counter handles, built once at wiring time. Every series
// is a Telemetry family of the metric catalog, so its name carries a units
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
inline void install_engine_probes(Telemetry& telemetry, dataflow::Engine& engine) {
  shuffle::ShuffleService& shuffle = engine.shuffle_service();
  spill::SpillStore& spill = shuffle.spill_store();
  telemetry.add_probe(0, Metric::TelemetryShuffleInFlight, {}, [&shuffle] {
    return static_cast<double>(shuffle.blocks_in_flight());
  });
  for (int w = 1; w <= engine.num_workers(); ++w) {
    Counter& busy =
        engine.metrics().counter(Metric::EngineTaskBusyNs, {{"node", std::to_string(w)}});
    telemetry.add_probe(w, Metric::TelemetryTaskBusyNs, {}, [&busy] { return busy.value(); });
    telemetry.add_probe(w, Metric::TelemetryShuffleResidentBytes, {}, [&shuffle, w] {
      return static_cast<double>(shuffle.resident_bytes(w));
    });
    telemetry.add_probe(w, Metric::TelemetrySpillQueueDepth, {},
                        [&spill, w] { return static_cast<double>(spill.queued_blocks(w)); });
  }
}

/// GPU-layer probes, per worker: cache region occupancy from the
/// GMemoryManager, GWork queue depth from the GStreamManager, and — for
/// each tenant with a cache quota — the fraction of that quota in use.
inline void install_runtime_probes(Telemetry& telemetry, core::GFlinkRuntime& runtime,
                                   const std::vector<service::TenantConfig>& tenants = {}) {
  for (int w = 1; w <= runtime.num_workers(); ++w) {
    core::GpuManager& gm = runtime.manager(w);
    telemetry.add_probe(w, Metric::TelemetryGpuCacheUsedBytes, {}, [&gm] {
      double used = 0.0;
      for (int d = 0; d < gm.num_devices(); ++d) {
        used += static_cast<double>(gm.memory().region_used(d));
      }
      return used;
    });
    telemetry.add_probe(w, Metric::TelemetryGstreamQueueDepth, {}, [&gm] {
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
      telemetry.add_probe(w, Metric::TelemetryTenantQuotaUsedRatio, {{"tenant", name}},
                          [&gm, name, quota] {
                            double used = 0.0;
                            for (int d = 0; d < gm.num_devices(); ++d) {
                              used += static_cast<double>(
                                  gm.memory().tenant_cached_bytes(d, name));
                            }
                            return used / quota;
                          });
    }
  }
}

/// Service-layer probes on the master: per-tenant admission-queue depth,
/// plus the completion feed the SLO burn-rate detector runs on.
inline void install_service_probes(Telemetry& telemetry, service::JobService& service) {
  for (const std::string& tenant : service.tenant_names()) {
    telemetry.add_probe(0, Metric::TelemetryServicePending, {{"tenant", tenant}},
                        [&service, tenant] {
                          return static_cast<double>(service.tenant_pending(tenant));
                        });
  }
  service.set_completion_observer(
      [&telemetry](const std::string& tenant, sim::Duration latency) {
        telemetry.observe_completion(tenant, latency);
      });
}

}  // namespace gflink::obs::telemetry
