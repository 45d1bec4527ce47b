#include "obs/run_report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace gflink::obs {

namespace {

/// FNV-1a 64 as 16 hex characters (the hash perfbench's model digest uses).
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

}  // namespace

void RunReport::capture_spans(const SpanStore& spans) {
  const CriticalPath cp = extract_critical_path(spans);
  critical_path = cp.to_json();
  export_critical_path_metrics(cp, metrics);
  const std::vector<Straggler> slow = find_stragglers(spans);
  stragglers = Json::array();
  for (const auto& s : slow) stragglers.push_back(s.to_json());
  export_straggler_metrics(slow, metrics);
}

Json RunReport::to_json() const {
  Json root = Json::object();
  root["name"] = name;
  root["schema"] = "gflink.run_report/v3";
  root["config"] = config;
  root["virtual_ns"] = static_cast<std::int64_t>(virtual_ns);
  root["virtual_seconds"] = sim::to_seconds(virtual_ns);
  root["metrics"] = metrics.to_json();
  Json lanes_json = Json::object();
  for (const auto& [lane, u] : lanes) {
    Json entry = Json::object();
    entry["busy_ns"] = static_cast<std::int64_t>(u.busy_ns);
    entry["spans"] = u.spans;
    entry["utilization"] = u.utilization;
    lanes_json[lane] = std::move(entry);
  }
  root["lane_utilization"] = std::move(lanes_json);
  if (!critical_path.is_null()) root["critical_path"] = critical_path;
  if (!stragglers.is_null()) root["stragglers"] = stragglers;
  if (!tenants.is_null()) root["tenants"] = tenants;
  // Everything above is modelled and deterministic, so its compact dump is
  // the run's digest. The host measurements follow it, outside the digest.
  const std::string digest = fnv1a_hex(root.dump());
  root["digest"] = digest;
  root["wall_seconds"] = wall_seconds;
  root["peak_rss_mb"] = peak_rss_mb;
  return root;
}

bool RunReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json().dump(2) << "\n";
  return static_cast<bool>(out);
}

double host_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void add_derived_gflink_metrics(MetricsRegistry& m) {
  // Touch the headline keys so every report carries them, then derive.
  for (const char* stage : {"h2d", "kernel", "d2h"}) {
    m.counter(Metric::GpuStageBusyNs, {{"stage", stage}});
  }
  const double hits = m.counter_value("gpu_cache_hits_total");
  const double misses = m.counter_value("gpu_cache_misses_total");
  m.gauge(Metric::CacheHitRatio).set(hits + misses > 0 ? hits / (hits + misses) : 0.0);

  const double loc_hits = m.counter_value("gstream_locality_hits_total");
  const double loc_misses = m.counter_value("gstream_locality_misses_total");
  m.gauge(Metric::LocalityHitRatio)
      .set(loc_hits + loc_misses > 0 ? loc_hits / (loc_hits + loc_misses) : 0.0);

  // Cluster-wide copy-compute overlap efficiency: how much of the hideable
  // copy time (bounded by min(copy busy, kernel busy) per GPU) actually ran
  // concurrently with a kernel. The per-GPU gauges carry the local values;
  // this rolls them up for the headline tables.
  const double overlap = m.counter_sum("gpu_copy_compute_overlap_ns_total");
  const double copy_busy =
      m.counter_sum("gpu_h2d_busy_ns_total") + m.counter_sum("gpu_d2h_busy_ns_total");
  const double kernel_busy = m.counter_sum("gpu_kernel_busy_ns_total");
  const double hideable = std::min(copy_busy, kernel_busy);
  m.gauge(Metric::CopyComputeOverlapEfficiency).set(hideable > 0 ? overlap / hideable : 0.0);
}

}  // namespace gflink::obs
