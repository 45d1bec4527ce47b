#include "obs/run_report.hpp"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

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
  SpanAnalysis analysis = analyze_spans(spans);
  critical_path = std::move(analysis.critical_path);
  stragglers = Json::array();
  for (const auto& s : analysis.stragglers) stragglers.push_back(s.to_json());
  span_index_bytes = analysis.index_bytes;
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
  if (critical_path) root["critical_path"] = critical_path->to_json();
  if (!stragglers.is_null()) root["stragglers"] = stragglers;
  if (!tenants.is_null()) root["tenants"] = tenants;
  // Everything above is modelled and deterministic, so its compact dump is
  // the run's digest. The host measurements follow it, outside the digest.
  const std::string digest = fnv1a_hex(root.dump());
  root["digest"] = digest;
  root["wall_seconds"] = wall_seconds;
  root["peak_rss_mb"] = peak_rss_mb;
  root["trace_store_bytes"] = trace_store_bytes;
  root["span_index_bytes"] = span_index_bytes;
  return root;
}

bool RunReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json().dump(2) << "\n";
  return static_cast<bool>(out);
}

double host_peak_rss_mb() {
  // VmHWM is this process's own peak. ru_maxrss is not: Linux carries it
  // across exec, so a process launched from a larger parent would report
  // the parent's peak. It is the fallback where /proc is missing.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // VmHWM is in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace gflink::obs
