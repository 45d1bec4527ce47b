// Machine-readable run reports: one JSON document per bench/sim run.
//
// A RunReport collects the run's configuration, wall and virtual time, host
// peak RSS, a metrics snapshot and per-lane utilization rollups, and
// serializes them as the `BENCH_<name>.json` documents that populate the
// perf trajectory. Each document carries a `digest` of its modelled fields
// (everything but wall_seconds, peak_rss_mb, trace_store_bytes and
// span_index_bytes);
// tools/bench_gate.py compares it with bench/digests.json.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "sim/time.hpp"

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace gflink::obs {

struct RunReport {
  std::string name;                // e.g. "fig5_overview"
  Json config = Json::object();    // free-form run configuration
  double wall_seconds = 0.0;       // host wall-clock of the whole run
  double peak_rss_mb = 0.0;        // host peak resident set (host_peak_rss_mb())
  std::uint64_t trace_store_bytes = 0;  // SpanStore::retained_bytes() of the last traced run
  std::uint64_t span_index_bytes = 0;   // the child index capture_spans() walked
  sim::Time virtual_ns = 0;        // simulated time (summed across cases)
  MetricsRegistry metrics;         // accumulated metric snapshot
  std::map<std::string, LaneUtilization> lanes;  // from the last traced run
  std::optional<CriticalPath> critical_path;  // empty when untraced
  Json stragglers;                 // array of Straggler::to_json(); Null when untraced
  /// Per-tenant fairness section (schema v3): filled from
  /// service::JobService::fairness_json() on multi-tenant runs, Null
  /// otherwise (single-tenant reports simply omit the key).
  Json tenants;

  /// Record one configuration entry (string/number/bool via Json ctors).
  void set_config(const std::string& key, Json value) { config[key] = std::move(value); }

  /// Capture per-lane utilization rollups from a store's lane intervals.
  void capture_lanes(const SpanStore& store, sim::Time horizon = 0) {
    lanes = lane_utilization(store, horizon);
  }

  /// Run the DAG analyses over a retaining span store, over one child
  /// index: fills critical_path, the stragglers section and
  /// span_index_bytes.
  void capture_spans(const SpanStore& spans);

  /// The report document. `digest` is FNV-1a 64 (16 hex characters) over
  /// the compact dump of every member except wall_seconds, peak_rss_mb,
  /// trace_store_bytes, span_index_bytes and the digest itself, which come
  /// last.
  Json to_json() const;

  /// Write the pretty-printed JSON document; false on I/O failure.
  bool write(const std::string& path) const;
};

/// Peak resident set size of this process so far, in MiB: VmHWM from
/// /proc/self/status, or getrusage's ru_maxrss where that is missing.
double host_peak_rss_mb();

}  // namespace gflink::obs
