// Telemetry: the run sampled over time, as a read-only observer of the
// event loop.
//
// Everything else in src/obs (run reports, span DAGs, critical paths,
// flight dumps) is an autopsy: nothing is visible until the run finishes.
// GFlink's evaluation also reasons about per-node load *over time*, so a
// `Telemetry` samples the run on a sim-time period. It is the
// Simulation's period observer (sim::Simulation::set_period_observer):
// the event loop calls it at every period boundary the clock crosses,
// before that instant's events run. On each tick it
//
//  * reads every probe (closures over the gauges and counters the rest of
//    the system already keeps; see probes.hpp) — a SampledGauge as-is, a
//    SampledCounter as its delta since the last tick;
//  * forms each series' cluster-wide sum over the nodes that report it;
//  * runs the online detectors: an EWMA+z-score anomaly flag on queue
//    depths, a live straggler score that reuses the span layer's
//    peer-group test (obs::nearest_rank_p95, so an offline straggler and
//    a live one agree on "slower than the peers"), and a per-tenant SLO
//    burn rate against a declared latency objective. Every firing is a
//    `HealthEvent`, kept here and written to the timeline;
//  * writes one `gflink.telemetry/v1` JSONL record when a timeline sink is
//    set.
//
// The observer schedules no event, ships nothing and writes nothing into
// the run's MetricsRegistry or flight recorder, so a run with telemetry
// executes the same events, ends at the same virtual time and reports the
// same digest as a run without it. prometheus_text() renders the latest
// tick's values and the telemetry's own period and health-event counts.
//
// Every probe series is a Telemetry family of the metric catalog
// (obs/metric_families.hpp), whose name suffix is checked against its unit
// at compile time; a HealthEvent cannot be built without the node it
// points at.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metric_families.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace gflink::obs::telemetry {

/// One detector firing. `detector` is "straggler", "slo_burn" or
/// "queue_anomaly"; `node` is the node the signal points at (0 = master
/// for cluster-level detections such as SLO burn). The constructor takes
/// the node, so no event exists without one.
struct HealthEvent {
  HealthEvent(sim::Time at, int node, std::string detector, double value, double threshold)
      : at(at), node(node), detector(std::move(detector)), value(value), threshold(threshold) {}

  sim::Time at;
  int node;
  std::string detector;
  std::string series;  // triggering series name ("" for slo_burn)
  std::string tenant;  // slo_burn only
  double value;  // z-score / straggler score / burn rate
  double threshold;

  Json to_json() const;
};

struct TelemetryConfig {
  /// Sim-time sampling period.
  sim::Duration period = sim::millis(1);
  /// Declared end-to-end latency objective (enqueue -> completion) for
  /// every tenant, in milliseconds. 0 disables the SLO burn detector.
  double slo_ms = 0.0;
};

// ---- Detector constants --------------------------------------------------

/// Smoothing factor of every detector's EWMA state.
inline constexpr double kEwmaAlpha = 0.2;
/// Periods of state warm-up before a detector may fire.
inline constexpr int kWarmupPeriods = 8;
/// Periods a detector stays quiet after firing.
inline constexpr int kCooldownPeriods = 16;

/// Anomaly: fire when (x - mean) / max(sigma, kZMinSigma) exceeds this...
inline constexpr double kZThreshold = 4.0;
/// ...where the sigma floor makes a flat series need a jump of at least
/// kZThreshold * kZMinSigma units, not an epsilon.
inline constexpr double kZMinSigma = 1.0;
/// The series the anomaly detector watches: the queue depths.
inline constexpr std::array<Metric, 4> kAnomalySeries = {
    Metric::TelemetryGstreamQueueDepth,
    Metric::TelemetrySpillQueueDepth,
    Metric::TelemetryShuffleInFlight,
    Metric::TelemetryServicePending,
};

/// Straggler: the counter series whose per-period delta is a node's busy
/// signal. A node fires when its EWMA busy ratio exceeds the peer group's
/// nearest-rank p95 by kStragglerScore, for kStragglerConsecutive periods
/// in a row, while the ratio is at least kStragglerMinRatio.
inline constexpr Metric kStragglerSeries = Metric::TelemetryTaskBusyNs;
inline constexpr double kStragglerScore = 1.5;
inline constexpr int kStragglerConsecutive = 3;
inline constexpr double kStragglerMinRatio = 0.5;

/// SLO burn: the tolerated fraction of completions over the objective; a
/// tenant fires when EWMA(breach fraction) / budget reaches the threshold
/// after at least kSloMinCompletions completions.
inline constexpr double kSloBudget = 0.1;
inline constexpr double kSloBurnThreshold = 2.0;
inline constexpr std::uint64_t kSloMinCompletions = 3;

class Telemetry {
 public:
  using Probe = std::function<double()>;
  using Labels = std::vector<std::pair<std::string, std::string>>;

  /// One probed quantity across the nodes that report it.
  struct Series {
    struct Node {
      int node;
      Probe probe;
      double prev = 0.0;  // counter probes: the last cumulative value
      double last = 0.0;  // this tick's value (a counter's delta)
      double mean = 0.0;  // detector EWMA state
      double var = 0.0;
      int observed = 0;   // detector warm-up count
      int streak = 0;     // straggler: consecutive over-score periods
      int cooldown = 0;   // periods left before the detector re-arms
    };
    std::string name;
    Labels labels;
    bool counter = false;
    bool anomaly = false;    // watched by the EWMA+z detector
    bool straggler = false;  // the straggler signal series
    double cluster = 0.0;    // this tick's sum over nodes
    std::vector<Node> nodes;  // registration order
  };

  /// Installs itself as `sim`'s period observer; the first tick is one
  /// period from now.
  Telemetry(sim::Simulation& sim, TelemetryConfig config);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Register a probe of a sampled family on `node` (wiring time). A
  /// SampledGauge is sampled as-is each tick; a SampledCounter as the
  /// per-tick delta of the cumulative value the probe returns.
  void add_probe(int node, Metric family, Labels labels, Probe probe);

  /// One JSON record per tick is written here when set, each naming `run`
  /// ("flink" or "gflink"), so one file can hold the timelines of several
  /// runs.
  void set_timeline_sink(std::ostream* out, std::string run) {
    timeline_ = out;
    timeline_run_ = std::move(run);
  }

  /// SLO feed: one job completion (JobService::set_completion_observer).
  void observe_completion(const std::string& tenant, sim::Duration latency);

  const Series* find_series(const std::string& name, const Labels& labels = {}) const;
  const std::vector<HealthEvent>& events() const { return events_; }
  std::uint64_t periods() const { return periods_; }

  /// Prometheus text exposition of the latest tick: every series as a
  /// per-node gauge (counters as their last per-period delta) plus the
  /// period and health-event counts.
  std::string prometheus_text() const;

 private:
  struct TenantSlo {
    std::uint64_t total = 0;          // completions ever
    std::uint64_t window_total = 0;   // completions since the last tick
    std::uint64_t window_breach = 0;  // of which over the objective
    double burn_ewma = 0.0;           // EWMA of the per-period breach fraction
    int observed = 0;
    int cooldown = 0;
  };

  void tick(sim::Time at);
  void detect_anomaly(sim::Time at, Series& s);
  void detect_straggler(sim::Time at, Series& s);
  void detect_slo_burn(sim::Time at);
  void write_timeline_record(sim::Time at, std::size_t first_event);

  sim::Simulation* sim_;
  TelemetryConfig config_;
  std::ostream* timeline_ = nullptr;
  std::string timeline_run_;
  std::vector<Series> series_;  // registration order (deterministic)
  std::vector<double> scratch_;  // straggler p95 peer buffer
  std::map<std::string, TenantSlo> slo_;  // ordered: deterministic detection
  std::vector<HealthEvent> events_;
  std::uint64_t periods_ = 0;
};

}  // namespace gflink::obs::telemetry
