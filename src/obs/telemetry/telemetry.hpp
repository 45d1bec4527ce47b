// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// The live telemetry plane: in-run sampling, master-side aggregation,
// online health detectors, and streaming export.
//
// Everything the rest of src/obs produces (run reports, span DAGs,
// critical paths, flight dumps) is post-hoc: nothing is visible until the
// run finishes. GFlink's evaluation reasons about per-node utilization and
// load *over time*, and the ROADMAP's speculative re-execution item needs
// live straggler/health signals, not an autopsy. The plane has three
// layers:
//
//  * Sampling — one `NodeSampler` per node, driven by a per-node coroutine
//    on a configurable sim-time period. Probes are registered at wiring
//    time (closures over cached gauge accessors and registry counter
//    handles; see probes.hpp); the sample path itself never allocates:
//    each probe's value lands in a fixed-capacity `TimeSeriesRing` that
//    downsamples in place when it wraps (pairwise merge, stride doubling)
//    instead of growing.
//  * Aggregation + detection — the master-side `TelemetryAggregator`
//    collects each node's snapshot (workers ship theirs over the cluster's
//    HCA pipes via remote_write, paying real one-sided-verb latency and
//    bandwidth; the master's own snapshot is a local write), merges them
//    into cluster-wide series, and runs the online detectors each period:
//    EWMA+z-score anomaly flags on queue depths, a per-tenant SLO
//    burn-rate against a declared latency objective, and a live straggler
//    score that reuses the span layer's peer-group semantics
//    (obs::nearest_rank_p95 — an offline straggler and a live straggler
//    agree on what "slower than the peers" means). Every firing emits a
//    structured `HealthEvent`, appended to the flight recorder so a fault
//    dump includes the health timeline leading up to it. The HealthEvent
//    stream is the designed hook for speculative execution (ROADMAP 3).
//  * Export — a Prometheus-text renderer of the latest snapshot, and a
//    JSONL timeline sink (`gflink.telemetry/v1`, one record per sample
//    period). The CLI exposes --telemetry-out / --telemetry-prom /
//    --telemetry-period / --slo-ms.
//
// Overhead budget: a sample is O(probes) closure calls plus one bounded
// ring append per series, and the per-node snapshot ships ~(64 + 12 *
// series) bytes over the HCA once per period — small enough that a
// telemetry-enabled PageRank run stays within 2% of the bare run (guarded
// by bench_telemetry and tools/bench_gate.py).
//
// The plane is simulation-thread state (sampler rings, aggregator series,
// detector state), mutated between suspension points like the registry and
// the flight recorder it writes to (docs/ARCHITECTURE.md, "Single-threaded
// by construction").
//
// Every metric and probe series registered here is a Telemetry family of
// the metric catalog (obs/metric_families.hpp), whose name suffix is
// checked against its unit at compile time; a HealthEvent cannot be built
// without the node it points at.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/cluster.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace gflink::obs::telemetry {

/// Fixed-capacity time series. Appends never allocate: the backing vector
/// is reserved once at construction, and when it fills the ring halves
/// itself in place (adjacent samples merge into their mean, keeping the
/// later timestamp) and doubles its accept stride, so a ring holds the
/// whole run at progressively coarser resolution instead of dropping the
/// head or growing without bound. While the stride is s, every s offered
/// samples collapse into one stored sample (their mean), so long-run
/// averages survive downsampling exactly.
class TimeSeriesRing {
 public:
  struct Sample {
    sim::Time at = 0;
    double value = 0.0;
  };

  explicit TimeSeriesRing(std::size_t capacity);

  /// Offer one sample. Never allocates (the one-time reserve happened in
  /// the constructor).
  void append(sim::Time at, double value);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const Sample& operator[](std::size_t i) const { return samples_[i]; }
  const Sample& back() const { return samples_.back(); }
  /// Samples offered via append() (>= size() once downsampling kicks in).
  std::uint64_t offered() const { return offered_; }
  /// Offered samples currently collapsed into one stored sample.
  std::size_t stride() const { return stride_; }
  /// How many times the ring halved itself.
  std::uint64_t downsamples() const { return downsamples_; }

 private:
  void compact();

  std::size_t capacity_;
  std::vector<Sample> samples_;
  std::size_t stride_ = 1;
  std::uint64_t offered_ = 0;
  std::uint64_t downsamples_ = 0;
  // Partial accept window: mean of the samples offered since the last
  // stored one.
  double acc_ = 0.0;
  std::size_t acc_n_ = 0;
};

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
  /// Sim-time sampling period, shared by every node's sampler.
  sim::Duration period = sim::millis(1);
  /// Per-series ring depth (halved in place on wrap).
  std::size_t ring_capacity = 256;
  /// Modeled size of one node snapshot on the wire: base + per-series
  /// bytes (a timestamp plus one packed value per series).
  std::uint64_t snapshot_base_bytes = 64;
  std::uint64_t snapshot_series_bytes = 12;

  // ---- EWMA+z-score anomaly detector ------------------------------------
  /// Smoothing factor for the EWMA mean/variance detector state.
  double ewma_alpha = 0.2;
  /// Fire when (x - mean) / max(sigma, z_min_sigma) exceeds this.
  double z_threshold = 4.0;
  /// Absolute sigma floor so a flat series (variance ~0) needs a jump of
  /// at least z_threshold * z_min_sigma units to fire, not an epsilon.
  double z_min_sigma = 1.0;
  /// Periods of state warm-up before a detector may fire.
  int warmup_periods = 8;
  /// Periods a (series, node) detector stays quiet after firing.
  int cooldown_periods = 16;
  /// Series the anomaly detector watches (queue depths by default).
  std::vector<Metric> anomaly_series = {
      Metric::TelemetryGstreamQueueDepth,
      Metric::TelemetrySpillQueueDepth,
      Metric::TelemetryShuffleInFlight,
      Metric::TelemetryServicePending,
  };

  // ---- Live straggler score ---------------------------------------------
  /// Counter series whose per-period delta is the per-node busy signal.
  Metric straggler_series = Metric::TelemetryTaskBusyNs;
  /// Fire when a node's EWMA busy ratio exceeds the peer group's
  /// nearest-rank p95 by this factor...
  double straggler_score = 1.5;
  /// ...for this many consecutive periods...
  int straggler_consecutive = 3;
  /// ...while the node is actually busy (EWMA busy ratio floor).
  double straggler_min_ratio = 0.5;

  // ---- Per-tenant SLO burn rate -----------------------------------------
  /// Declared end-to-end latency objective (enqueue -> completion) for
  /// every tenant, in milliseconds. 0 disables the detector.
  double slo_ms = 0.0;
  /// Error budget: tolerated fraction of completions over the objective.
  double slo_budget = 0.1;
  /// Fire when EWMA(breach fraction) / budget reaches this burn rate.
  double slo_burn_threshold = 2.0;
  /// Completions a tenant must have before its burn rate is trusted.
  std::uint64_t slo_min_completions = 3;
};

/// Per-node sample state: the registered probes and their rings. Probe
/// registration is wiring-time (allocates freely); sample() is the hot
/// path and never allocates.
class NodeSampler {
 public:
  using Probe = std::function<double()>;
  using Labels = std::vector<std::pair<std::string, std::string>>;

  NodeSampler(int node, std::size_t ring_capacity);

  /// Register a probe of a sampled family. A SampledGauge is sampled as-is
  /// each period; a SampledCounter as the per-period *delta* of a
  /// monotonic counter (the probe returns the cumulative value).
  void add_probe(Metric family, Labels labels, Probe probe);

  /// Snapshot every probe into its ring and the last-values buffer.
  void sample(sim::Time at);

  struct Series {
    std::string name;
    Labels labels;
    bool counter = false;
    double prev = 0.0;  // counter probes: last cumulative value
    Probe probe;
    TimeSeriesRing ring;

    Series(std::string n, Labels l, bool c, Probe p, std::size_t ring_capacity)
        : name(std::move(n)), labels(std::move(l)), counter(c), probe(std::move(p)),
          ring(ring_capacity) {}
  };

  int node() const { return node_; }
  const std::vector<Series>& series() const { return series_; }
  /// Values of the most recent sample(), parallel to series().
  const std::vector<double>& last_values() const { return values_; }
  std::uint64_t samples() const { return samples_; }
  /// Modeled wire size of one snapshot under `config`.
  std::uint64_t snapshot_bytes(const TelemetryConfig& config) const {
    return config.snapshot_base_bytes + config.snapshot_series_bytes * series_.size();
  }

 private:
  int node_;
  std::size_t ring_capacity_;
  std::vector<Series> series_;
  std::vector<double> values_;
  std::uint64_t samples_ = 0;
};

/// Master-side merge + detection. Nodes are registered once (at plane
/// start); each period every sampler ingests its snapshot, and the last
/// arrival finalizes the period: cluster-wide sums append to the merged
/// rings, the detectors run, and the optional JSONL sink gets one
/// `gflink.telemetry/v1` record.
class TelemetryAggregator {
 public:
  TelemetryAggregator(net::Cluster& cluster, const TelemetryConfig& config);

  /// Health events additionally land in this recorder's event rings
  /// (kind "health_<detector>"), so fault dumps carry the health timeline.
  void attach_flight(FlightRecorder* flight) { flight_ = flight; }
  /// One JSON record per finalized period is written here when set.
  void set_timeline_sink(std::ostream* out) { timeline_ = out; }

  /// Declare a node's series set (called once per sampler by
  /// TelemetryPlane::start(), before any ingest).
  void register_node(const NodeSampler& sampler);

  /// Deliver one node's snapshot for the period sampled at `at`. The last
  /// registered node to arrive finalizes the period.
  void ingest(const NodeSampler& sampler, sim::Time at);

  /// SLO feed: one job completion (JobService::set_completion_observer).
  void observe_completion(const std::string& tenant, sim::Duration latency);

  /// Cluster-wide view of one series: per-period sums across nodes plus
  /// the latest per-node values and detector state.
  struct ClusterSeries {
    std::string name;
    NodeSampler::Labels labels;
    bool counter = false;
    bool anomaly = false;    // watched by the EWMA+z detector
    bool straggler = false;  // the straggler signal series
    TimeSeriesRing ring;     // per-period cluster-wide sums
    std::vector<int> nodes;  // reporting nodes, registration order
    std::vector<double> last;     // latest value per reporting node
    std::vector<double> mean;     // EWMA mean per reporting node
    std::vector<double> var;      // EWMA variance per reporting node
    std::vector<int> observed;    // detector warm-up count per node
    std::vector<int> streak;      // straggler: consecutive over-score periods
    std::vector<int> cooldown;    // periods left before the detector re-arms
    double pending_sum = 0.0;     // accumulating this period's cluster sum
    int pending_count = 0;

    ClusterSeries(std::string n, NodeSampler::Labels l, std::size_t ring_capacity)
        : name(std::move(n)), labels(std::move(l)), ring(ring_capacity) {}
  };

  const std::vector<ClusterSeries>& series() const { return series_; }
  const ClusterSeries* find_series(const std::string& name, const NodeSampler::Labels& labels = {}) const;
  const std::vector<HealthEvent>& events() const { return events_; }
  std::uint64_t periods() const { return periods_; }

 private:
  struct TenantSlo {
    std::uint64_t total = 0;          // completions ever
    std::uint64_t window_total = 0;   // completions since last finalize
    std::uint64_t window_breach = 0;  // of which over the objective
    double burn_ewma = 0.0;           // EWMA of the per-period breach fraction
    int observed = 0;
    int cooldown = 0;
  };

  std::string series_key(const std::string& name, const NodeSampler::Labels& labels) const;
  void finalize(sim::Time at);
  void detect_anomaly(sim::Time at, ClusterSeries& s);
  void detect_straggler(sim::Time at, ClusterSeries& s);
  void detect_slo_burn(sim::Time at);
  void emit(HealthEvent event);
  void write_timeline_record(sim::Time at, std::size_t first_event);

  net::Cluster* cluster_;
  const TelemetryConfig* config_;
  FlightRecorder* flight_ = nullptr;
  std::ostream* timeline_ = nullptr;
  std::vector<ClusterSeries> series_;  // registration order (deterministic)
  std::map<std::string, std::size_t> index_;
  /// Per node: (series index, node slot) for each sampler series, cached at
  /// registration so ingest() is allocation- and lookup-free.
  std::map<int, std::vector<std::pair<std::size_t, std::size_t>>> node_slots_;
  std::vector<double> scratch_;  // straggler p95 peer buffer
  std::map<std::string, TenantSlo> slo_;  // ordered: deterministic detection
  std::vector<HealthEvent> events_;
  int registered_nodes_ = 0;
  int arrived_ = 0;
  std::uint64_t periods_ = 0;
};

/// The whole plane: per-node samplers, their driving coroutines, the
/// master-side aggregator, and the exporters. Wiring order: construct,
/// register probes (probes.hpp or add_probe on sampler()),
/// optionally attach a flight recorder and a timeline sink, start()
/// inside the driver, stop() before the driver returns — each sampler
/// loop observes the stop flag at its next tick and exits, so a drained
/// simulation holds no telemetry processes (Engine::run's
/// live_processes() == 0 check stays valid; virtual time runs at most one
/// period past stop()).
class TelemetryPlane {
 public:
  TelemetryPlane(sim::Simulation& sim, net::Cluster& cluster, TelemetryConfig config);

  const TelemetryConfig& config() const { return config_; }
  net::Cluster& cluster() { return *cluster_; }

  /// The node's sampler (created on first use; wiring-time only).
  NodeSampler& sampler(int node);
  TelemetryAggregator& aggregator() { return aggregator_; }
  const TelemetryAggregator& aggregator() const { return aggregator_; }

  void attach_flight(FlightRecorder* flight) { aggregator_.attach_flight(flight); }
  void set_timeline_sink(std::ostream* out) { aggregator_.set_timeline_sink(out); }

  /// Register every sampler with the aggregator and spawn the per-node
  /// sampling loops (first tick one period from now).
  void start();
  /// Ask the sampling loops to exit at their next tick.
  void stop();
  bool started() const { return started_; }
  bool stopping() const { return stopping_; }

  /// Prometheus text exposition of the latest snapshot: every series as a
  /// per-node gauge (counters as their last per-period delta) plus the
  /// plane's own health/period counters.
  std::string prometheus_text() const;

 private:
  struct PerNode {
    std::unique_ptr<NodeSampler> sampler;
    Counter* samples = nullptr;         // telemetry_samples_total{node}
    Counter* snapshot_bytes = nullptr;  // telemetry_snapshot_bytes_total{node}
    std::string ship_label;             // pipe/span label for the snapshot write
  };

  sim::Co<void> sample_loop(int node);

  sim::Simulation* sim_;
  net::Cluster* cluster_;
  TelemetryConfig config_;
  TelemetryAggregator aggregator_;
  std::map<int, PerNode> nodes_;  // ordered: deterministic start order
  bool started_ = false;
  bool stopping_ = false;
};

}  // namespace gflink::obs::telemetry
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
