#include "obs/telemetry/telemetry.hpp"

#include <cmath>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/span.hpp"
#include "sim/util.hpp"

namespace gflink::obs::telemetry {

// ---- TimeSeriesRing --------------------------------------------------------

TimeSeriesRing::TimeSeriesRing(std::size_t capacity) : capacity_(capacity < 2 ? 2 : capacity) {
  samples_.reserve(capacity_);
}

void TimeSeriesRing::append(sim::Time at, double value) {
  ++offered_;
  acc_ += value;
  ++acc_n_;
  if (acc_n_ < stride_) return;
  const double stored = acc_ / static_cast<double>(acc_n_);
  acc_ = 0.0;
  acc_n_ = 0;
  if (samples_.size() == capacity_) compact();
  samples_.push_back(Sample{at, stored});
}

void TimeSeriesRing::compact() {
  // In-place pairwise merge: adjacent samples collapse into their mean and
  // keep the later timestamp, so the ring spans the whole run at half the
  // resolution. resize() shrinks; push_back() stays within the original
  // reserve — no allocation ever.
  const std::size_t n = samples_.size();
  const std::size_t pairs = n / 2;
  for (std::size_t i = 0; i < pairs; ++i) {
    samples_[i] = Sample{samples_[2 * i + 1].at,
                         (samples_[2 * i].value + samples_[2 * i + 1].value) / 2.0};
  }
  std::size_t kept = pairs;
  if (n % 2 != 0) samples_[kept++] = samples_[n - 1];
  samples_.resize(kept);
  stride_ *= 2;
  ++downsamples_;
}

// ---- HealthEvent -----------------------------------------------------------

Json HealthEvent::to_json() const {
  Json j = Json::object();
  j["at_ns"] = static_cast<std::int64_t>(at);
  j["node"] = node;
  j["detector"] = detector;
  if (!series.empty()) j["series"] = series;
  if (!tenant.empty()) j["tenant"] = tenant;
  j["value"] = value;
  j["threshold"] = threshold;
  return j;
}

// ---- NodeSampler -----------------------------------------------------------

NodeSampler::NodeSampler(int node, std::size_t ring_capacity)
    : node_(node), ring_capacity_(ring_capacity) {}

void NodeSampler::add_probe(Metric family, Labels labels, Probe probe) {
  const MetricFamily& f = metric_family(family);
  const bool counter = f.kind == MetricKind::SampledCounter;
  check_metric_registration(f, counter ? MetricKind::SampledCounter : MetricKind::SampledGauge,
                            labels);
  series_.emplace_back(std::string(f.name), std::move(labels), counter, std::move(probe),
                       ring_capacity_);
  values_.resize(series_.size(), 0.0);
}

void NodeSampler::sample(sim::Time at) {
  ++samples_;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    Series& s = series_[i];
    const double raw = s.probe();
    double v = raw;
    if (s.counter) {
      v = raw - s.prev;
      s.prev = raw;
    }
    s.ring.append(at, v);
    values_[i] = v;
  }
}

// ---- TelemetryAggregator ---------------------------------------------------

TelemetryAggregator::TelemetryAggregator(net::Cluster& cluster, const TelemetryConfig& config)
    : cluster_(&cluster), config_(&config) {}

std::string TelemetryAggregator::series_key(const std::string& name,
                                            const NodeSampler::Labels& labels) const {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

void TelemetryAggregator::register_node(const NodeSampler& sampler) {
  ++registered_nodes_;
  auto& slots = node_slots_[sampler.node()];
  slots.clear();
  slots.reserve(sampler.series().size());
  for (const auto& series : sampler.series()) {
    const std::string key = series_key(series.name, series.labels);
    auto it = index_.find(key);
    std::size_t si = 0;
    if (it == index_.end()) {
      si = series_.size();
      index_.emplace(key, si);
      series_.emplace_back(series.name, series.labels, config_->ring_capacity);
      ClusterSeries& s = series_.back();
      s.counter = series.counter;
      for (const Metric watched : config_->anomaly_series) {
        if (metric_family(watched).name == series.name) s.anomaly = true;
      }
      s.straggler = metric_family(config_->straggler_series).name == series.name;
    } else {
      si = it->second;
    }
    ClusterSeries& s = series_[si];
    s.nodes.push_back(sampler.node());
    s.last.push_back(0.0);
    s.mean.push_back(0.0);
    s.var.push_back(0.0);
    s.observed.push_back(0);
    s.streak.push_back(0);
    s.cooldown.push_back(0);
    slots.emplace_back(si, s.nodes.size() - 1);
  }
}

void TelemetryAggregator::ingest(const NodeSampler& sampler, sim::Time at) {
  const auto& slots = node_slots_.at(sampler.node());
  const auto& values = sampler.last_values();
  GFLINK_CHECK(slots.size() == values.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ClusterSeries& s = series_[slots[i].first];
    s.last[slots[i].second] = values[i];
    s.pending_sum += values[i];
    ++s.pending_count;
  }
  ++arrived_;
  if (arrived_ == registered_nodes_) {
    arrived_ = 0;
    finalize(at);
  }
}

void TelemetryAggregator::observe_completion(const std::string& tenant, sim::Duration latency) {
  if (config_->slo_ms <= 0.0) return;
  TenantSlo& t = slo_[tenant];
  ++t.total;
  ++t.window_total;
  const double objective_ns = config_->slo_ms * 1.0e6;
  if (static_cast<double>(latency) > objective_ns) ++t.window_breach;
}

void TelemetryAggregator::finalize(sim::Time at) {
  ++periods_;
  cluster_->metrics().counter(Metric::TelemetryPeriods).inc();
  const std::size_t first_event = events_.size();
  for (ClusterSeries& s : series_) {
    s.ring.append(at, s.pending_sum);
    if (s.anomaly) detect_anomaly(at, s);
    if (s.straggler) detect_straggler(at, s);
    s.pending_sum = 0.0;
    s.pending_count = 0;
  }
  detect_slo_burn(at);
  if (timeline_ != nullptr) write_timeline_record(at, first_event);
}

void TelemetryAggregator::detect_anomaly(sim::Time at, ClusterSeries& s) {
  const double alpha = config_->ewma_alpha;
  for (std::size_t n = 0; n < s.nodes.size(); ++n) {
    const double x = s.last[n];
    if (s.cooldown[n] > 0) --s.cooldown[n];
    if (s.observed[n] == 0) {
      s.mean[n] = x;
      s.var[n] = 0.0;
      s.observed[n] = 1;
      continue;
    }
    // Test against the state *before* this observation folds in, so a
    // spike cannot mask itself.
    const double sigma = std::max(std::sqrt(s.var[n]), config_->z_min_sigma);
    const double z = (x - s.mean[n]) / sigma;
    if (s.observed[n] >= config_->warmup_periods && s.cooldown[n] == 0 &&
        z > config_->z_threshold) {
      HealthEvent event(at, s.nodes[n], "queue_anomaly", z, config_->z_threshold);
      event.series = s.name;
      emit(std::move(event));
      s.cooldown[n] = config_->cooldown_periods;
    }
    const double d = x - s.mean[n];
    s.mean[n] += alpha * d;
    s.var[n] = (1.0 - alpha) * (s.var[n] + alpha * d * d);
    ++s.observed[n];
  }
}

void TelemetryAggregator::detect_straggler(sim::Time at, ClusterSeries& s) {
  const double alpha = config_->ewma_alpha;
  const double period = static_cast<double>(config_->period);
  // Fold this period's busy ratio into each node's EWMA first, so the peer
  // comparison below sees every node at the same age.
  for (std::size_t n = 0; n < s.nodes.size(); ++n) {
    const double ratio = s.last[n] / period;
    if (s.observed[n] == 0) {
      s.mean[n] = ratio;
      s.observed[n] = 1;
    } else {
      s.mean[n] += alpha * (ratio - s.mean[n]);
      ++s.observed[n];
    }
  }
  if (s.nodes.size() < 2) return;
  // The same peer-group p95 the post-hoc span report uses: an offline
  // straggler and a live straggler agree on "slower than the peers".
  scratch_.assign(s.mean.begin(), s.mean.end());
  const double p95 = nearest_rank_p95(scratch_);
  for (std::size_t n = 0; n < s.nodes.size(); ++n) {
    if (s.cooldown[n] > 0) --s.cooldown[n];
    const double score = s.mean[n] / std::max(p95, 1.0e-9);
    const bool over = s.mean[n] >= config_->straggler_min_ratio &&
                      score >= config_->straggler_score;
    s.streak[n] = over ? s.streak[n] + 1 : 0;
    if (over && s.streak[n] >= config_->straggler_consecutive && s.cooldown[n] == 0 &&
        s.observed[n] >= config_->warmup_periods) {
      HealthEvent event(at, s.nodes[n], "straggler", score, config_->straggler_score);
      event.series = s.name;
      emit(std::move(event));
      s.cooldown[n] = config_->cooldown_periods;
      s.streak[n] = 0;
    }
  }
}

void TelemetryAggregator::detect_slo_burn(sim::Time at) {
  if (config_->slo_ms <= 0.0) return;
  const double alpha = config_->ewma_alpha;
  for (auto& [tenant, t] : slo_) {
    if (t.cooldown > 0) --t.cooldown;
    // Periods with no completions carry no evidence either way: skip the
    // EWMA update rather than letting silence decay a real burn.
    if (t.window_total == 0) continue;
    const double frac =
        static_cast<double>(t.window_breach) / static_cast<double>(t.window_total);
    if (t.observed == 0) {
      t.burn_ewma = frac;
    } else {
      t.burn_ewma += alpha * (frac - t.burn_ewma);
    }
    ++t.observed;
    t.window_total = 0;
    t.window_breach = 0;
    const double burn = t.burn_ewma / std::max(config_->slo_budget, 1.0e-9);
    if (t.total >= config_->slo_min_completions && t.cooldown == 0 &&
        burn >= config_->slo_burn_threshold) {
      HealthEvent event(at, 0, "slo_burn", burn, config_->slo_burn_threshold);
      event.tenant = tenant;
      emit(std::move(event));
      t.cooldown = config_->cooldown_periods;
    }
  }
}

void TelemetryAggregator::emit(HealthEvent event) {
  cluster_->metrics()
      .counter(Metric::HealthEvents,
               {{"detector", event.detector}, {"node", std::to_string(event.node)}})
      .inc();
  if (flight_ != nullptr) {
    std::string detail = event.series.empty() ? event.tenant : event.series;
    detail += " value=";
    detail += std::to_string(event.value);
    flight_->note_event(event.at, event.node, "health_" + event.detector, std::move(detail));
  }
  events_.push_back(std::move(event));
}

void TelemetryAggregator::write_timeline_record(sim::Time at, std::size_t first_event) {
  Json j = Json::object();
  j["schema"] = "gflink.telemetry/v1";
  j["period"] = periods_;
  j["at_ns"] = static_cast<std::int64_t>(at);
  Json series = Json::array();
  for (const ClusterSeries& s : series_) {
    Json entry = Json::object();
    entry["name"] = s.name;
    if (!s.labels.empty()) {
      Json labels = Json::object();
      for (const auto& [k, v] : s.labels) labels[k] = v;
      entry["labels"] = std::move(labels);
    }
    entry["cluster"] = s.ring.empty() ? 0.0 : s.ring.back().value;
    Json nodes = Json::array();
    for (std::size_t n = 0; n < s.nodes.size(); ++n) {
      Json pair = Json::array();
      pair.push_back(s.nodes[n]);
      pair.push_back(s.last[n]);
      nodes.push_back(std::move(pair));
    }
    entry["nodes"] = std::move(nodes);
    series.push_back(std::move(entry));
  }
  j["series"] = std::move(series);
  Json events = Json::array();
  for (std::size_t i = first_event; i < events_.size(); ++i) {
    events.push_back(events_[i].to_json());
  }
  j["events"] = std::move(events);
  *timeline_ << j.dump() << "\n";
}

const TelemetryAggregator::ClusterSeries* TelemetryAggregator::find_series(
    const std::string& name, const NodeSampler::Labels& labels) const {
  auto it = index_.find(series_key(name, labels));
  if (it == index_.end()) return nullptr;
  return &series_[it->second];
}

// ---- TelemetryPlane --------------------------------------------------------

TelemetryPlane::TelemetryPlane(sim::Simulation& sim, net::Cluster& cluster,
                               TelemetryConfig config)
    : sim_(&sim), cluster_(&cluster), config_(std::move(config)),
      aggregator_(cluster, config_) {
  GFLINK_CHECK_MSG(config_.period > 0, "telemetry period must be positive");
}

NodeSampler& TelemetryPlane::sampler(int node) {
  PerNode& pn = nodes_[node];
  if (!pn.sampler) pn.sampler = std::make_unique<NodeSampler>(node, config_.ring_capacity);
  return *pn.sampler;
}

void TelemetryPlane::start() {
  GFLINK_CHECK_MSG(!started_, "telemetry plane started twice");
  started_ = true;
  obs::MetricsRegistry& m = cluster_->metrics();
  for (auto& [node, pn] : nodes_) {
    aggregator_.register_node(*pn.sampler);
    pn.samples = &m.counter(Metric::TelemetrySamples, {{"node", std::to_string(node)}});
    pn.snapshot_bytes =
        &m.counter(Metric::TelemetrySnapshotBytes, {{"node", std::to_string(node)}});
    pn.ship_label = "telemetry/snapshot";
  }
  for (auto& [node, pn] : nodes_) {
    // gflint: allow(C3): the plane outlives the drained simulation (it is
    // owned by the harness that owns the Engine), and the loop exits at its
    // first tick after stop(), so no frame parks past Engine::run.
    sim_->spawn(sample_loop(node));
  }
}

void TelemetryPlane::stop() {
  if (!started_ || stopping_) return;
  stopping_ = true;
  // Ring-health accounting, flushed once: how often each node's rings had
  // to halve themselves (0 means full resolution end to end).
  obs::MetricsRegistry& m = cluster_->metrics();
  for (const auto& [node, pn] : nodes_) {
    std::uint64_t downsamples = 0;
    for (const auto& s : pn.sampler->series()) downsamples += s.ring.downsamples();
    if (downsamples > 0) {
      m.counter(Metric::TelemetryRingDownsamples, {{"node", std::to_string(node)}})
          .inc(static_cast<double>(downsamples));
    }
  }
}

sim::Co<void> TelemetryPlane::sample_loop(int node) {
  PerNode& pn = nodes_.at(node);
  NodeSampler& sampler = *pn.sampler;
  const std::uint64_t ship_bytes = sampler.snapshot_bytes(config_);
  // Absolute schedule: tick k fires at start + k*period even though the
  // snapshot ship below consumes sim time, so ticks never drift and every
  // node samples the same instants (detector firings are comparable across
  // nodes and reproducible down to the nanosecond).
  sim::Time next = sim_->now() + config_.period;
  while (!stopping_) {
    if (next > sim_->now()) co_await sim_->delay(next - sim_->now());
    if (stopping_) break;
    const sim::Time at = next;
    next += config_.period;
    sampler.sample(at);
    pn.samples->inc();
    pn.snapshot_bytes->inc(static_cast<double>(ship_bytes));
    // Workers ship their snapshot to the master over the one-sided HCA
    // path (remote_write is free when src == dst, so the master's own
    // snapshot is a local write).
    if (node != 0) co_await cluster_->remote_write(node, 0, 0, ship_bytes, pn.ship_label);
    // `at` (the tick time), not now(): every node's snapshot of one period
    // carries the same timestamp regardless of shipping latency, so
    // detector firings land exactly on period boundaries.
    aggregator_.ingest(sampler, at);
  }
}

namespace {

std::string prometheus_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string TelemetryPlane::prometheus_text() const {
  std::ostringstream out;
  std::set<std::string> typed;
  for (const auto& s : aggregator_.series()) {
    if (typed.insert(s.name).second) out << "# TYPE " << s.name << " gauge\n";
    for (std::size_t n = 0; n < s.nodes.size(); ++n) {
      out << s.name << "{node=\"" << s.nodes[n] << "\"";
      for (const auto& [k, v] : s.labels) out << "," << k << "=\"" << prometheus_escape(v) << "\"";
      out << "} " << s.last[n] << "\n";
    }
  }
  const std::string_view periods = metric_family(Metric::TelemetryPeriods).name;
  out << "# TYPE " << periods << " counter\n";
  out << periods << " " << aggregator_.periods() << "\n";
  std::map<std::string, std::map<int, int>> tally;
  for (const auto& ev : aggregator_.events()) ++tally[ev.detector][ev.node];
  const std::string_view health = metric_family(Metric::HealthEvents).name;
  if (!tally.empty()) out << "# TYPE " << health << " counter\n";
  for (const auto& [detector, nodes] : tally) {
    for (const auto& [node, count] : nodes) {
      out << health << "{detector=\"" << prometheus_escape(detector) << "\",node=\""
          << node << "\"} " << count << "\n";
    }
  }
  return out.str();
}

}  // namespace gflink::obs::telemetry
