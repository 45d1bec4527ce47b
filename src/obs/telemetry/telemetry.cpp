#include "obs/telemetry/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/span.hpp"

namespace gflink::obs::telemetry {

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

// ---- Telemetry -------------------------------------------------------------

Telemetry::Telemetry(sim::Simulation& sim, TelemetryConfig config)
    : sim_(&sim), config_(config) {
  sim_->set_period_observer(config_.period, [this](sim::Time at) { tick(at); });
}

Telemetry::~Telemetry() { sim_->set_period_observer(0, nullptr); }

void Telemetry::add_probe(int node, Metric family, Labels labels, Probe probe) {
  const MetricFamily& f = metric_family(family);
  const bool counter = f.kind == MetricKind::SampledCounter;
  check_metric_registration(f, counter ? MetricKind::SampledCounter : MetricKind::SampledGauge,
                            labels);
  auto it = std::find_if(series_.begin(), series_.end(), [&](const Series& s) {
    return s.name == f.name && s.labels == labels;
  });
  if (it == series_.end()) {
    Series& s = series_.emplace_back();
    s.name = std::string(f.name);
    s.labels = std::move(labels);
    s.counter = counter;
    s.anomaly = std::find(kAnomalySeries.begin(), kAnomalySeries.end(), family) !=
                kAnomalySeries.end();
    s.straggler = family == kStragglerSeries;
    it = series_.end() - 1;
  }
  it->nodes.push_back(Series::Node{node, std::move(probe)});
}

const Telemetry::Series* Telemetry::find_series(const std::string& name,
                                                const Labels& labels) const {
  for (const Series& s : series_) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

void Telemetry::observe_completion(const std::string& tenant, sim::Duration latency) {
  if (config_.slo_ms <= 0.0) return;
  TenantSlo& t = slo_[tenant];
  ++t.total;
  ++t.window_total;
  const double objective_ns = config_.slo_ms * 1.0e6;
  if (static_cast<double>(latency) > objective_ns) ++t.window_breach;
}

void Telemetry::tick(sim::Time at) {
  ++periods_;
  const std::size_t first_event = events_.size();
  for (Series& s : series_) {
    s.cluster = 0.0;
    for (Series::Node& n : s.nodes) {
      const double raw = n.probe();
      n.last = s.counter ? raw - n.prev : raw;
      n.prev = raw;
      s.cluster += n.last;
    }
    if (s.anomaly) detect_anomaly(at, s);
    if (s.straggler) detect_straggler(at, s);
  }
  detect_slo_burn(at);
  if (timeline_ != nullptr) write_timeline_record(at, first_event);
}

void Telemetry::detect_anomaly(sim::Time at, Series& s) {
  for (Series::Node& n : s.nodes) {
    const double x = n.last;
    if (n.cooldown > 0) --n.cooldown;
    if (n.observed == 0) {
      n.mean = x;
      n.var = 0.0;
      n.observed = 1;
      continue;
    }
    // Test against the state *before* this observation folds in, so a
    // spike cannot mask itself.
    const double sigma = std::max(std::sqrt(n.var), kZMinSigma);
    const double z = (x - n.mean) / sigma;
    if (n.observed >= kWarmupPeriods && n.cooldown == 0 && z > kZThreshold) {
      HealthEvent event(at, n.node, "queue_anomaly", z, kZThreshold);
      event.series = s.name;
      events_.push_back(std::move(event));
      n.cooldown = kCooldownPeriods;
    }
    const double d = x - n.mean;
    n.mean += kEwmaAlpha * d;
    n.var = (1.0 - kEwmaAlpha) * (n.var + kEwmaAlpha * d * d);
    ++n.observed;
  }
}

void Telemetry::detect_straggler(sim::Time at, Series& s) {
  const double period = static_cast<double>(config_.period);
  // Fold this period's busy ratio into each node's EWMA first, so the peer
  // comparison below sees every node at the same age.
  for (Series::Node& n : s.nodes) {
    const double ratio = n.last / period;
    if (n.observed == 0) {
      n.mean = ratio;
      n.observed = 1;
    } else {
      n.mean += kEwmaAlpha * (ratio - n.mean);
      ++n.observed;
    }
  }
  if (s.nodes.size() < 2) return;
  // The same peer-group p95 the post-hoc span report uses: an offline
  // straggler and a live straggler agree on "slower than the peers".
  std::vector<double> means;
  means.reserve(s.nodes.size());
  for (const Series::Node& n : s.nodes) means.push_back(n.mean);
  const double p95 = nearest_rank_p95(std::move(means));
  for (Series::Node& n : s.nodes) {
    if (n.cooldown > 0) --n.cooldown;
    const double score = n.mean / std::max(p95, 1.0e-9);
    const bool over = n.mean >= kStragglerMinRatio && score >= kStragglerScore;
    n.streak = over ? n.streak + 1 : 0;
    if (over && n.streak >= kStragglerConsecutive && n.cooldown == 0 &&
        n.observed >= kWarmupPeriods) {
      HealthEvent event(at, n.node, "straggler", score, kStragglerScore);
      event.series = s.name;
      events_.push_back(std::move(event));
      n.cooldown = kCooldownPeriods;
      n.streak = 0;
    }
  }
}

void Telemetry::detect_slo_burn(sim::Time at) {
  if (config_.slo_ms <= 0.0) return;
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
      t.burn_ewma += kEwmaAlpha * (frac - t.burn_ewma);
    }
    ++t.observed;
    t.window_total = 0;
    t.window_breach = 0;
    const double burn = t.burn_ewma / kSloBudget;
    if (t.total >= kSloMinCompletions && t.cooldown == 0 && burn >= kSloBurnThreshold) {
      HealthEvent event(at, 0, "slo_burn", burn, kSloBurnThreshold);
      event.tenant = tenant;
      events_.push_back(std::move(event));
      t.cooldown = kCooldownPeriods;
    }
  }
}

void Telemetry::write_timeline_record(sim::Time at, std::size_t first_event) {
  Json j = Json::object();
  j["schema"] = "gflink.telemetry/v1";
  j["run"] = timeline_run_;
  j["period"] = periods_;
  j["at_ns"] = static_cast<std::int64_t>(at);
  Json series = Json::array();
  for (const Series& s : series_) {
    Json entry = Json::object();
    entry["name"] = s.name;
    if (!s.labels.empty()) {
      Json labels = Json::object();
      for (const auto& [k, v] : s.labels) labels[k] = v;
      entry["labels"] = std::move(labels);
    }
    entry["cluster"] = s.cluster;
    Json nodes = Json::array();
    for (const Series::Node& n : s.nodes) {
      Json pair = Json::array();
      pair.push_back(n.node);
      pair.push_back(n.last);
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

std::string Telemetry::prometheus_text() const {
  std::ostringstream out;
  std::set<std::string> typed;
  for (const Series& s : series_) {
    if (typed.insert(s.name).second) out << "# TYPE " << s.name << " gauge\n";
    for (const Series::Node& n : s.nodes) {
      out << s.name << "{node=\"" << n.node << "\"";
      for (const auto& [k, v] : s.labels) out << "," << k << "=\"" << prometheus_escape(v) << "\"";
      out << "} " << n.last << "\n";
    }
  }
  const std::string_view periods = metric_family(Metric::TelemetryPeriods).name;
  out << "# TYPE " << periods << " counter\n";
  out << periods << " " << periods_ << "\n";
  std::map<std::string, std::map<int, int>> tally;
  for (const HealthEvent& ev : events_) ++tally[ev.detector][ev.node];
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
