#include "obs/metrics.hpp"

namespace gflink::obs {

std::string MetricId::to_string() const {
  if (labels.empty()) return name;
  std::string out = name + "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + v + "\"";
  }
  out += "}";
  return out;
}

Counter& MetricsRegistry::counter(Metric family, Labels labels) {
  const MetricFamily& f = metric_family(family);
  auto [it, created] = counters_.try_emplace(MetricId{std::string(f.name), std::move(labels)});
  if (created) check_metric_registration(f, MetricKind::Counter, it->first.labels);
  return it->second;
}

Gauge& MetricsRegistry::gauge(Metric family, Labels labels) {
  const MetricFamily& f = metric_family(family);
  auto [it, created] = gauges_.try_emplace(MetricId{std::string(f.name), std::move(labels)});
  if (created) check_metric_registration(f, MetricKind::Gauge, it->first.labels);
  return it->second;
}

sim::Histogram& MetricsRegistry::histogram(Metric family, Labels labels) {
  const MetricFamily& f = metric_family(family);
  MetricId id{std::string(f.name), std::move(labels)};
  auto it = histograms_.find(id);
  if (it == histograms_.end()) {
    // Checked before the histogram is built: a non-histogram family has no
    // layout to build it from.
    check_metric_registration(f, MetricKind::Histogram, id.labels);
    it = histograms_
             .emplace(std::move(id), sim::Histogram(f.layout.lo, f.layout.hi, f.layout.buckets))
             .first;
  }
  return it->second;
}

double MetricsRegistry::counter_value(const std::string& name, const Labels& labels) const {
  auto it = counters_.find(MetricId{name, labels});
  return it == counters_.end() ? 0.0 : it->second.value();
}

double MetricsRegistry::gauge_value(const std::string& name, const Labels& labels) const {
  auto it = gauges_.find(MetricId{name, labels});
  return it == gauges_.end() ? 0.0 : it->second.value();
}

double MetricsRegistry::counter_sum(const std::string& name) const {
  double total = 0.0;
  // Counters with one name sort adjacently (name is the major key).
  for (auto it = counters_.lower_bound(MetricId{name, {}});
       it != counters_.end() && it->first.name == name; ++it) {
    total += it->second.value();
  }
  return total;
}

const sim::Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                      const Labels& labels) const {
  auto it = histograms_.find(MetricId{name, labels});
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  if (&other == this) return;
  for (const auto& [id, c] : other.counters_) counters_[id].inc(c.value());
  for (const auto& [id, g] : other.gauges_) gauges_[id].set(g.value());
  for (const auto& [id, h] : other.histograms_) {
    auto it = histograms_.find(id);
    if (it == histograms_.end()) {
      histograms_.emplace(id, h);
    } else {
      it->second.merge(h);
    }
  }
}

Json MetricsRegistry::to_json() const {
  Json root = Json::object();
  Json counters = Json::array();
  for (const auto& [id, c] : counters_) {
    Json entry = Json::object();
    entry["name"] = id.name;
    Json labels = Json::object();
    for (const auto& [k, v] : id.labels) labels[k] = v;
    entry["labels"] = std::move(labels);
    entry["value"] = c.value();
    counters.push_back(std::move(entry));
  }
  root["counters"] = std::move(counters);

  Json gauges = Json::array();
  for (const auto& [id, g] : gauges_) {
    Json entry = Json::object();
    entry["name"] = id.name;
    Json labels = Json::object();
    for (const auto& [k, v] : id.labels) labels[k] = v;
    entry["labels"] = std::move(labels);
    entry["value"] = g.value();
    gauges.push_back(std::move(entry));
  }
  root["gauges"] = std::move(gauges);

  Json histograms = Json::array();
  for (const auto& [id, h] : histograms_) {
    Json entry = Json::object();
    entry["name"] = id.name;
    Json labels = Json::object();
    for (const auto& [k, v] : id.labels) labels[k] = v;
    entry["labels"] = std::move(labels);
    const sim::Summary& s = h.summary();
    entry["count"] = s.count();
    entry["sum"] = s.sum();
    entry["mean"] = s.mean();
    entry["min"] = s.min();
    entry["max"] = s.max();
    entry["p50"] = h.quantile(0.50);
    entry["p95"] = h.quantile(0.95);
    entry["p99"] = h.quantile(0.99);
    histograms.push_back(std::move(entry));
  }
  root["histograms"] = std::move(histograms);
  return root;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace gflink::obs
