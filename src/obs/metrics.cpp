#include "obs/metrics.hpp"

#include "sim/util.hpp"

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

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return counters_[MetricId{name, std::move(labels)}];
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return gauges_[MetricId{name, std::move(labels)}];
}

sim::Histogram& MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                           std::size_t buckets, Labels labels) {
  MetricId id{name, std::move(labels)};
  auto it = histograms_.find(id);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::move(id), sim::Histogram(lo, hi, buckets)).first;
  } else {
    // Re-registration with a different layout would silently hand back a
    // histogram whose buckets mean something else — fail loudly instead.
    // (Histogram::buckets() counts the under/overflow slots, hence + 2.)
    GFLINK_CHECK_MSG(it->second.lo() == lo && it->second.hi() == hi &&
                         it->second.buckets() == buckets + 2,
                     "MetricsRegistry::histogram re-registered with a different "
                     "lo/hi/buckets layout");
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
