#include "obs/metric_families.hpp"

#include <sstream>

#include "sim/util.hpp"

namespace gflink::obs {

namespace {

constexpr bool entries_in_enum_order() {
  for (std::size_t i = 0; i < kMetricFamilies.size(); ++i) {
    if (static_cast<std::size_t>(kMetricFamilies[i].id) != i) return false;
  }
  return true;
}

constexpr bool names_unique() {
  for (std::size_t i = 0; i < kMetricFamilies.size(); ++i) {
    for (std::size_t j = i + 1; j < kMetricFamilies.size(); ++j) {
      if (kMetricFamilies[i].name == kMetricFamilies[j].name) return false;
    }
  }
  return true;
}

constexpr bool keys_sorted(const LabelKeys& keys) {
  for (std::size_t i = 0; i < keys.size; ++i) {
    if (keys.names[i].empty()) return false;
    if (i > 0 && !(keys.names[i - 1] < keys.names[i])) return false;
  }
  return true;
}

constexpr bool all_keys_sorted() {
  for (const MetricFamily& f : kMetricFamilies) {
    if (!keys_sorted(f.keys) || (f.alt_keys && !keys_sorted(*f.alt_keys))) return false;
  }
  return true;
}

constexpr bool histograms_have_layouts() {
  for (const MetricFamily& f : kMetricFamilies) {
    const bool hist = f.kind == MetricKind::Histogram;
    const bool laid_out = f.layout.buckets > 0 && f.layout.hi > f.layout.lo;
    if (hist != laid_out) return false;
  }
  return true;
}

/// Families of one subsystem are contiguous, so the catalog renders one
/// table per subsystem.
constexpr bool subsystems_grouped() {
  for (std::size_t i = 1; i < kMetricFamilies.size(); ++i) {
    if (kMetricFamilies[i].subsystem < kMetricFamilies[i - 1].subsystem) return false;
  }
  return true;
}

constexpr bool has_key(const LabelKeys& keys, std::string_view key) {
  for (std::size_t i = 0; i < keys.size; ++i) {
    if (keys.names[i] == key) return true;
  }
  return false;
}

/// Every key set a family accepts carries `key`.
constexpr bool family_carries(const MetricFamily& f, std::string_view key) {
  return has_key(f.keys, key) && (!f.alt_keys || has_key(*f.alt_keys, key));
}

constexpr bool subsystem_carries(Subsystem subsystem, std::string_view key) {
  for (const MetricFamily& f : kMetricFamilies) {
    if (f.subsystem == subsystem && !family_carries(f, key)) return false;
  }
  return true;
}

/// The telemetry-plane naming rule: a Prometheus-style suffix that says
/// the unit (`_total` for counts, `_bytes[_total]`, `_ns[_total]`,
/// `_ratio`); no other unit is allowed on the plane.
constexpr bool suffix_matches_unit(const MetricFamily& f) {
  const std::string_view n = f.name;
  switch (f.unit) {
    case Unit::Count: return n.ends_with("_total");
    case Unit::Bytes: return n.ends_with("_bytes") || n.ends_with("_bytes_total");
    case Unit::Nanoseconds: return n.ends_with("_ns") || n.ends_with("_ns_total");
    case Unit::Ratio: return n.ends_with("_ratio");
    default: return false;
  }
}

constexpr bool telemetry_suffixes_match_units() {
  for (const MetricFamily& f : kMetricFamilies) {
    if (f.subsystem == Subsystem::Telemetry && !suffix_matches_unit(f)) return false;
  }
  return true;
}

static_assert(kMetricFamilies.size() == static_cast<std::size_t>(Metric::kCount),
              "every Metric needs exactly one kMetricFamilies entry");
static_assert(entries_in_enum_order(), "kMetricFamilies must list families in Metric order");
static_assert(names_unique(), "two metric families share a name");
static_assert(all_keys_sorted(), "label keys must be non-empty and in ascending order");
static_assert(subsystems_grouped(), "kMetricFamilies must group families by Subsystem");
static_assert(histograms_have_layouts(), "histograms (and only histograms) carry a layout");
static_assert(subsystem_carries(Subsystem::Spill, "tier"),
              "every spill family must carry a tier label");
static_assert(subsystem_carries(Subsystem::Service, "tenant"),
              "every service family must carry a tenant label");
static_assert(telemetry_suffixes_match_units(),
              "a telemetry-plane family's name suffix must match its unit "
              "(_total, _bytes, _ns or _ratio)");

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
    case MetricKind::SampledGauge: return "sampled gauge";
    case MetricKind::SampledCounter: return "sampled counter";
  }
  return "?";
}

const char* unit_name(Unit unit) {
  switch (unit) {
    case Unit::Count: return "count";
    case Unit::Bytes: return "bytes";
    case Unit::Nanoseconds: return "ns";
    case Unit::Milliseconds: return "ms";
    case Unit::Seconds: return "s";
    case Unit::Ratio: return "ratio";
    case Unit::PerSecond: return "1/s";
    case Unit::None: return "-";
  }
  return "?";
}

const char* subsystem_title(Subsystem subsystem) {
  switch (subsystem) {
    case Subsystem::Dfs: return "GDFS (`src/dfs`)";
    case Subsystem::Engine: return "Engine (`src/dataflow`)";
    case Subsystem::Gpu: return "GPU device & cache (`src/core`)";
    case Subsystem::GStream: return "GStream scheduler (`src/core`; ratios derived in `src/obs`)";
    case Subsystem::Net: return "Network (`src/net`)";
    case Subsystem::Shuffle: return "Shuffle (`src/shuffle`)";
    case Subsystem::Spill: return "Spill tier store (`src/spill`; every family carries tier)";
    case Subsystem::Service: return "JobService (`src/service`; every family carries tenant)";
    case Subsystem::Trace: return "Causal tracing & flight recorder (`src/obs`)";
    case Subsystem::Telemetry:
      return "Telemetry plane (`src/obs/telemetry`; sampled series also carry node on export)";
    case Subsystem::Bench: return "Bench report gauges (`bench/`)";
  }
  return "?";
}

std::string labels_cell(const MetricFamily& f) {
  std::string cell = f.keys.size == 0 ? "none" : f.keys.to_string();
  if (f.alt_keys) cell += " or " + (f.alt_keys->size == 0 ? "none" : f.alt_keys->to_string());
  return cell;
}

}  // namespace

std::string LabelKeys::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < size; ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

void metric_registration_failed(const MetricFamily& f, MetricKind as, const std::string& got_keys) {
  std::string expected = "{" + f.keys.to_string() + "}";
  if (f.alt_keys) expected += " or {" + f.alt_keys->to_string() + "}";
  sim::check_failed("series registered through its family", __FILE__, __LINE__,
                    "metric family '" + std::string(f.name) + "' is a " +
                        metric_kind_name(f.kind) + " with label keys " + expected +
                        ", registered as a " + metric_kind_name(as) + " with label keys {" +
                        got_keys + "}");
}

std::string render_metric_catalog() {
  std::ostringstream out;
  const MetricFamily* prev = nullptr;
  for (const MetricFamily& f : kMetricFamilies) {
    if (prev == nullptr || prev->subsystem != f.subsystem) {
      if (prev != nullptr) out << "\n";
      out << subsystem_title(f.subsystem) << ":\n\n"
          << "| Name | Kind | Unit | Labels | Meaning |\n"
          << "|---|---|---|---|---|\n";
    }
    out << "| `" << f.name << "` | " << metric_kind_name(f.kind) << " | " << unit_name(f.unit)
        << " | " << labels_cell(f) << " | " << f.help;
    if (f.kind == MetricKind::Histogram) {
      out << " (" << f.layout.buckets << " buckets over [" << f.layout.lo << ", " << f.layout.hi
          << "))";
    }
    out << " |\n";
    prev = &f;
  }
  return out.str();
}

}  // namespace gflink::obs
