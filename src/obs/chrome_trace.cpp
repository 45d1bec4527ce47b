#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/json.hpp"

namespace gflink::obs {

namespace {

sim::Time latest_interval_end(const SpanStore& store) {
  sim::Time end = 0;
  for (const auto& l : store.lane_intervals()) end = std::max(end, l.end);
  return end;
}

/// "node1.gpu0/h2d" -> process "node1.gpu0", thread "h2d". Lanes without a
/// '/' become a thread of the catch-all process "sim".
std::pair<std::string, std::string> split_lane(const std::string& lane) {
  auto slash = lane.rfind('/');
  if (slash == std::string::npos) return {"sim", lane};
  return {lane.substr(0, slash), lane.substr(slash + 1)};
}

void write_event_prefix(std::ostream& os, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "    ";
}

/// Display lane for a causal span: its own lane if set, otherwise a
/// per-node catch-all so every span lands on some swimlane.
std::string causal_lane(const SpanStore& store, const CausalSpan& s) {
  if (s.lane.v != 0) return store.str(s.lane);
  if (s.node >= 0) return "node" + std::to_string(s.node) + "/causal";
  return "master/causal";
}

}  // namespace

std::map<std::string, LaneUtilization> lane_utilization(const SpanStore& store,
                                                        sim::Time horizon) {
  if (horizon <= 0) horizon = latest_interval_end(store);
  // One pass groups the intervals by lane id; the map then orders lanes by name.
  std::vector<std::vector<std::pair<sim::Time, sim::Time>>> by_lane(store.interned());
  for (const auto& l : store.lane_intervals()) by_lane[l.lane.v].emplace_back(l.begin, l.end);
  std::map<std::string, LaneUtilization> out;
  for (std::uint32_t id = 0; id < by_lane.size(); ++id) {
    if (by_lane[id].empty()) continue;
    LaneUtilization& u = out[store.str(StrId{id})];
    u.spans = by_lane[id].size();
    u.busy_ns = union_length(by_lane[id]);
    u.utilization = horizon > 0 ? static_cast<double>(u.busy_ns) / static_cast<double>(horizon)
                                : 0.0;
  }
  return out;
}

void write_chrome_trace(std::ostream& os, const SpanStore& store,
                        const MetricsRegistry* metrics, sim::Time horizon) {
  if (horizon <= 0) horizon = latest_interval_end(store);
  const SpanStore::ClosedSpans spans = store.spans();

  // Stable pid/tid assignment: processes and threads numbered in first-seen
  // order over the (deterministic) interval and span sequences.
  std::map<std::string, int> pids;   // process name -> pid
  std::map<std::string, int> tids;   // full lane -> tid
  std::vector<std::pair<std::string, std::string>> lane_split;  // tid order
  auto intern_lane = [&](const std::string& lane) {
    if (tids.count(lane)) return;
    auto [proc, thread] = split_lane(lane);
    if (!pids.count(proc)) pids.emplace(proc, static_cast<int>(pids.size()) + 1);
    tids.emplace(lane, static_cast<int>(tids.size()) + 1);
    lane_split.emplace_back(proc, thread);
  };
  for (const auto& l : store.lane_intervals()) intern_lane(store.str(l.lane));
  for (const auto& s : spans) intern_lane(causal_lane(store, s));

  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;

  // Metadata: process and thread names.
  for (const auto& [proc, pid] : pids) {
    write_event_prefix(os, first);
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(proc) << "\"}}";
  }
  for (const auto& [lane, tid] : tids) {
    // tids were assigned in first-seen order, so tid-1 indexes lane_split.
    const auto& [proc, thread] = lane_split[static_cast<std::size_t>(tid) - 1];
    write_event_prefix(os, first);
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pids.at(proc)
       << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << json_escape(thread) << "\"}}";
  }

  // Lane intervals: complete ("X") events, timestamps in microseconds.
  for (const auto& s : store.lane_intervals()) {
    const std::string& lane = store.str(s.lane);
    const auto [proc, thread] = split_lane(lane);
    write_event_prefix(os, first);
    os << "{\"ph\":\"X\",\"name\":\""
       << json_escape(s.label.v == 0 ? thread : store.str(s.label)) << "\",\"cat\":\""
       << json_escape(proc) << "\",\"pid\":" << pids.at(proc)
       << ",\"tid\":" << tids.at(lane) << ",\"ts\":" << sim::to_micros(s.begin)
       << ",\"dur\":" << sim::to_micros(s.duration()) << "}";
  }

  // Causal spans: their own complete events, plus flow events along every
  // parent/child link so viewers draw causality arrows between lanes. The
  // flow start ("s") binds to the parent's slice (ts clamped inside it) and
  // the finish ("f") binds to the child's slice at its begin; the shared id
  // is the child span id (unique per link).
  for (const auto& s : spans) {
    const std::string lane = causal_lane(store, s);
    const auto [proc, thread] = split_lane(lane);
    write_event_prefix(os, first);
    os << "{\"ph\":\"X\",\"name\":\"" << json_escape(store.str(s.name))
       << "\",\"cat\":\"causal\",\"pid\":" << pids.at(proc) << ",\"tid\":" << tids.at(lane)
       << ",\"ts\":" << sim::to_micros(s.begin) << ",\"dur\":" << sim::to_micros(s.duration())
       << ",\"args\":{\"trace\":" << s.trace_id << ",\"span\":" << s.id << ",\"parent\":" << s.parent
       << "}}";
  }
  for (const auto& s : spans) {
    const std::size_t parent = store.index_of(s.parent);
    if (parent == SpanStore::npos) continue;
    const CausalSpan p = spans[parent];
    const std::string plane = causal_lane(store, p);
    const std::string clane = causal_lane(store, s);
    const auto [pproc, pthread] = split_lane(plane);
    const auto [cproc, cthread] = split_lane(clane);
    const sim::Time start = std::min(std::max(s.begin, p.begin), p.end);
    write_event_prefix(os, first);
    os << "{\"ph\":\"s\",\"name\":\"causal\",\"cat\":\"causal\",\"id\":" << s.id
       << ",\"pid\":" << pids.at(pproc) << ",\"tid\":" << tids.at(plane)
       << ",\"ts\":" << sim::to_micros(start) << "}";
    write_event_prefix(os, first);
    os << "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"causal\",\"cat\":\"causal\",\"id\":" << s.id
       << ",\"pid\":" << pids.at(cproc) << ",\"tid\":" << tids.at(clane)
       << ",\"ts\":" << sim::to_micros(s.begin) << "}";
  }

  // Counter snapshots at the end of the trace.
  if (metrics != nullptr) {
    for (const auto& [id, c] : metrics->counters()) {
      write_event_prefix(os, first);
      os << "{\"ph\":\"C\",\"name\":\"" << json_escape(id.to_string())
         << "\",\"pid\":0,\"tid\":0,\"ts\":" << sim::to_micros(horizon)
         << ",\"args\":{\"value\":" << c.value() << "}}";
    }
  }

  os << "\n  ],\n  \"laneUtilization\": {";
  {
    bool first_lane = true;
    for (const auto& [lane, u] : lane_utilization(store, horizon)) {
      if (!first_lane) os << ",";
      first_lane = false;
      os << "\n    \"" << json_escape(lane) << "\": {\"busy_ns\": " << u.busy_ns
         << ", \"spans\": " << u.spans << ", \"utilization\": " << u.utilization << "}";
    }
  }
  os << "\n  }\n}\n";
}

std::string chrome_trace_json(const SpanStore& store, const MetricsRegistry* metrics,
                              sim::Time horizon) {
  std::ostringstream os;
  write_chrome_trace(os, store, metrics, horizon);
  return os.str();
}

}  // namespace gflink::obs
