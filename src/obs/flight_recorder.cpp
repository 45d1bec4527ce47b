#include "obs/flight_recorder.hpp"

#include <fstream>

namespace gflink::obs {

Json FlightEvent::to_json() const {
  Json j = Json::object();
  j["at_ns"] = static_cast<std::int64_t>(at);
  j["node"] = node;
  j["kind"] = kind;
  if (!detail.empty()) j["detail"] = detail;
  return j;
}

void FlightRecorder::set_dump_path(std::string path) {
  core::MutexLock lock(mu_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  core::MutexLock lock(mu_);
  return dump_path_;
}

void FlightRecorder::on_span_closed(const SpanStore& store, const CausalSpan& span,
                                    SpanNotes notes) {
  core::MutexLock lock(mu_);
  store_ = &store;
  ++spans_seen_;
  auto& ring = spans_[span.node];
  ring.push_back(RingSpan{span, std::move(notes)});
  while (ring.size() > capacity_) ring.pop_front();
}

void FlightRecorder::note_event(sim::Time at, int node, std::string kind, std::string detail) {
  core::MutexLock lock(mu_);
  ++events_seen_;
  auto& ring = events_[node];
  ring.push_back(FlightEvent{at, node, std::move(kind), std::move(detail)});
  while (ring.size() > capacity_) ring.pop_front();
}

void FlightRecorder::note_fault(sim::Time at, int node, std::string kind, std::string detail) {
  // Decide about the auto-dump inside the critical section (so exactly one
  // of any concurrent first faults elects itself), but run it outside: the
  // mutex is not recursive and file I/O has no business under a leaf lock.
  std::string dump_to;
  {
    core::MutexLock lock(mu_);
    ++events_seen_;
    auto& ring = events_[node];
    ring.push_back(FlightEvent{at, node, std::move(kind), std::move(detail)});
    while (ring.size() > capacity_) ring.pop_front();
    ++faults_;
    if (faults_ == 1 && !dump_path_.empty()) dump_to = dump_path_;
  }
  if (!dump_to.empty()) dump_now(dump_to);
}

bool FlightRecorder::dump_now(const std::string& path) {
  // Serialize the rings under the lock; write the file outside it.
  std::string payload;
  {
    core::MutexLock lock(mu_);
    payload = to_json_locked().dump(2);
  }
  std::ofstream out(path);
  if (!out) return false;
  out << payload << "\n";
  if (!out) return false;
  core::MutexLock lock(mu_);
  ++dumps_;
  return true;
}

std::uint64_t FlightRecorder::faults() const {
  core::MutexLock lock(mu_);
  return faults_;
}

std::uint64_t FlightRecorder::dumps() const {
  core::MutexLock lock(mu_);
  return dumps_;
}

std::uint64_t FlightRecorder::events_seen() const {
  core::MutexLock lock(mu_);
  return events_seen_;
}

Json FlightRecorder::to_json() const {
  core::MutexLock lock(mu_);
  return to_json_locked();
}

Json FlightRecorder::to_json_locked() const {
  Json root = Json::object();
  root["schema"] = "gflink.flight_dump/v1";
  root["ring_capacity"] = static_cast<std::uint64_t>(capacity_);
  root["spans_seen"] = spans_seen_;
  root["events_seen"] = events_seen_;
  root["faults"] = faults_;
  Json nodes = Json::array();
  // Walk the union of node ids in order (spans_ and events_ are std::map).
  auto si = spans_.begin();
  auto ei = events_.begin();
  while (si != spans_.end() || ei != events_.end()) {
    int node;
    if (si == spans_.end()) node = ei->first;
    else if (ei == events_.end()) node = si->first;
    else node = std::min(si->first, ei->first);
    Json entry = Json::object();
    entry["node"] = node;
    Json spans = Json::array();
    if (si != spans_.end() && si->first == node) {
      for (const auto& s : si->second) spans.push_back(store_->to_json(s.span, s.notes));
      ++si;
    }
    entry["spans"] = std::move(spans);
    Json events = Json::array();
    if (ei != events_.end() && ei->first == node) {
      for (const auto& e : ei->second) events.push_back(e.to_json());
      ++ei;
    }
    entry["events"] = std::move(events);
    nodes.push_back(std::move(entry));
  }
  root["nodes"] = std::move(nodes);
  return root;
}

void FlightRecorder::export_metrics(MetricsRegistry& m) const {
  std::uint64_t spans_seen = 0, events_seen = 0, faults = 0, dumps = 0;
  {
    core::MutexLock lock(mu_);
    spans_seen = spans_seen_;
    events_seen = events_seen_;
    faults = faults_;
    dumps = dumps_;
  }
  m.counter("flight_spans_total").inc(static_cast<double>(spans_seen));
  m.counter("flight_events_total").inc(static_cast<double>(events_seen));
  m.counter("flight_faults_total").inc(static_cast<double>(faults));
  m.counter("flight_dumps_total").inc(static_cast<double>(dumps));
}

void FlightRecorder::clear() {
  core::MutexLock lock(mu_);
  spans_.clear();
  events_.clear();
  spans_seen_ = events_seen_ = faults_ = dumps_ = 0;
}

}  // namespace gflink::obs
