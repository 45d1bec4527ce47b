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

void FlightRecorder::on_span_closed(const SpanStore& store, const CausalSpan& span,
                                    SpanNotes notes) {
  store_ = &store;
  ++spans_seen_;
  auto& ring = spans_[span.node];
  ring.push_back(RingSpan{span, std::move(notes)});
  while (ring.size() > capacity_) ring.pop_front();
}

void FlightRecorder::note_event(sim::Time at, int node, std::string kind, std::string detail) {
  ++events_seen_;
  auto& ring = events_[node];
  ring.push_back(FlightEvent{at, node, std::move(kind), std::move(detail)});
  while (ring.size() > capacity_) ring.pop_front();
}

void FlightRecorder::note_fault(sim::Time at, int node, std::string kind, std::string detail) {
  note_event(at, node, std::move(kind), std::move(detail));
  if (++faults_ == 1 && !dump_path_.empty()) dump_now(dump_path_);
}

bool FlightRecorder::dump_now(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json().dump(2) << "\n";
  if (!out) return false;
  ++dumps_;
  return true;
}

Json FlightRecorder::to_json() const {
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
  m.counter(Metric::FlightSpans).inc(static_cast<double>(spans_seen_));
  m.counter(Metric::FlightEvents).inc(static_cast<double>(events_seen_));
  m.counter(Metric::FlightFaults).inc(static_cast<double>(faults_));
  m.counter(Metric::FlightDumps).inc(static_cast<double>(dumps_));
}

void FlightRecorder::clear() {
  spans_.clear();
  events_.clear();
  spans_seen_ = events_seen_ = faults_ = dumps_ = 0;
}

}  // namespace gflink::obs
