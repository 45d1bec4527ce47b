// Always-on bounded flight recorder: per-node ring buffers of the most
// recent completed spans and notable events, dumped to JSON when a fault
// fires or a run aborts. The rings are small and always active (unlike
// span retention, which is opt-in), so post-mortems of untraced runs still
// see the work surrounding the failure.
//
// The recorder is simulation-thread state (docs/ARCHITECTURE.md,
// "Single-threaded by construction"): spans, eviction and fault events all
// arrive on that thread, and dumps and exports read it there or after the
// run.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "sim/time.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace gflink::obs {

struct FlightEvent {
  sim::Time at = 0;
  int node = -1;       // -1 = master
  std::string kind;    // e.g. "shuffle_fault", "worker_lost", "oom_retry"
  std::string detail;  // free-form context

  Json to_json() const;
};

class FlightRecorder {
 public:
  /// Per-node ring depth, for spans and events independently.
  explicit FlightRecorder(std::size_t ring_capacity = 256) : capacity_(ring_capacity) {}

  std::size_t capacity() const { return capacity_; }

  /// When set, the first note_fault() writes a dump here automatically
  /// (later faults only count — the interesting state is around the first).
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }

  /// SpanStore streams every completed span in, with its notes; the ring
  /// keeps the most recent `capacity` per node. Ring entries are the
  /// fixed-size span records: a dump renders their names through `store`'s
  /// string table, so a recorder serves one store, which must stay alive
  /// for every dump.
  void on_span_closed(const SpanStore& store, const CausalSpan& span, SpanNotes notes = {});

  /// Record a notable event (kept in the node's event ring).
  void note_event(sim::Time at, int node, std::string kind, std::string detail);

  /// Record a fault event: note_event plus the fault count. If a dump path
  /// is configured, the first fault snapshots the rings to it.
  void note_fault(sim::Time at, int node, std::string kind, std::string detail);

  /// Snapshot the rings to a JSON file; false on I/O failure.
  bool dump_now(const std::string& path);

  std::uint64_t faults() const { return faults_; }
  std::uint64_t dumps() const { return dumps_; }
  std::uint64_t events_seen() const { return events_seen_; }

  /// {"schema": "gflink.flight_dump/v1", "nodes": [{"node", "spans",
  ///  "events"}, ...]} — nodes in id order, rings oldest-first.
  Json to_json() const;

  /// flight_spans_total / flight_events_total / flight_faults_total /
  /// flight_dumps_total counters.
  void export_metrics(MetricsRegistry& m) const;

  void clear();

 private:
  const std::size_t capacity_;
  std::string dump_path_;
  /// One ring entry: the span record plus its notes (usually none).
  struct RingSpan {
    CausalSpan span;
    SpanNotes notes;
  };

  const SpanStore* store_ = nullptr;  // names the ring spans
  std::map<int, std::deque<RingSpan>> spans_;  // per-node rings
  std::map<int, std::deque<FlightEvent>> events_;
  std::uint64_t spans_seen_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t dumps_ = 0;
};

}  // namespace gflink::obs
