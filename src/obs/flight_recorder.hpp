// Always-on bounded flight recorder: per-node ring buffers of the most
// recent completed spans and notable events, dumped to JSON when a fault
// fires or a run aborts. The rings are small and always active (unlike
// span retention, which is opt-in), so post-mortems of untraced runs still
// see the work surrounding the failure.
//
// Thread-safety: host-plane. The recorder started out simulation-plane
// (single thread, no lock), but it is now written from both planes: the
// simulation thread notes eviction/fault events and the telemetry
// aggregator appends health events, while exporters, dump writers and the
// threaded stress tests read concurrently. All state is guarded by a
// core::Mutex that is a *leaf* in the lock hierarchy
// (docs/ARCHITECTURE.md, "Concurrency invariants & lock hierarchy"), so
// callers already holding a ranked lock — GMemoryManager::mu_ notes
// eviction events under its own mutex — may call in safely, and the
// recorder never acquires another lock while holding its own (dump and
// metric export snapshot under the lock, then write/publish outside it).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "core/thread_annotations.hpp"
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
  void set_dump_path(std::string path);
  std::string dump_path() const;

  /// SpanStore streams every completed span in, with its notes; the ring
  /// keeps the most recent `capacity` per node. Ring entries are the
  /// fixed-size span records: a dump renders their names through `store`'s
  /// string table, so a recorder serves one store, which must stay alive
  /// for every dump, and dumps read that simulation-plane table (take them
  /// on the simulation thread or after the run).
  void on_span_closed(const SpanStore& store, const CausalSpan& span, SpanNotes notes = {});

  /// Record a notable event (kept in the node's event ring).
  void note_event(sim::Time at, int node, std::string kind, std::string detail);

  /// Record a fault event; if a dump path is configured, the first fault
  /// snapshots the rings to it. Concurrent first faults elect exactly one
  /// dumper (the ring contents are serialized under the lock; only the
  /// file write happens outside it).
  void note_fault(sim::Time at, int node, std::string kind, std::string detail);

  /// Snapshot the rings to a JSON file; false on I/O failure.
  bool dump_now(const std::string& path);

  std::uint64_t faults() const;
  std::uint64_t dumps() const;
  std::uint64_t events_seen() const;

  /// {"schema": "gflink.flight_dump/v1", "nodes": [{"node", "spans",
  ///  "events"}, ...]} — nodes in id order, rings oldest-first.
  Json to_json() const;

  /// flight_spans_total / flight_events_total / flight_faults_total /
  /// flight_dumps_total counters. Snapshot-then-publish: the recorder's
  /// leaf lock is released before the registry's leaf lock is taken.
  void export_metrics(MetricsRegistry& m) const;

  void clear();

 private:
  Json to_json_locked() const GFLINK_REQUIRES(mu_);

  const std::size_t capacity_;
  mutable core::Mutex mu_;
  std::string dump_path_ GFLINK_GUARDED_BY(mu_);
  /// One ring entry: the span record plus its notes (usually none).
  struct RingSpan {
    CausalSpan span;
    SpanNotes notes;
  };

  const SpanStore* store_ GFLINK_GUARDED_BY(mu_) = nullptr;  // names the ring spans
  std::map<int, std::deque<RingSpan>> spans_ GFLINK_GUARDED_BY(mu_);  // per-node rings
  std::map<int, std::deque<FlightEvent>> events_ GFLINK_GUARDED_BY(mu_);
  std::uint64_t spans_seen_ GFLINK_GUARDED_BY(mu_) = 0;
  std::uint64_t events_seen_ GFLINK_GUARDED_BY(mu_) = 0;
  std::uint64_t faults_ GFLINK_GUARDED_BY(mu_) = 0;
  std::uint64_t dumps_ GFLINK_GUARDED_BY(mu_) = 0;
};

}  // namespace gflink::obs
