// The one trace store: causal spans plus flat lane intervals, over one
// string table.
//
// The SpanStore records *causal* spans with parent/child links: every job
// gets a trace id, and each engine stage, task, shuffle session, per-block
// send, DFS spill and per-GWork H2D/kernel/D2H chunk opens a span under its
// causing parent, so the whole run forms one DAG. Beside the DAG it keeps
// flat *lane intervals* — what a NIC direction, a GPU engine or a node's
// shuffle sender was busy with — which feed the utilization rollups and the
// Chrome-trace swimlanes.
//
// Names, lanes, labels and note keys and values are interned once into the
// store's string table and held as 32-bit ids. A retaining store keeps
// closed spans in two logs, read by span id. Spans built closed
// (record(): per-chunk GPU stages, waits), which are most of a run, are
// appended in id order to a bit-packed log (OneShotLog): each block of 64
// keeps its least begin, parent distance and kind, and each record its
// offsets from them and its duration at the block's fewest bits, a few
// bytes a span. Spans opened and closed later keep a 24-byte RetainedSpan
// slot in an append-only chunked log (ChunkLog). One bit per id says which
// log holds a span, and a running count per 64 ids turns the bit into its
// position there. A span's trace id is its parent's, so only roots keep
// one, in a small side table; and its name, lane, node and category, which
// few distinct spans differ in, are one interned SpanKind. A note is 12 B.
// Lane intervals are varint-coded in recording order (LaneLog): a few
// bytes each, since lane and label ids are small and each interval's end
// is a delta from the previous one's. A store that does not retain
// allocates none of these logs, builds no strings for lane intervals and
// interns no note values.
//
// On top of the DAG live the analyses that explain where time went:
//
//  * extract_critical_path() walks the DAG backwards from each root span
//    ("last finisher" rule) and attributes every instant of the root's
//    duration to exactly one category, so the per-category breakdown sums
//    to the makespan exactly. It reads the DAG through a child index built
//    for the walk: per parent, its children's ids as varint deltas, about
//    a byte each;
//  * analyze_spans() adds the stragglers: spans whose duration exceeds the
//    p95 of their name peer group, each with the resource it waited on.
//
// The SpanStore is simulation-thread state, mutated between suspension
// points like everything else (docs/ARCHITECTURE.md, "Single-threaded by
// construction").
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace gflink::obs {

class FlightRecorder;

/// Span identity. 0 means "no span": APIs taking a parent treat 0 as
/// "root" and data-plane call sites treat a 0 SpanLink as "don't record".
using SpanId = std::uint32_t;

/// An interned string: an index into one SpanStore's string table. The
/// default id 0 is the empty string.
struct StrId {
  std::uint32_t v = 0;
  friend bool operator==(StrId, StrId) = default;
};

/// A name, lane or label argument: text (interned on use) or an id the
/// caller interned earlier. Hot call sites intern once and pass the id.
class StrRef {
 public:
  StrRef() = default;
  StrRef(StrId id) : id_(id), interned_(true) {}  // NOLINT(google-explicit-constructor)
  StrRef(std::string_view s) : text_(s) {}        // NOLINT(google-explicit-constructor)
  StrRef(const std::string& s) : text_(s) {}      // NOLINT(google-explicit-constructor)
  StrRef(const char* s) : text_(s) {}             // NOLINT(google-explicit-constructor)

  bool interned() const { return interned_; }
  StrId id() const { return id_; }
  std::string_view text() const { return text_; }

 private:
  std::string_view text_;
  StrId id_;
  bool interned_ = false;
};

/// The fixed taxonomy every span is attributed to. Control covers
/// scheduling/deploy/CPU compute (the paper's JVM-side work); H2D/Kernel/
/// D2H are the GPU pipeline stages; Shuffle is network block movement;
/// Spill is DFS spill/unspill I/O; Wait is time blocked on a resource
/// (task slot, pipe queue, transfer credit).
enum class SpanCategory : std::uint8_t { Control, H2D, Kernel, D2H, Shuffle, Spill, Wait };
inline constexpr std::size_t kSpanCategories = 7;

/// Lower-case category name ("control", "h2d", ...), stable for reports.
const char* span_category_name(SpanCategory c);

/// Parent link handed down through data-plane call sites (Pipe::transfer,
/// Gdfs reads/writes): which span caused the transfer and what category
/// the resulting child span carries. Default (parent 0) records nothing.
struct SpanLink {
  SpanId parent = 0;
  SpanCategory category = SpanCategory::Control;
};

/// One causal span, as an open span, a flight-recorder entry and a read of
/// SpanStore::spans() carry it. `name` and `lane` are ids into the owning
/// store's string table (SpanStore::str); its notes are in SpanStore::notes.
struct CausalSpan {
  sim::Time begin = 0;
  sim::Time end = 0;
  SpanId id = 0;
  SpanId parent = 0;           // 0 = root of a trace
  std::uint32_t trace_id = 0;  // job id; inherited from the parent span
  StrId name;                  // peer-group key, e.g. "task:ranks" — no per-span ids
  StrId lane;                  // display lane, e.g. "node3/shuffle"; 0 = none
  std::int16_t node = -1;      // owning node (flight-recorder ring key); -1 = master
  SpanCategory category = SpanCategory::Control;

  sim::Duration duration() const { return end - begin; }
};
static_assert(sizeof(CausalSpan) == 40, "causal spans are 40-byte records");

/// The fields a retained span shares with its peers, interned once per
/// store (SpanStore::kind): a run has millions of spans but few distinct
/// kinds.
struct SpanKind {
  StrId name;
  StrId lane;
  std::int16_t node = -1;
  SpanCategory category = SpanCategory::Control;

  friend bool operator==(const SpanKind&, const SpanKind&) = default;
};

/// A closed span as a retaining store keeps it: a CausalSpan without the id
/// (by which the store finds it), the trace id (its parent's, or a root's
/// own from the store's root table), and its name, lane, node and
/// category, which `kind` indexes. A span that has not closed yet reads as
/// a default record: kind 0.
struct RetainedSpan {
  sim::Time begin = 0;
  sim::Time end = 0;
  SpanId parent = 0;
  std::uint32_t kind = 0;

  bool closed() const { return kind != 0; }
  sim::Duration duration() const { return end - begin; }
};
static_assert(sizeof(RetainedSpan) == 24, "retained spans are 24-byte records");

/// One key/value annotation of a span (the key is interned).
struct SpanNote {
  StrId key;
  std::string value;
};
using SpanNotes = std::vector<SpanNote>;

/// One busy interval on a flat resource lane ("node1.gpu0/h2d",
/// "node3/egress", "node2/shuffle"). `label` 0 means "unlabeled".
struct LaneInterval {
  StrId lane;
  StrId label;
  sim::Time begin = 0;
  sim::Time end = 0;

  sim::Duration duration() const { return end - begin; }
  bool overlaps(const LaneInterval& o) const { return begin < o.end && o.begin < end; }
};

/// An append-only log of lane intervals, read in recording order. Each
/// record is four LEB128 varints: the lane id, the label id, the zigzag
/// delta of its end from the previous record's end, and its zigzag
/// duration. Ends mostly rise, so a record takes a few bytes where the
/// LaneInterval it decodes to takes 24. The bytes go into blocks of
/// kBlockBytes, allocated on first use; a record never straddles two.
class LaneLog {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  /// Two 32-bit varints of at most 5 bytes and two 64-bit ones of at most 10.
  static constexpr std::size_t kMaxRecordBytes = 30;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = LaneInterval;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = LaneInterval;

    const_iterator() = default;
    const_iterator(const LaneLog* log, std::size_t i) : log_(log), i_(i) { load(); }
    LaneInterval operator*() const { return cur_; }
    const_iterator& operator++() {
      ++i_;
      load();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    /// Decode record i_, which starts at (block_, off_).
    void load();

    const LaneLog* log_ = nullptr;
    std::size_t i_ = 0;
    std::size_t block_ = 0;
    std::size_t off_ = 0;
    LaneInterval cur_;  // record i_ once loaded; its end is the next delta's base
  };

  void push_back(const LaneInterval& l);
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }
  /// Bytes of the allocated blocks.
  std::size_t capacity_bytes() const { return blocks_.size() * kBlockBytes; }

 private:
  std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
  std::vector<std::uint32_t> used_;  // bytes written to each block
  std::size_t size_ = 0;
  sim::Time last_end_ = 0;
};

/// The spans built closed (SpanStore::record), appended in id order and
/// read by position. Every kBlockRecords records make a block, packed when
/// it fills: a header keeps the block's least begin, least parent distance
/// (id - parent, modulo 2^32) and least kind, and each record keeps its
/// offsets from those and its duration (end - begin, modulo 2^64), each
/// field at the fewest bits that hold the block's largest. Every record of
/// a block has the same width, so one decodes from its position alone, and
/// takes a few bytes where a RetainedSpan takes 24. The block being filled stays unpacked. Packed
/// blocks go into chunks of kChunkWords 64-bit words, allocated on first
/// use; a block never straddles two.
class OneShotLog {
 public:
  static constexpr std::size_t kBlockRecords = 64;
  static constexpr std::size_t kChunkWords = 2048;  // 16 KiB

  /// Append span `id`'s record; `id` is above every id appended before.
  void push_back(SpanId id, const RetainedSpan& s);
  /// The record at position `i`, which is span `id`'s.
  RetainedSpan at(std::size_t i, SpanId id) const;
  /// The records of block `b` (positions b * kBlockRecords and on; the
  /// unpacked block when b is the last), each parent field holding the
  /// parent distance: the sequential read.
  void unpack(std::size_t b, std::array<RetainedSpan, kBlockRecords>& out) const;
  /// Bytes of the allocated chunks, block index and unpacked block.
  std::size_t capacity_bytes() const;

 private:
  /// Pack the full tail_ into a block.
  void pack();
  /// The header word of packed block `b`.
  const std::uint64_t* block_words(std::size_t b) const;

  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
  std::size_t used_ = 0;               // words written to the last chunk
  std::vector<std::uint32_t> blocks_;  // first word of each packed block
  std::vector<RetainedSpan> tail_;     // the block being filled; parent holds the distance
};

/// An append-only log of fixed-size records, kept in chunks of
/// kChunkRecords that are allocated on first use. Records never move once
/// appended: growth copies nothing and leaves at most one partly filled
/// chunk of slack, where a doubling vector copies every record on each
/// growth and keeps up to half its capacity unused.
template <typename T>
class ChunkLog {
 public:
  static constexpr std::size_t kChunkRecords = 1024;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const ChunkLog* log, std::size_t i) : log_(log), i_(i) {}
    const T& operator*() const { return (*log_)[i_]; }
    const T* operator->() const { return &(*log_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const ChunkLog* log_ = nullptr;
    std::size_t i_ = 0;
  };

  void push_back(const T& v) {
    if (size_ % kChunkRecords == 0) chunks_.push_back(std::make_unique<T[]>(kChunkRecords));
    chunks_.back()[size_ % kChunkRecords] = v;
    ++size_;
  }
  /// Extend the log with default records until it holds `n`.
  void grow(std::size_t n) {
    while (chunks_.size() * kChunkRecords < n) {
      chunks_.push_back(std::make_unique<T[]>(kChunkRecords));
    }
    size_ = std::max(size_, n);
  }
  T& operator[](std::size_t i) { return chunks_[i / kChunkRecords][i % kChunkRecords]; }
  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& back() const { return (*this)[size_ - 1]; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }
  /// Bytes of the allocated chunks.
  std::size_t capacity_bytes() const { return chunks_.size() * kChunkRecords * sizeof(T); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

/// popcount of every byte value. Bit ranks are counted a byte at a time
/// through it: this build has no popcount instruction, so std::popcount of
/// a 64-bit word is a library call.
inline constexpr std::array<std::uint8_t, 256> kBitsSet = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned v = 0; v < t.size(); ++v) t[v] = static_cast<std::uint8_t>(std::popcount(v));
  return t;
}();

/// Set bits of `w`: a kBitsSet lookup per byte, up to its highest nonzero
/// byte.
constexpr std::size_t bits_set(std::uint64_t w) {
  std::size_t n = 0;
  for (; w != 0; w >>= 8) n += kBitsSet[w & 0xFF];
  return n;
}

class SpanStore {
 public:
  /// The retained closed spans in id order, read as CausalSpan values: a
  /// view over the store's two logs that skips the ids of spans not closed
  /// yet and rebuilds each span's id and trace id.
  class ClosedSpans {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = CausalSpan;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = CausalSpan;

      const_iterator() = default;
      const_iterator(const SpanStore* store, std::size_t i) : store_(store), i_(i) { skip_open(); }
      CausalSpan operator*() const { return store_->span_at(i_); }
      const_iterator& operator++() {
        ++i_;
        skip_open();
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const const_iterator& a, const const_iterator& b) {
        return a.i_ == b.i_;
      }

     private:
      void skip_open() {
        while (i_ < store_->last_id_ && store_->index_of(static_cast<SpanId>(i_ + 1)) == npos) {
          ++i_;
        }
      }

      const SpanStore* store_ = nullptr;
      std::size_t i_ = 0;
    };

    explicit ClosedSpans(const SpanStore& store) : store_(&store) {}
    std::size_t size() const { return store_->retained_; }
    bool empty() const { return size() == 0; }
    /// The span at position `i` (SpanStore::index_of).
    CausalSpan operator[](std::size_t i) const { return store_->span_at(i); }
    CausalSpan front() const { return *begin(); }
    /// The closed span with the highest id.
    CausalSpan back() const { return store_->span_at(store_->last_id_ - 1); }
    const_iterator begin() const { return {store_, 0}; }
    const_iterator end() const { return {store_, store_->last_id_}; }

   private:
    const SpanStore* store_;
  };

  SpanStore();
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  /// When retaining, closed spans and lane intervals are kept for analysis
  /// and export; when not (the default), spans only feed the
  /// flight-recorder ring and the aggregate counters, and lane intervals
  /// are dropped, keeping memory bounded on untraced runs. Set it before
  /// the first span opens: a retained span reads its trace id through its
  /// parents, so a parent that closes unretained cuts its children off.
  void set_retain(bool retain) { retain_ = retain; }
  bool retain() const { return retain_; }

  /// Completed spans always stream into `flight` (may be nullptr).
  void attach_flight_recorder(FlightRecorder* flight) { flight_ = flight; }

  // ---- String table --------------------------------------------------------

  /// The id of `s`, adding it to the table on first use.
  StrId intern(StrRef s);
  /// The id of an already-interned string. Never grows the table.
  std::optional<StrId> find(std::string_view s) const;
  const std::string& str(StrId id) const { return strings_[id.v]; }
  /// Number of strings in the table (the empty string included).
  std::size_t interned() const { return strings_.size(); }

  // ---- Causal spans --------------------------------------------------------

  /// Open a span. The trace id is inherited from the parent; for roots
  /// (parent 0) pass the job id via `trace_id`, which must fit in 32 bits.
  /// Times are explicit so the store has no Simulation dependency (tests
  /// build DAGs by hand).
  SpanId open(StrRef name, SpanCategory category, SpanId parent, sim::Time begin,
              StrRef lane = {}, int node = -1, std::uint64_t trace_id = 0);

  /// Attach a key/value note to an open span (no-op on id 0 / closed ids).
  void annotate(SpanId id, StrRef key, std::string value);

  void close(SpanId id, sim::Time end);

  /// One-shot span whose extent is known at record time (GPU stages,
  /// waits): built closed, so it never enters the open-span map. Returns the
  /// id so callers may parent to it. `trace_id` is as for open().
  SpanId record(StrRef name, SpanCategory category, SpanId parent, sim::Time begin,
                sim::Time end, StrRef lane = {}, int node = -1, std::uint64_t trace_id = 0);

  /// Closed spans, in id order (deterministic). Empty unless retaining.
  ClosedSpans spans() const { return ClosedSpans(*this); }
  /// The retained record of span `id`: spans()[index_of(id)] without its id
  /// and trace id, its peer fields behind kind(). A span that is not
  /// retained, or has not closed, reads as a placeholder (kind 0). The
  /// analyses read it.
  RetainedSpan retained(SpanId id) const;
  /// Call f(id, record) for every retained closed span: first the spans
  /// built closed, in id order, then the others, in id order. Each log is
  /// read straight through.
  template <typename F>
  void for_each_retained(F&& f) const;
  /// The highest id of a retained closed span (0 when there is none).
  SpanId last_id() const { return last_id_; }
  /// The name, lane, node and category of a retained span's kind.
  const SpanKind& kind(std::uint32_t k) const { return kinds_[k]; }
  /// Number of kinds in the table (the placeholder kind 0 included).
  std::size_t kinds() const { return kinds_.size(); }
  /// Position of a retained closed span in spans() — its id minus one — or
  /// npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t index_of(SpanId id) const {
    if (id == 0 || id > last_id_) return npos;
    if (built_closed(id)) return id - 1;
    const std::size_t slot = id - 1 - shots_below(id);
    return slot < opened_.size() && opened_[slot].closed() ? id - 1 : npos;
  }
  /// The trace id of an open or retained span: a root's own, any other
  /// span's parent's. 0 when the parent chain reaches a span the store does
  /// not hold (never seen, or closed while not retaining).
  std::uint32_t trace_id(SpanId id) const;
  /// Notes of a retained closed span (empty if it has none).
  SpanNotes notes(SpanId id) const;
  /// {"id", "parent", "trace_id", "name", "category", "begin_ns", "end_ns",
  ///  "lane"?, "node", "notes"?} with names rendered through the table.
  Json to_json(const CausalSpan& s, const SpanNotes& notes) const;
  Json to_json(const CausalSpan& s) const { return to_json(s, notes(s.id)); }

  std::uint64_t recorded() const { return recorded_; }
  bool empty() const { return retained_ == 0; }
  /// Host bytes of what the store retains: both span logs, the id map, the
  /// lane log, the notes and the kind table beyond its placeholder. 0 on a
  /// store that does not retain.
  std::size_t retained_bytes() const;

  /// Aggregate counters: trace_spans_total and per-category
  /// trace_span_ns_total{category=...}.
  void export_metrics(MetricsRegistry& m) const;

  // ---- Lane intervals ------------------------------------------------------

  /// Record a busy interval on `lane`. A no-op unless retaining, so callers
  /// that build a label should check retain() first.
  void record_lane(StrId lane, StrRef label, sim::Time begin, sim::Time end) {
    if (retain_) lanes_.push_back({lane, intern(label), begin, end});
  }
  /// Every lane interval, in recording order.
  const LaneLog& lane_intervals() const { return lanes_; }
  /// The intervals on one lane, in recording order.
  std::vector<LaneInterval> lane(std::string_view name) const;
  /// Busy time on a lane: the union of its intervals.
  sim::Duration busy_time(std::string_view lane) const;
  /// True if any interval on lane `a` overlaps any interval on lane `b` in
  /// virtual time — the pipeline-overlap predicate.
  bool lanes_overlap(std::string_view a, std::string_view b) const;

 private:
  /// One note of a retained closed span, key and value interned.
  struct RetainedNote {
    SpanId id = 0;
    StrId key;
    StrId value;
  };
  static_assert(sizeof(RetainedNote) <= 16, "a retained note costs at most 16 bytes");

  struct SpanKindHash {
    std::size_t operator()(const SpanKind& k) const {
      const std::uint64_t peers = (std::uint64_t{k.name.v} << 32) | k.lane.v;
      const std::uint64_t rest = (std::uint64_t{static_cast<std::uint16_t>(k.node)} << 8) |
                                 static_cast<std::uint8_t>(k.category);
      return std::hash<std::uint64_t>{}(peers * 0x9e3779b97f4a7c15ULL ^ rest);
    }
  };

  /// A new span with its trace id resolved; `end` is left for the caller.
  CausalSpan make_span(StrRef name, SpanCategory category, SpanId parent, sim::Time begin,
                       StrRef lane, int node, std::uint64_t trace_id);
  /// The one close path: count the span, retain it (in the one-shot log
  /// when it was built closed), stream it to the ring.
  void commit(const CausalSpan& s, SpanNotes notes, bool built_closed);
  /// The kind of `s`'s peer fields, adding it to the table on first use.
  std::uint32_t intern_kind(const CausalSpan& s);
  /// spans()[i], its id, trace id and peer fields rebuilt.
  CausalSpan span_at(std::size_t i) const;
  /// Whether span `id` (at most last_id_) was built closed.
  bool built_closed(SpanId id) const {
    return (shot_bits_[(id - 1) / 64] >> ((id - 1) % 64) & 1) != 0;
  }
  /// Walk the retained closed ids: call shot(id, position in shots_) for
  /// every span built closed, then opened(id, record) for every other, each
  /// in id order.
  template <typename Shot, typename Opened>
  void for_each_id(Shot&& shot, Opened&& opened) const;
  /// How many spans below `id` (at most last_id_) were built closed: its
  /// position in shots_, or with id - 1 - it, in opened_.
  std::size_t shots_below(SpanId id) const {
    const std::size_t i = id - 1;
    const std::uint64_t below = shot_bits_[i / 64] & ((std::uint64_t{1} << (i % 64)) - 1);
    return shot_rank_[i / 64] + bits_set(below);
  }

  bool retain_ = false;
  FlightRecorder* flight_ = nullptr;
  SpanId next_id_ = 1;
  std::uint64_t recorded_ = 0;
  std::array<sim::Duration, kSpanCategories> category_ns_{};
  std::deque<std::string> strings_;  // stable addresses for the index keys
  std::unordered_map<std::string_view, StrId> string_index_;
  std::unordered_map<SpanId, CausalSpan> open_;
  std::unordered_map<SpanId, SpanNotes> open_notes_;
  // Spans opened and closed apart, by their rank among the ids not built
  // closed; a slot whose span has not closed holds a placeholder.
  ChunkLog<RetainedSpan> opened_;
  OneShotLog shots_;  // spans built closed, in id order
  // The id map: bit (id - 1) % 64 of shot_bits_[(id - 1) / 64] is set when
  // span id was built closed, and shot_rank_ counts the set bits of the
  // words before. Words cover every id up to last_id_.
  std::vector<std::uint64_t> shot_bits_;
  std::vector<std::uint32_t> shot_rank_;
  SpanId last_id_ = 0;
  std::vector<SpanKind> kinds_{SpanKind{}};  // kinds_[0] marks an open slot
  std::unordered_map<SpanKind, std::uint32_t, SpanKindHash> kind_index_;
  std::size_t retained_ = 0;       // retained closed spans
  std::unordered_map<SpanId, std::uint32_t> root_trace_;  // retained roots' nonzero trace ids
  // Notes in close order; notes() sorts them by span id on first read (a
  // stable sort keeps each span's notes in annotation order).
  mutable ChunkLog<RetainedNote> closed_notes_;
  mutable bool notes_sorted_ = true;
  LaneLog lanes_;
};

template <typename Shot, typename Opened>
void SpanStore::for_each_id(Shot&& shot, Opened&& opened) const {
  // The set bits of the id map, then its clear ones: one sweep per log, so
  // no branch turns on which log an id is in.
  std::size_t pos = 0;
  for (std::size_t w = 0; w < shot_bits_.size(); ++w) {
    for (std::uint64_t bits = shot_bits_[w]; bits != 0; bits &= bits - 1) {
      shot(static_cast<SpanId>(w * 64 + std::countr_zero(bits) + 1), pos++);
    }
  }
  // Ids past last_id_ have slots past the end of opened_.
  std::size_t slot = 0;
  for (std::size_t w = 0; w < shot_bits_.size() && slot < opened_.size(); ++w) {
    for (std::uint64_t bits = ~shot_bits_[w]; bits != 0 && slot < opened_.size();
         bits &= bits - 1, ++slot) {
      const RetainedSpan& r = opened_[slot];
      if (r.closed()) opened(static_cast<SpanId>(w * 64 + std::countr_zero(bits) + 1), r);
    }
  }
}

template <typename F>
void SpanStore::for_each_retained(F&& f) const {
  std::array<RetainedSpan, OneShotLog::kBlockRecords> block;
  for_each_id(
      [&](SpanId id, std::size_t pos) {
        const std::size_t k = pos % OneShotLog::kBlockRecords;
        if (k == 0) shots_.unpack(pos / OneShotLog::kBlockRecords, block);
        RetainedSpan r = block[k];
        r.parent = id - r.parent;
        f(id, r);
      },
      f);
}

/// Length of the union of [begin, end) intervals (sorts them in place).
sim::Duration union_length(std::vector<std::pair<sim::Time, sim::Time>>& intervals);

// ---- Critical path ---------------------------------------------------------

/// One hop of the critical path: the interval [begin, end] was attributed
/// to this span's own category (its children already accounted for).
struct CriticalPathSegment {
  SpanId span = 0;
  std::string name;
  SpanCategory category = SpanCategory::Control;
  sim::Time begin = 0;
  sim::Time end = 0;
};

struct CriticalPath {
  sim::Duration total = 0;  // sum of root-span durations == category sum
  std::array<sim::Duration, kSpanCategories> by_category{};
  std::vector<CriticalPathSegment> segments;  // chronological

  Json to_json() const;
};

/// Walk the DAG of closed spans backwards from each root ("last finisher"
/// rule): at every instant the critical path follows the child that
/// finishes last; gaps not covered by any child are the parent's own time.
/// Every instant of each root's duration lands in exactly one category, so
/// by_category sums to `total` exactly.
CriticalPath extract_critical_path(const SpanStore& store);

// ---- Straggler attribution -------------------------------------------------

/// Nearest-rank p95 over a peer group: the value at index
/// floor(0.95 * (n - 1)) of the ascending order, selected without sorting
/// the whole group. This is the single definition of "the peer group's
/// p95" — analyze_spans() (post-hoc span report) and telemetry's straggler
/// detector (sampled during the run) both call it, so an offline straggler
/// and a live one agree on what "slower than the peers" means. Empty input
/// returns a default-constructed T.
template <typename T>
T nearest_rank_p95(std::vector<T> values) {
  if (values.empty()) return T{};
  const auto rank = static_cast<std::size_t>(0.95 * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

struct Straggler {
  SpanId span = 0;
  std::string name;  // peer group
  std::string lane;
  sim::Duration duration = 0;
  sim::Duration p95 = 0;        // peer-group p95 the span exceeded
  std::string waited_on;        // longest Wait descendant ("" if none)

  Json to_json() const;
};

/// Both analyses of one store, over one child index built for the two:
/// extract_critical_path(), and the stragglers. Closed spans are grouped by
/// name; within groups of at least 4 members, a span strictly slower than
/// the group's p95 duration (nearest-rank over the sorted peer durations)
/// is a straggler, and its `waited_on` names its longest Wait-category
/// descendant — the resource it was actually blocked on.
struct SpanAnalysis {
  CriticalPath critical_path;
  std::vector<Straggler> stragglers;
  std::size_t index_bytes = 0;  // host bytes of the child index, about 1-2 per linked span
};
SpanAnalysis analyze_spans(const SpanStore& store);

}  // namespace gflink::obs
