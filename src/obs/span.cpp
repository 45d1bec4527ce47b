#include "obs/span.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "sim/util.hpp"

#include "obs/flight_recorder.hpp"

namespace gflink::obs {

namespace {

constexpr std::size_t idx(SpanCategory c) { return static_cast<std::size_t>(c); }

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<std::uint8_t>(v | 0x80);
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint64_t get_varint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t b = *p++;
    v |= std::uint64_t{b & 0x7fU} << shift;
    if (b < 0x80) return v;
  }
}

/// Zigzag coding maps small differences of either sign to small unsigned
/// values. Differences are taken modulo 2^64, so any two times round-trip.
std::uint64_t zigzag(sim::Time a, sim::Time b) {  // of a - b
  const auto d =
      static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
  return (static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63);
}

std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

/// Bit packing: a field of `width` bits (at most 64) at bit `bit` of an
/// array of 64-bit words, low bits first within and across words.
/// put_bits ORs into zeroed words. get_bits reads the two words from the
/// field's first without a branch, so both must be readable.
void put_bits(std::uint64_t* words, std::size_t bit, unsigned width, std::uint64_t v) {
  if (width == 0) return;
  const unsigned off = bit % 64;
  words[bit / 64] |= v << off;
  if (off + width > 64) words[bit / 64 + 1] |= v >> (64 - off);
}

std::uint64_t get_bits(const std::uint64_t* words, std::size_t bit, unsigned width) {
  const unsigned off = bit % 64;
  // Two shifts of at most 63 move the next word's bits above the field's;
  // a field that fits in one word (off + width <= 64) masks them off.
  const std::uint64_t v = words[bit / 64] >> off | words[bit / 64 + 1] << 1 << (63 - off);
  const std::uint64_t mask =
      ((std::uint64_t{1} << width % 64) - 1) | (0 - std::uint64_t{width / 64});
  return v & mask;
}

}  // namespace

const char* span_category_name(SpanCategory c) {
  switch (c) {
    case SpanCategory::Control: return "control";
    case SpanCategory::H2D: return "h2d";
    case SpanCategory::Kernel: return "kernel";
    case SpanCategory::D2H: return "d2h";
    case SpanCategory::Shuffle: return "shuffle";
    case SpanCategory::Spill: return "spill";
    case SpanCategory::Wait: return "wait";
  }
  return "unknown";
}

// ---- String table ----------------------------------------------------------

SpanStore::SpanStore() { intern(std::string_view{}); }  // id 0 is ""

StrId SpanStore::intern(StrRef s) {
  if (s.interned()) return s.id();
  auto it = string_index_.find(s.text());
  if (it != string_index_.end()) return it->second;
  const StrId id{static_cast<std::uint32_t>(strings_.size())};
  strings_.emplace_back(s.text());
  string_index_.emplace(strings_.back(), id);
  return id;
}

std::optional<StrId> SpanStore::find(std::string_view s) const {
  auto it = string_index_.find(s);
  if (it == string_index_.end()) return std::nullopt;
  return it->second;
}

// ---- Causal spans ----------------------------------------------------------

CausalSpan SpanStore::make_span(StrRef name, SpanCategory category, SpanId parent,
                               sim::Time begin, StrRef lane, int node,
                               std::uint64_t trace_id) {
  GFLINK_CHECK_MSG(next_id_ != 0, "SpanStore: the span id counter passed 2^32-1");
  CausalSpan s;
  s.id = next_id_++;
  s.parent = parent;
  s.name = intern(name);
  s.category = category;
  s.begin = begin;
  s.lane = intern(lane);
  GFLINK_CHECK_MSG(node >= INT16_MIN && node <= INT16_MAX, "SpanStore: node id out of range");
  s.node = static_cast<std::int16_t>(node);
  if (parent != 0) {
    // Inherit the trace id from the parent if it is still open or retained;
    // a parent that was already dropped leaves the child's trace id at 0.
    s.trace_id = SpanStore::trace_id(parent);
  } else {
    GFLINK_CHECK_MSG(trace_id <= UINT32_MAX, "SpanStore: trace id does not fit in 32 bits");
    s.trace_id = static_cast<std::uint32_t>(trace_id);
  }
  return s;
}

SpanId SpanStore::open(StrRef name, SpanCategory category, SpanId parent, sim::Time begin,
                       StrRef lane, int node, std::uint64_t trace_id) {
  const CausalSpan s = make_span(name, category, parent, begin, lane, node, trace_id);
  open_.emplace(s.id, s);
  return s.id;
}

void SpanStore::annotate(SpanId id, StrRef key, std::string value) {
  if (id == 0 || open_.count(id) == 0) return;
  open_notes_[id].push_back(SpanNote{intern(key), std::move(value)});
}

void SpanStore::close(SpanId id, sim::Time end) {
  if (id == 0) return;
  auto it = open_.find(id);
  GFLINK_CHECK_MSG(it != open_.end(), "SpanStore::close on unknown/already-closed span id");
  CausalSpan s = it->second;
  open_.erase(it);
  s.end = end;
  SpanNotes notes;
  if (auto nit = open_notes_.find(id); nit != open_notes_.end()) {
    notes = std::move(nit->second);
    open_notes_.erase(nit);
  }
  commit(s, std::move(notes), false);
}

SpanId SpanStore::record(StrRef name, SpanCategory category, SpanId parent, sim::Time begin,
                         sim::Time end, StrRef lane, int node, std::uint64_t trace_id) {
  CausalSpan s = make_span(name, category, parent, begin, lane, node, trace_id);
  s.end = end;
  commit(s, {}, true);
  return s.id;
}

void SpanStore::commit(const CausalSpan& s, SpanNotes notes, bool built_closed) {
  ++recorded_;
  category_ns_[idx(s.category)] += s.duration();
  if (retain_) {
    const RetainedSpan r{s.begin, s.end, s.parent, intern_kind(s)};
    // Map every id up to this one. A word's running count is final when
    // the next word is added: a span built closed takes the highest id yet.
    const std::size_t word = (s.id - 1) / 64;
    while (shot_bits_.size() <= word) {
      const std::size_t below = shot_bits_.empty() ? 0 : bits_set(shot_bits_.back());
      shot_rank_.push_back((shot_rank_.empty() ? 0 : shot_rank_.back()) +
                           static_cast<std::uint32_t>(below));
      shot_bits_.push_back(0);
    }
    last_id_ = std::max(last_id_, s.id);
    if (built_closed) {
      shot_bits_[word] |= std::uint64_t{1} << ((s.id - 1) % 64);
      shots_.push_back(s.id, r);
    } else {
      const std::size_t slot = s.id - 1 - shots_below(s.id);
      if (opened_.size() <= slot) opened_.grow(slot + 1);
      opened_[slot] = r;
    }
    ++retained_;
    if (s.parent == 0 && s.trace_id != 0) root_trace_.emplace(s.id, s.trace_id);
    for (const SpanNote& n : notes) {
      if (!closed_notes_.empty() && closed_notes_.back().id > s.id) notes_sorted_ = false;
      closed_notes_.push_back({s.id, n.key, intern(n.value)});
    }
  }
  if (flight_ != nullptr) flight_->on_span_closed(*this, s, std::move(notes));
}

std::uint32_t SpanStore::intern_kind(const CausalSpan& s) {
  const SpanKind k{s.name, s.lane, s.node, s.category};
  auto [it, added] = kind_index_.try_emplace(k, static_cast<std::uint32_t>(kinds_.size()));
  if (added) kinds_.push_back(k);
  return it->second;
}

std::uint32_t SpanStore::trace_id(SpanId id) const {
  // Parents have lower ids than their children, so the walk ends; a parent
  // id that is not lower was never a real parent.
  for (RetainedSpan r = retained(id); r.closed(); r = retained(id)) {
    const SpanId parent = r.parent;
    if (parent == 0) {
      auto it = root_trace_.find(id);
      return it != root_trace_.end() ? it->second : 0;
    }
    if (parent >= id) return 0;
    id = parent;
  }
  auto it = open_.find(id);
  return it != open_.end() ? it->second.trace_id : 0;
}

RetainedSpan SpanStore::retained(SpanId id) const {
  if (id == 0 || id > last_id_) return {};
  const std::size_t shots = shots_below(id);
  if (built_closed(id)) return shots_.at(shots, id);
  const std::size_t slot = id - 1 - shots;
  return slot < opened_.size() ? opened_[slot] : RetainedSpan{};
}

std::size_t SpanStore::retained_bytes() const {
  return opened_.capacity_bytes() + shots_.capacity_bytes() +
         shot_bits_.capacity() * sizeof(std::uint64_t) +
         shot_rank_.capacity() * sizeof(std::uint32_t) + lanes_.capacity_bytes() +
         closed_notes_.capacity_bytes() +
         (kinds_.capacity() - 1) * sizeof(SpanKind);  // beyond the placeholder
}

CausalSpan SpanStore::span_at(std::size_t i) const {
  const auto id = static_cast<SpanId>(i + 1);
  const RetainedSpan r = retained(id);
  const SpanKind& k = kind(r.kind);
  CausalSpan s;
  s.begin = r.begin;
  s.end = r.end;
  s.id = id;
  s.parent = r.parent;
  s.trace_id = trace_id(s.id);
  s.name = k.name;
  s.lane = k.lane;
  s.node = k.node;
  s.category = k.category;
  return s;
}

SpanNotes SpanStore::notes(SpanId id) const {
  SpanNotes out;
  if (index_of(id) == npos) return out;
  if (!notes_sorted_) {
    std::vector<RetainedNote> sorted(closed_notes_.begin(), closed_notes_.end());
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const RetainedNote& a, const RetainedNote& b) { return a.id < b.id; });
    for (std::size_t i = 0; i < sorted.size(); ++i) closed_notes_[i] = sorted[i];
    notes_sorted_ = true;
  }
  // Binary search for the span's first note.
  std::size_t lo = 0;
  std::size_t hi = closed_notes_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (closed_notes_[mid].id < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (; lo < closed_notes_.size() && closed_notes_[lo].id == id; ++lo) {
    out.push_back(SpanNote{closed_notes_[lo].key, str(closed_notes_[lo].value)});
  }
  return out;
}

Json SpanStore::to_json(const CausalSpan& s, const SpanNotes& notes) const {
  Json j = Json::object();
  j["id"] = s.id;
  j["parent"] = s.parent;
  j["trace_id"] = s.trace_id;
  j["name"] = str(s.name);
  j["category"] = span_category_name(s.category);
  j["begin_ns"] = static_cast<std::int64_t>(s.begin);
  j["end_ns"] = static_cast<std::int64_t>(s.end);
  if (s.lane.v != 0) j["lane"] = str(s.lane);
  j["node"] = s.node;
  if (!notes.empty()) {
    Json n = Json::object();
    for (const SpanNote& note : notes) n[str(note.key)] = note.value;
    j["notes"] = std::move(n);
  }
  return j;
}

void SpanStore::export_metrics(MetricsRegistry& m) const {
  m.counter(Metric::TraceSpans).inc(static_cast<double>(recorded_));
  for (std::size_t i = 0; i < kSpanCategories; ++i) {
    m.counter(Metric::TraceSpanNs, {{"category", span_category_name(static_cast<SpanCategory>(i))}})
        .inc(static_cast<double>(category_ns_[i]));
  }
}

// ---- Spans built closed ----------------------------------------------------

namespace {

/// A packed block, read through its header: three words (the least begin;
/// the least parent distance and, above it, the least kind; the four field
/// widths, a byte each), then the records, each its fields' bits in a row:
/// parent distance, kind, begin offset, duration. A record's fields share
/// a cache line or two, so reading one by id touches few.
class PackedBlock {
 public:
  explicit PackedBlock(const std::uint64_t* p) : p_(p) {
    for (std::size_t f = 0; f < width_.size(); ++f) {
      width_[f] = static_cast<unsigned>(p[2] >> (8 * f) & 0xff);
      shift_[f] = record_bits_;
      mask_[f] = width_[f] == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width_[f]) - 1;
      record_bits_ += width_[f];
    }
  }

  /// Record k, its parent field holding the parent distance.
  RetainedSpan record(std::size_t k) const {
    const std::uint64_t* bits = p_ + 3;
    const std::size_t at = k * record_bits_;
    std::array<std::uint64_t, 4> f;
    if (record_bits_ <= 64) {
      // The whole record in one read, cut into its fields. Only a field
      // of no bits can start at bit 64, and its mask is 0.
      const std::uint64_t v = get_bits(bits, at, record_bits_);
      for (std::size_t i = 0; i < f.size(); ++i) f[i] = v >> shift_[i] % 64 & mask_[i];
    } else {
      for (std::size_t i = 0; i < f.size(); ++i) f[i] = get_bits(bits, at + shift_[i], width_[i]);
    }
    RetainedSpan r;
    r.parent = static_cast<SpanId>(p_[1]) + static_cast<SpanId>(f[0]);
    r.kind = static_cast<std::uint32_t>(p_[1] >> 32) + static_cast<std::uint32_t>(f[1]);
    const std::uint64_t begin = p_[0] + f[2];
    r.begin = static_cast<sim::Time>(begin);
    r.end = static_cast<sim::Time>(begin + f[3]);
    return r;
  }

 private:
  const std::uint64_t* p_;
  std::array<unsigned, 4> width_{};  // parent distance, kind, begin offset, duration
  std::array<unsigned, 4> shift_{};  // each field's first bit within a record
  std::array<std::uint64_t, 4> mask_{};
  unsigned record_bits_ = 0;
};

}  // namespace

void OneShotLog::push_back(SpanId id, const RetainedSpan& s) {
  if (tail_.empty()) tail_.reserve(kBlockRecords);
  tail_.push_back({s.begin, s.end, id - s.parent, s.kind});
  if (tail_.size() == kBlockRecords) pack();
}

void OneShotLog::pack() {
  // The block's bases, each field's least value, and the widths that hold
  // every offset from them: those of the largest offset.
  auto offset = [](sim::Time a, sim::Time b) {  // a - b, modulo 2^64
    return static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b);
  };
  sim::Time begin = tail_[0].begin;
  sim::Time last_begin = begin;
  SpanId distance = tail_[0].parent;
  SpanId far = distance;
  std::uint32_t kind = tail_[0].kind;
  std::uint32_t last_kind = kind;
  std::uint64_t any_duration = 0;
  for (const RetainedSpan& r : tail_) {
    begin = std::min(begin, r.begin);
    last_begin = std::max(last_begin, r.begin);
    distance = std::min(distance, r.parent);
    far = std::max(far, r.parent);
    kind = std::min(kind, r.kind);
    last_kind = std::max(last_kind, r.kind);
    any_duration |= offset(r.end, r.begin);
  }
  const std::array<unsigned, 4> width = {
      static_cast<unsigned>(std::bit_width(far - distance)),
      static_cast<unsigned>(std::bit_width(last_kind - kind)),
      static_cast<unsigned>(std::bit_width(offset(last_begin, begin))),
      static_cast<unsigned>(std::bit_width(any_duration))};
  // Three header words, then 64 records of record_bits each: exactly
  // record_bits words.
  const unsigned record_bits = width[0] + width[1] + width[2] + width[3];
  const std::size_t words = 3 + record_bits;
  if (chunks_.empty() || used_ + words > kChunkWords) {
    // Two words of padding: get_bits reads two words from a field's
    // start, even for a field of no bits at the end of a block.
    chunks_.push_back(std::make_unique<std::uint64_t[]>(kChunkWords + 2));
    used_ = 0;
  }
  const std::size_t first = (chunks_.size() - 1) * kChunkWords + used_;
  GFLINK_CHECK_MSG(first <= UINT32_MAX, "OneShotLog: the packed log passed 2^32 words");
  std::uint64_t* p = chunks_.back().get() + used_;
  p[0] = static_cast<std::uint64_t>(begin);
  p[1] = distance | std::uint64_t{kind} << 32;
  p[2] = width[0] | width[1] << 8 | width[2] << 16 | width[3] << 24;
  const std::array<unsigned, 4> shift = {0, width[0], width[0] + width[1],
                                         width[0] + width[1] + width[2]};
  for (std::size_t k = 0; k < kBlockRecords; ++k) {
    const RetainedSpan& r = tail_[k];
    const std::array<std::uint64_t, 4> f = {r.parent - distance, r.kind - kind,
                                            offset(r.begin, begin), offset(r.end, r.begin)};
    if (record_bits <= 64) {
      // The whole record in one write, as PackedBlock::record reads it. A
      // field that starts at bit 64 has no bits and is 0.
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < f.size(); ++i) v |= f[i] << shift[i] % 64;
      put_bits(p + 3, k * record_bits, record_bits, v);
    } else {
      for (std::size_t i = 0; i < f.size(); ++i) {
        put_bits(p + 3, k * record_bits + shift[i], width[i], f[i]);
      }
    }
  }
  used_ += words;
  blocks_.push_back(static_cast<std::uint32_t>(first));
  tail_.clear();
}

const std::uint64_t* OneShotLog::block_words(std::size_t b) const {
  return chunks_[blocks_[b] / kChunkWords].get() + blocks_[b] % kChunkWords;
}

RetainedSpan OneShotLog::at(std::size_t i, SpanId id) const {
  const std::size_t b = i / kBlockRecords;
  RetainedSpan r = b == blocks_.size() ? tail_[i % kBlockRecords]
                                       : PackedBlock(block_words(b)).record(i % kBlockRecords);
  r.parent = id - r.parent;
  return r;
}

void OneShotLog::unpack(std::size_t b, std::array<RetainedSpan, kBlockRecords>& out) const {
  if (b == blocks_.size()) {
    std::copy(tail_.begin(), tail_.end(), out.begin());
    return;
  }
  const PackedBlock block(block_words(b));
  for (std::size_t k = 0; k < kBlockRecords; ++k) out[k] = block.record(k);
}

std::size_t OneShotLog::capacity_bytes() const {
  return chunks_.size() * (kChunkWords + 2) * sizeof(std::uint64_t) +
         blocks_.capacity() * sizeof(std::uint32_t) + tail_.capacity() * sizeof(RetainedSpan);
}

// ---- Lane intervals --------------------------------------------------------

void LaneLog::push_back(const LaneInterval& l) {
  std::uint8_t rec[kMaxRecordBytes];
  std::uint8_t* p = put_varint(rec, l.lane.v);
  p = put_varint(p, l.label.v);
  p = put_varint(p, zigzag(l.end, last_end_));
  p = put_varint(p, zigzag(l.end, l.begin));
  const auto n = static_cast<std::size_t>(p - rec);
  if (blocks_.empty() || used_.back() + n > kBlockBytes) {
    blocks_.push_back(std::make_unique<std::uint8_t[]>(kBlockBytes));
    used_.push_back(0);
  }
  std::memcpy(blocks_.back().get() + used_.back(), rec, n);
  used_.back() += static_cast<std::uint32_t>(n);
  last_end_ = l.end;
  ++size_;
}

void LaneLog::const_iterator::load() {
  if (i_ >= log_->size_) return;
  if (off_ == log_->used_[block_]) {
    ++block_;
    off_ = 0;
  }
  const std::uint8_t* const start = log_->blocks_[block_].get() + off_;
  const std::uint8_t* p = start;
  cur_.lane = StrId{static_cast<std::uint32_t>(get_varint(p))};
  cur_.label = StrId{static_cast<std::uint32_t>(get_varint(p))};
  const std::uint64_t end = static_cast<std::uint64_t>(cur_.end) + unzigzag(get_varint(p));
  cur_.end = static_cast<sim::Time>(end);
  cur_.begin = static_cast<sim::Time>(end - unzigzag(get_varint(p)));
  off_ += static_cast<std::size_t>(p - start);
}

std::vector<LaneInterval> SpanStore::lane(std::string_view name) const {
  std::vector<LaneInterval> out;
  const std::optional<StrId> id = find(name);
  if (!id) return out;
  for (const LaneInterval& l : lanes_) {
    if (l.lane == *id) out.push_back(l);
  }
  return out;
}

sim::Duration SpanStore::busy_time(std::string_view name) const {
  std::vector<std::pair<sim::Time, sim::Time>> intervals;
  for (const LaneInterval& l : lane(name)) intervals.emplace_back(l.begin, l.end);
  return union_length(intervals);
}

bool SpanStore::lanes_overlap(std::string_view a, std::string_view b) const {
  const std::vector<LaneInterval> la = lane(a);
  const std::vector<LaneInterval> lb = lane(b);
  for (const LaneInterval& x : la) {
    for (const LaneInterval& y : lb) {
      if (x.overlaps(y)) return true;
    }
  }
  return false;
}

sim::Duration union_length(std::vector<std::pair<sim::Time, sim::Time>>& intervals) {
  if (intervals.empty()) return 0;
  std::sort(intervals.begin(), intervals.end());
  sim::Duration total = 0;
  sim::Time cur_begin = intervals.front().first;
  sim::Time cur_end = intervals.front().second;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first <= cur_end) {
      cur_end = std::max(cur_end, intervals[i].second);
    } else {
      total += cur_end - cur_begin;
      cur_begin = intervals[i].first;
      cur_end = intervals[i].second;
    }
  }
  return total + (cur_end - cur_begin);
}

// ---- Critical path ---------------------------------------------------------

Json CriticalPath::to_json() const {
  Json j = Json::object();
  j["total_ns"] = static_cast<std::int64_t>(total);
  Json breakdown = Json::object();
  for (std::size_t i = 0; i < kSpanCategories; ++i) {
    breakdown[span_category_name(static_cast<SpanCategory>(i))] =
        static_cast<std::int64_t>(by_category[i]);
  }
  j["breakdown_ns"] = std::move(breakdown);
  Json segs = Json::array();
  for (const auto& s : segments) {
    Json e = Json::object();
    e["span"] = s.span;
    e["name"] = s.name;
    e["category"] = span_category_name(s.category);
    e["begin_ns"] = static_cast<std::int64_t>(s.begin);
    e["end_ns"] = static_cast<std::int64_t>(s.end);
    segs.push_back(std::move(e));
  }
  j["segments"] = std::move(segs);
  return j;
}

namespace {

/// Bytes of v as a varint.
std::uint32_t varint_bytes(std::uint64_t v) {
  return static_cast<std::uint32_t>(std::bit_width(v | 1) + 6) / 7;
}

/// The children of every retained span, byte-coded. A bit per span index
/// (id - 1) says whether that span has children, and running counts turn
/// the bit into the span's rank among the spans that do: one per 64
/// indices, and a byte's count within its 64 (kBitsSet). The children of
/// the span of rank r are the bytes lists_[offset_[r] .. offset_[r + 1]):
/// a zigzag varint per child, each the difference of its index from the
/// one before, the first from the parent's. A child's id is higher than
/// its parent's and siblings are mostly a few ids apart, so a child takes
/// about a byte. Each list is in the order of SpanStore::for_each_retained
/// (the walk sorts what it reads). Spans with no parent in the index go to
/// roots().
class ChildIndex {
 public:
  /// Three passes over the store: mark the parents, size each list, fill.
  explicit ChildIndex(const SpanStore& store);

  /// Whether span `id`'s parent is in the index: a retained closed span
  /// with a lower id. A parent id that is not lower was never a real
  /// parent (SpanStore::trace_id reads it so too), so such a span is a
  /// root.
  bool linked(SpanId id, const RetainedSpan& s) const {
    return s.parent != 0 && s.parent < id && has(s.parent - 1);
  }
  /// Whether span index i has children.
  bool has(std::size_t i) const { return (has_kids_[i / 8] >> (i % 8) & 1) != 0; }
  /// Rank of span index i among the spans that have children.
  std::uint32_t rank(std::size_t i) const {
    return rank_base_[i / 64] + byte_rank_[i / 8] +
           kBitsSet[has_kids_[i / 8] & ((1U << (i % 8)) - 1)];
  }
  /// Number of spans that have children.
  std::size_t parents() const { return offset_.size() - 1; }
  /// Call f(child index) for every child of span index i.
  template <typename F>
  void for_each_child(std::uint32_t i, F&& f) const {
    if (!has(i)) return;
    const std::uint32_t r = rank(i);
    const std::uint8_t* p = lists_.data() + offset_[r];
    const std::uint8_t* const end = lists_.data() + offset_[r + 1];
    for (std::uint64_t c = i; p < end;) {
      c += unzigzag(get_varint(p));
      f(static_cast<std::uint32_t>(c));
    }
  }
  /// Call f(index) for every span that has children, from the highest
  /// index down.
  template <typename F>
  void for_each_parent_from_last(F&& f) const {
    for (std::size_t b = has_kids_.size(); b-- > 0;) {
      for (unsigned bits = has_kids_[b]; bits != 0; bits &= ~(1U << (std::bit_width(bits) - 1))) {
        f(static_cast<std::uint32_t>(b * 8 + std::bit_width(bits) - 1));
      }
    }
  }
  const std::vector<std::uint32_t>& roots() const { return roots_; }
  /// Host bytes of the index.
  std::size_t bytes() const {
    return has_kids_.capacity() + byte_rank_.capacity() +
           (rank_base_.capacity() + offset_.capacity() + roots_.capacity()) *
               sizeof(std::uint32_t) +
           lists_.capacity();
  }

 private:
  /// The delta that codes child index c after index `last` of its list.
  static std::uint64_t delta(std::uint32_t c, std::uint32_t last) {
    return zigzag(static_cast<sim::Time>(c), static_cast<sim::Time>(last));
  }

  std::vector<std::uint8_t> has_kids_;    // bit i % 8 of byte i / 8
  std::vector<std::uint32_t> rank_base_;  // parents below index i / 64 * 64
  std::vector<std::uint8_t> byte_rank_;   // parents from there up to index i / 8 * 8
  std::vector<std::uint32_t> offset_;     // each list's first byte, by rank; then the end
  std::vector<std::uint8_t> lists_;
  std::vector<std::uint32_t> roots_;
};

ChildIndex::ChildIndex(const SpanStore& store) {
  const std::size_t n = store.last_id();
  const std::size_t bytes = (n + 7) / 8;
  has_kids_.assign(bytes, 0);
  byte_rank_.resize(bytes);
  rank_base_.resize((n + 63) / 64);
  {
    // Mark every span named as a parent, then keep the marks of the spans
    // retained closed: only those are parents.
    std::vector<std::uint8_t> retained(bytes, 0);
    store.for_each_retained([&](SpanId id, const RetainedSpan& s) {
      retained[(id - 1) / 8] |= static_cast<std::uint8_t>(1U << ((id - 1) % 8));
      if (s.parent != 0 && s.parent < id) {
        has_kids_[(s.parent - 1) / 8] |= static_cast<std::uint8_t>(1U << ((s.parent - 1) % 8));
      }
    });
    std::uint32_t parents = 0;
    for (std::size_t b = 0; b < bytes; ++b) {
      has_kids_[b] &= retained[b];
      if (b % 8 == 0) rank_base_[b / 8] = parents;
      byte_rank_[b] = static_cast<std::uint8_t>(parents - rank_base_[b / 8]);
      parents += kBitsSet[has_kids_[b]];
    }
    offset_.assign(std::size_t{parents} + 1, 0);
  }
  // Each list's last child index so far, first its parent's.
  std::vector<std::uint32_t> last(parents());
  auto restart = [&] {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bytes; ++b) {
      for (unsigned bits = has_kids_[b]; bits != 0; bits &= bits - 1) {
        last[r++] = static_cast<std::uint32_t>(b * 8 + std::countr_zero(bits));
      }
    }
  };
  // Size each list: offset_[r + 1] its length, then its end.
  restart();
  store.for_each_retained([&](SpanId id, const RetainedSpan& s) {
    if (!linked(id, s)) return;
    const std::uint32_t r = rank(s.parent - 1);
    offset_[r + 1] += varint_bytes(delta(id - 1, last[r]));
    last[r] = id - 1;
  });
  std::uint64_t total = 0;
  for (std::uint32_t& o : offset_) {
    total += o;
    GFLINK_CHECK_MSG(total <= UINT32_MAX, "ChildIndex: the child lists passed 2^32 bytes");
    o = static_cast<std::uint32_t>(total);
  }
  lists_.resize(offset_.back());
  // Fill forward with offset_[r] as the cursor, then shift the offsets
  // back by one slot.
  restart();
  store.for_each_retained([&](SpanId id, const RetainedSpan& s) {
    if (!linked(id, s)) {
      roots_.push_back(id - 1);
      return;
    }
    const std::uint32_t r = rank(s.parent - 1);
    const std::uint8_t* const end = put_varint(lists_.data() + offset_[r], delta(id - 1, last[r]));
    offset_[r] = static_cast<std::uint32_t>(end - lists_.data());
    last[r] = id - 1;
  });
  for (std::size_t r = offset_.size() - 1; r > 0; --r) offset_[r] = offset_[r - 1];
  offset_[0] = 0;
}

/// A critical-path hop before names are rendered: `span` is a span index.
struct RawSegment {
  std::uint32_t span;
  sim::Time begin;
  sim::Time end;
};

/// A child as the walk sorts it: its index and the fields the walk reads.
struct WalkChild {
  sim::Time begin;
  sim::Time end;
  std::uint32_t index;
  std::uint32_t kind;
};

/// Backwards "last finisher" walk. For span S over [lo, hi]: children are
/// visited in decreasing end order, the gap between the frontier and a
/// child's end is S's own time, the child's interval recurses, and the
/// frontier jumps to the child's begin. Whatever remains in front of the
/// earliest child is S's own time too — so [lo, hi] is covered exactly once.
/// A span is walked at most once, so only the child lists of the spans
/// walked are decoded, as they are reached.
struct CriticalPathWalker {
  const SpanStore& store;
  const ChildIndex& children;
  CriticalPath& cp;
  std::vector<RawSegment>& segments;
  // The sorted children of every span on the path being walked, each
  // span's above its parent's: one buffer for every depth.
  std::vector<WalkChild> stack{};

  void attribute(std::uint32_t i, SpanCategory category, sim::Time b, sim::Time e) {
    cp.by_category[idx(category)] += e - b;
    segments.push_back({i, b, e});
  }

  void walk(std::uint32_t i, std::uint32_t kind, sim::Time begin, sim::Time lo, sim::Time hi) {
    const SpanCategory category = store.kind(kind).category;
    const sim::Time floor = std::max(begin, lo);
    sim::Time t = hi;
    const std::size_t first = stack.size();
    children.for_each_child(i, [&](std::uint32_t ci) {
      const RetainedSpan c = store.retained(ci + 1);
      stack.push_back({c.begin, c.end, ci, c.kind});
    });
    const std::size_t last = stack.size();
    // Latest finisher first; the higher index breaks ties.
    std::sort(stack.begin() + static_cast<std::ptrdiff_t>(first), stack.end(),
              [](const WalkChild& a, const WalkChild& b) {
                return a.end != b.end ? a.end > b.end : a.index > b.index;
              });
    for (std::size_t k = first; k < last && t > floor; ++k) {
      const WalkChild c = stack[k];  // the walk below may move the buffer
      const sim::Time ce = std::min(c.end, t);
      const sim::Time cb = std::max(c.begin, floor);
      if (ce <= cb) continue;
      if (ce < t) attribute(i, category, ce, t);
      walk(c.index, c.kind, c.begin, cb, ce);
      t = cb;
    }
    stack.resize(first);
    if (t > floor) attribute(i, category, floor, t);
  }
};

/// The critical path over an index of the store's children.
CriticalPath critical_path_over(const SpanStore& store, const ChildIndex& children) {
  CriticalPath cp;
  // Roots by begin; the lower index breaks ties.
  std::vector<std::pair<sim::Time, std::uint32_t>> roots;
  roots.reserve(children.roots().size());
  for (std::uint32_t root : children.roots()) {
    roots.emplace_back(store.retained(root + 1).begin, root);
  }
  std::sort(roots.begin(), roots.end());

  std::vector<RawSegment> raw;
  {
    CriticalPathWalker walker{store, children, cp, raw};
    for (const auto& [begin, root] : roots) {
      const RetainedSpan s = store.retained(root + 1);
      cp.total += s.duration();
      walker.walk(root, s.kind, s.begin, s.begin, s.end);
    }
  }

  // The walk emits segments latest-first; restore chronological order and
  // coalesce adjacent segments of the same span, in place.
  std::reverse(raw.begin(), raw.end());
  std::size_t kept = 0;
  for (std::size_t k = 0; k < raw.size(); ++k) {
    if (kept > 0 && raw[kept - 1].span == raw[k].span && raw[kept - 1].end == raw[k].begin) {
      raw[kept - 1].end = raw[k].end;
    } else {
      raw[kept++] = raw[k];
    }
  }
  raw.resize(kept);
  cp.segments.reserve(raw.size());
  for (const RawSegment& seg : raw) {
    const SpanKind& k = store.kind(store.retained(seg.span + 1).kind);
    cp.segments.push_back({seg.span + 1, store.str(k.name), k.category, seg.begin, seg.end});
  }
  return cp;
}

}  // namespace

CriticalPath extract_critical_path(const SpanStore& store) {
  if (store.empty()) return {};
  return critical_path_over(store, ChildIndex(store));
}

// ---- Straggler attribution -------------------------------------------------

Json Straggler::to_json() const {
  Json j = Json::object();
  j["span"] = span;
  j["name"] = name;
  if (!lane.empty()) j["lane"] = lane;
  j["duration_ns"] = static_cast<std::int64_t>(duration);
  j["p95_ns"] = static_cast<std::int64_t>(p95);
  if (!waited_on.empty()) j["waited_on"] = waited_on;
  return j;
}

namespace {

/// Peer groups smaller than this have no meaningful p95, so none of their
/// spans is a straggler.
constexpr std::size_t kMinPeerGroup = 4;

/// A span's longest Wait-category descendant so far: index kNone while it
/// has none.
struct WaitedOn {
  static constexpr std::uint32_t kNone = UINT32_MAX;  // above every span index
  sim::Duration duration = 0;
  std::uint32_t index = kNone;
  std::uint32_t kind = 0;
};

/// The longer of two, the lower index among equals.
const WaitedOn& longer(const WaitedOn& a, const WaitedOn& b) {
  if (b.index == WaitedOn::kNone) return a;
  if (a.index == WaitedOn::kNone || b.duration > a.duration) return b;
  return b.duration == a.duration && b.index < a.index ? b : a;
}

/// The stragglers, over an index of the store's children.
std::vector<Straggler> stragglers_over(const SpanStore& store, const ChildIndex& children) {
  // Peer groups by name id, visited in name order (deterministic), and a
  // bit per span index that marks the Wait-category spans.
  std::vector<std::vector<std::uint32_t>> members(store.interned());
  std::vector<std::uint8_t> waits((store.last_id() + 7) / 8, 0);
  store.for_each_retained([&](SpanId id, const RetainedSpan& s) {
    const SpanKind& k = store.kind(s.kind);
    members[k.name.v].push_back(id - 1);
    if (k.category == SpanCategory::Wait) {
      waits[(id - 1) / 8] |= static_cast<std::uint8_t>(1U << ((id - 1) % 8));
    }
  });
  std::vector<std::uint32_t> names;
  for (std::uint32_t n = 0; n < members.size(); ++n) {
    if (!members[n].empty()) names.push_back(n);
  }
  std::sort(names.begin(), names.end(), [&store](std::uint32_t a, std::uint32_t b) {
    return store.str(StrId{a}) < store.str(StrId{b});
  });

  // The resource a straggler waited on: its longest Wait-category
  // descendant, the lowest id among equals, rendered as "<name> on <lane>".
  // Kept for the spans that have children, by rank, and found in one pass
  // over them from the highest id down: a child's id is higher than its
  // parent's, so every child's entry is final when its parent is reached.
  std::vector<WaitedOn> waited(children.parents());
  children.for_each_parent_from_last([&](std::uint32_t p) {
    WaitedOn w;
    children.for_each_child(p, [&](std::uint32_t c) {
      if ((waits[c / 8] >> (c % 8) & 1) != 0) {
        const RetainedSpan s = store.retained(c + 1);
        w = longer(w, WaitedOn{s.duration(), c, s.kind});
      }
      if (children.has(c)) w = longer(w, waited[children.rank(c)]);
    });
    waited[children.rank(p)] = w;
  });
  auto waited_on = [&](std::uint32_t i) -> std::string {
    if (!children.has(i)) return {};
    const WaitedOn& w = waited[children.rank(i)];
    if (w.index == WaitedOn::kNone) return {};
    const SpanKind& k = store.kind(w.kind);
    if (k.lane.v == 0) return store.str(k.name);
    return store.str(k.name) + " on " + store.str(k.lane);
  };

  std::vector<Straggler> out;
  for (std::uint32_t name : names) {
    const std::vector<std::uint32_t>& group = members[name];
    if (group.size() < kMinPeerGroup) continue;
    std::vector<sim::Duration> durations;
    durations.reserve(group.size());
    for (std::uint32_t i : group) durations.push_back(store.retained(i + 1).duration());
    const sim::Duration p95 = nearest_rank_p95(durations);
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (durations[j] <= p95) continue;
      const std::uint32_t i = group[j];
      const SpanKind& k = store.kind(store.retained(i + 1).kind);
      Straggler st;
      st.span = i + 1;
      st.name = store.str(k.name);
      st.lane = store.str(k.lane);
      st.duration = durations[j];
      st.p95 = p95;
      st.waited_on = waited_on(i);
      out.push_back(std::move(st));
    }
  }
  // Most egregious first; span id breaks ties deterministically.
  std::sort(out.begin(), out.end(), [](const Straggler& a, const Straggler& b) {
    const sim::Duration ea = a.duration - a.p95;
    const sim::Duration eb = b.duration - b.p95;
    if (ea != eb) return ea > eb;
    return a.span < b.span;
  });
  return out;
}

}  // namespace

SpanAnalysis analyze_spans(const SpanStore& store) {
  SpanAnalysis out;
  const ChildIndex children(store);
  if (!store.empty()) out.critical_path = critical_path_over(store, children);
  out.stragglers = stragglers_over(store, children);
  out.index_bytes = children.bytes();
  return out;
}

}  // namespace gflink::obs
