#include "obs/span.hpp"

#include <algorithm>

#include "sim/util.hpp"

#include "obs/flight_recorder.hpp"

namespace gflink::obs {

namespace {

constexpr std::size_t idx(SpanCategory c) { return static_cast<std::size_t>(c); }

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

SpanId SpanStore::open(StrRef name, SpanCategory category, SpanId parent, sim::Time begin,
                       StrRef lane, int node, std::uint64_t trace_id) {
  CausalSpan s;
  s.id = next_id_++;
  s.parent = parent;
  s.name = intern(name);
  s.category = category;
  s.begin = begin;
  s.lane = intern(lane);
  s.node = node;
  if (parent != 0) {
    // Inherit the trace id from the parent if it is still open or retained;
    // a parent that was already dropped leaves the child's trace id at 0.
    auto it = open_.find(parent);
    if (it != open_.end()) {
      s.trace_id = it->second.trace_id;
    } else if (const std::size_t i = index_of(parent); retain_ && i != npos) {
      s.trace_id = closed_[i].trace_id;
    }
  } else {
    s.trace_id = trace_id;
  }
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
  ++recorded_;
  category_ns_[idx(s.category)] += s.duration();
  SpanNotes notes;
  if (auto nit = open_notes_.find(id); nit != open_notes_.end()) {
    notes = std::move(nit->second);
    open_notes_.erase(nit);
  }
  if (retain_) {
    const auto slot = static_cast<std::uint32_t>(closed_.size());
    for (const SpanNote& n : notes) closed_notes_.push_back(ClosedNote{slot, n});
    if (slot_.size() <= id) slot_.resize(id + 1, 0);
    slot_[id] = slot + 1;
    closed_.push_back(s);
  }
  if (flight_ != nullptr) flight_->on_span_closed(*this, s, std::move(notes));
}

SpanId SpanStore::record(StrRef name, SpanCategory category, SpanId parent, sim::Time begin,
                         sim::Time end, StrRef lane, int node) {
  SpanId id = open(name, category, parent, begin, lane, node);
  close(id, end);
  return id;
}

SpanNotes SpanStore::notes(SpanId id) const {
  SpanNotes out;
  const std::size_t slot = index_of(id);
  if (slot == npos) return out;
  auto it = std::lower_bound(
      closed_notes_.begin(), closed_notes_.end(), slot,
      [](const ClosedNote& n, std::size_t s) { return n.slot < s; });
  for (; it != closed_notes_.end() && it->slot == slot; ++it) out.push_back(it->note);
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

void SpanStore::clear() {
  open_.clear();
  open_notes_.clear();
  closed_.clear();
  slot_.clear();
  closed_notes_.clear();
  lanes_.clear();
  recorded_ = 0;
  category_ns_.fill(0);
  next_id_ = 1;
}

void SpanStore::export_metrics(MetricsRegistry& m) const {
  m.counter(Metric::TraceSpans).inc(static_cast<double>(recorded_));
  for (std::size_t i = 0; i < kSpanCategories; ++i) {
    m.counter(Metric::TraceSpanNs, {{"category", span_category_name(static_cast<SpanCategory>(i))}})
        .inc(static_cast<double>(category_ns_[i]));
  }
}

// ---- Lane intervals --------------------------------------------------------

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

/// The children of every retained span, as one offset array over spans()
/// indices: the children of spans()[i] are kids[offset[i] .. offset[i+1]),
/// in close order. Spans whose parent is 0 or not retained go to `roots`.
struct ChildIndex {
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> kids;
  std::vector<std::uint32_t> roots;

  explicit ChildIndex(const SpanStore& store) {
    const std::vector<CausalSpan>& spans = store.spans();
    const std::size_t n = spans.size();
    offset.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = store.index_of(spans[i].parent);
      if (p != SpanStore::npos) {
        ++offset[p + 1];
      } else {
        roots.push_back(static_cast<std::uint32_t>(i));
      }
    }
    for (std::size_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
    kids.resize(offset[n]);
    // Fill forward with offset[p] as the cursor, then shift the offsets
    // back by one slot: each child list keeps close order.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = store.index_of(spans[i].parent);
      if (p != SpanStore::npos) kids[offset[p]++] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = n; i > 0; --i) offset[i] = offset[i - 1];
    offset[0] = 0;
  }
};

/// A critical-path hop before names are rendered: `span` indexes spans().
struct RawSegment {
  std::uint32_t span;
  sim::Time begin;
  sim::Time end;
};

/// Backwards "last finisher" walk. For span S over [lo, hi]: children are
/// visited in decreasing end order, the gap between the frontier and a
/// child's end is S's own time, the child's interval recurses, and the
/// frontier jumps to the child's begin. Whatever remains in front of the
/// earliest child is S's own time too — so [lo, hi] is covered exactly once.
struct CriticalPathWalker {
  const std::vector<CausalSpan>& spans;
  const ChildIndex& children;
  CriticalPath& cp;
  std::vector<RawSegment>& segments;

  void attribute(std::uint32_t i, sim::Time b, sim::Time e) {
    cp.by_category[idx(spans[i].category)] += e - b;
    segments.push_back({i, b, e});
  }

  void walk(std::uint32_t i, sim::Time lo, sim::Time hi) {
    const CausalSpan& s = spans[i];
    const sim::Time floor = std::max(s.begin, lo);
    sim::Time t = hi;
    for (std::uint32_t k = children.offset[i]; k < children.offset[i + 1]; ++k) {
      if (t <= floor) break;
      const std::uint32_t ci = children.kids[k];
      const CausalSpan& c = spans[ci];
      const sim::Time ce = std::min(c.end, t);
      const sim::Time cb = std::max(c.begin, floor);
      if (ce <= cb) continue;
      if (ce < t) attribute(i, ce, t);
      walk(ci, cb, ce);
      t = cb;
    }
    if (t > floor) attribute(i, floor, t);
  }
};

}  // namespace

CriticalPath extract_critical_path(const SpanStore& store) {
  CriticalPath cp;
  const std::vector<CausalSpan>& spans = store.spans();
  if (spans.empty()) return cp;

  ChildIndex children(store);
  // Latest finisher first; the higher id breaks ties.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::sort(children.kids.begin() + children.offset[i],
              children.kids.begin() + children.offset[i + 1],
              [&spans](std::uint32_t a, std::uint32_t b) {
                if (spans[a].end != spans[b].end) return spans[a].end > spans[b].end;
                return spans[a].id > spans[b].id;
              });
  }
  std::sort(children.roots.begin(), children.roots.end(),
            [&spans](std::uint32_t a, std::uint32_t b) {
              if (spans[a].begin != spans[b].begin) return spans[a].begin < spans[b].begin;
              return spans[a].id < spans[b].id;
            });

  std::vector<RawSegment> raw;
  CriticalPathWalker walker{spans, children, cp, raw};
  for (std::uint32_t root : children.roots) {
    cp.total += spans[root].duration();
    walker.walk(root, spans[root].begin, spans[root].end);
  }

  // The walk emits segments latest-first; restore chronological order and
  // coalesce adjacent segments of the same span.
  std::reverse(raw.begin(), raw.end());
  std::vector<RawSegment> merged;
  for (const RawSegment& seg : raw) {
    if (!merged.empty() && merged.back().span == seg.span && merged.back().end == seg.begin) {
      merged.back().end = seg.end;
    } else {
      merged.push_back(seg);
    }
  }
  cp.segments.reserve(merged.size());
  for (const RawSegment& seg : merged) {
    const CausalSpan& s = spans[seg.span];
    cp.segments.push_back({s.id, store.str(s.name), s.category, seg.begin, seg.end});
  }
  return cp;
}

void export_critical_path_metrics(const CriticalPath& cp, MetricsRegistry& m) {
  m.gauge(Metric::TraceCriticalPathSeconds).set(sim::to_seconds(cp.total));
  for (std::size_t i = 0; i < kSpanCategories; ++i) {
    m.gauge(Metric::TraceCriticalPathSeconds,
            {{"category", span_category_name(static_cast<SpanCategory>(i))}})
        .set(sim::to_seconds(cp.by_category[i]));
  }
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

std::vector<Straggler> find_stragglers(const SpanStore& store, std::size_t min_group) {
  const std::vector<CausalSpan>& spans = store.spans();
  // Peer groups by name id, visited in name order (deterministic).
  std::vector<std::vector<std::uint32_t>> members(store.interned());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    members[spans[i].name.v].push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<std::uint32_t> names;
  for (std::uint32_t n = 0; n < members.size(); ++n) {
    if (!members[n].empty()) names.push_back(n);
  }
  std::sort(names.begin(), names.end(), [&store](std::uint32_t a, std::uint32_t b) {
    return store.str(StrId{a}) < store.str(StrId{b});
  });

  const ChildIndex children(store);
  // The resource a straggler waited on: its longest Wait-category
  // descendant, rendered as "<name> on <lane>".
  auto waited_on = [&](std::uint32_t top) -> std::string {
    const CausalSpan* longest = nullptr;
    std::vector<std::uint32_t> stack{top};
    while (!stack.empty()) {
      const std::uint32_t i = stack.back();
      stack.pop_back();
      const CausalSpan& s = spans[i];
      if (i != top && s.category == SpanCategory::Wait &&
          (longest == nullptr || s.duration() > longest->duration())) {
        longest = &s;
      }
      stack.insert(stack.end(), children.kids.begin() + children.offset[i],
                   children.kids.begin() + children.offset[i + 1]);
    }
    if (longest == nullptr) return {};
    if (longest->lane.v == 0) return store.str(longest->name);
    return store.str(longest->name) + " on " + store.str(longest->lane);
  };

  std::vector<Straggler> out;
  for (std::uint32_t name : names) {
    const std::vector<std::uint32_t>& group = members[name];
    if (group.size() < min_group) continue;
    std::vector<sim::Duration> durations;
    durations.reserve(group.size());
    for (std::uint32_t i : group) durations.push_back(spans[i].duration());
    const sim::Duration p95 = nearest_rank_p95(std::move(durations));
    for (std::uint32_t i : group) {
      const CausalSpan& s = spans[i];
      if (s.duration() <= p95) continue;
      Straggler st;
      st.span = s.id;
      st.name = store.str(s.name);
      st.lane = store.str(s.lane);
      st.duration = s.duration();
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

void export_straggler_metrics(const std::vector<Straggler>& stragglers, MetricsRegistry& m) {
  m.gauge(Metric::TraceStragglers).set(static_cast<double>(stragglers.size()));
}

}  // namespace gflink::obs
