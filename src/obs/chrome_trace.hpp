// Chrome-trace / Perfetto export of a SpanStore: its lane intervals and
// its causal spans.
//
// Lanes ("node1.gpu0/h2d", "node3/egress") become trace threads grouped
// into processes by their prefix before the first '/', so Perfetto and
// chrome://tracing render one swimlane per simulated resource. Counter
// snapshots from a MetricsRegistry are appended as Chrome counter events,
// and per-lane utilization rollups ride along in a top-level
// "laneUtilization" section (ignored by the viewers, consumed by tools).
#pragma once

#include <iosfwd>
#include <map>
#include <string>

#include "sim/time.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace gflink::obs {

struct LaneUtilization {
  sim::Duration busy_ns = 0;  // union of the lane's spans
  std::uint64_t spans = 0;
  double utilization = 0.0;  // busy / horizon
};

/// Busy-time rollup per lane over the store's lane intervals. `horizon` is
/// the run's end time; 0 means "use the latest interval end on any lane".
std::map<std::string, LaneUtilization> lane_utilization(const SpanStore& store,
                                                        sim::Time horizon = 0);

/// Write the full Chrome-trace JSON object ({"traceEvents": [...], ...}).
/// Virtual nanoseconds map to trace microseconds. Every lane interval is a
/// complete event on its lane. `metrics`, when given, contributes one
/// counter event per registered counter at the trace end. The retained
/// causal spans, if any, become complete events on their own lanes plus
/// flow events (ph "s"/"f") along every parent/child link, so Perfetto
/// draws causality arrows between lanes instead of visually disconnected
/// swimlanes.
void write_chrome_trace(std::ostream& os, const SpanStore& store,
                        const MetricsRegistry* metrics = nullptr, sim::Time horizon = 0);

/// Same document as a string (tests, small traces).
std::string chrome_trace_json(const SpanStore& store, const MetricsRegistry* metrics = nullptr,
                              sim::Time horizon = 0);

}  // namespace gflink::obs
