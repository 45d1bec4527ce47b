// Tests for the observability subsystem: JSON tree + parser, the labeled
// metrics registry, Chrome-trace export (validated by parsing the emitted
// document), lane utilization rollups, and run reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/span.hpp"

namespace obs = gflink::obs;
namespace sim = gflink::sim;
using obs::Json;

// ---- Json ------------------------------------------------------------------

TEST(Json, BuildAndDump) {
  Json root = Json::object();
  root["name"] = "run";
  root["count"] = 3;
  root["ratio"] = 0.5;
  root["ok"] = true;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  root["items"] = std::move(arr);
  EXPECT_EQ(root.dump(),
            "{\"name\":\"run\",\"count\":3,\"ratio\":0.5,\"ok\":true,\"items\":[1,\"two\"]}");
}

TEST(Json, ParseRoundTrip) {
  const std::string doc =
      R"({"a": 1, "b": [true, null, -2.5, "x\n\"y\""], "c": {"nested": 1e3}})";
  auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("a")->as_int(), 1);
  const Json& b = *parsed->find("b");
  ASSERT_EQ(b.size(), 4u);
  EXPECT_TRUE(b.items()[0].as_bool());
  EXPECT_TRUE(b.items()[1].is_null());
  EXPECT_DOUBLE_EQ(b.items()[2].as_double(), -2.5);
  EXPECT_EQ(b.items()[3].as_string(), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(parsed->find("c")->find("nested")->as_double(), 1000.0);

  // A dump of the parse must itself parse (round-trip stability).
  auto reparsed = Json::parse(parsed->dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->dump(), parsed->dump());
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::parse("'single'").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
}

// ---- MetricsRegistry -------------------------------------------------------

TEST(Metrics, LabelSemantics) {
  obs::MetricsRegistry m;
  // One family, different labels: distinct series.
  m.counter(obs::Metric::NetPipeBytes, {{"pipe", "a"}}).inc(10);
  m.counter(obs::Metric::NetPipeBytes, {{"pipe", "b"}}).inc(5);
  EXPECT_DOUBLE_EQ((m.counter_value("net_pipe_bytes_total", {{"pipe", "a"}})), 10.0);
  EXPECT_DOUBLE_EQ((m.counter_value("net_pipe_bytes_total", {{"pipe", "b"}})), 5.0);
  EXPECT_DOUBLE_EQ(m.counter_sum("net_pipe_bytes_total"), 15.0);
  // Label order must not matter: std::map canonicalizes.
  m.counter(obs::Metric::HealthEvents, {{"detector", "straggler"}, {"node", "2"}}).inc(1);
  m.counter(obs::Metric::HealthEvents, {{"node", "2"}, {"detector", "straggler"}}).inc(1);
  EXPECT_DOUBLE_EQ(
      (m.counter_value("health_events_total", {{"node", "2"}, {"detector", "straggler"}})), 2.0);
  // Absent series read as zero.
  EXPECT_DOUBLE_EQ((m.counter_value("net_pipe_bytes_total", {{"pipe", "zzz"}})), 0.0);
  // A family with a second accepted key set registers both shapes.
  m.gauge(obs::Metric::TraceCriticalPathSeconds).set(2.0);
  m.gauge(obs::Metric::TraceCriticalPathSeconds, {{"category", "h2d"}}).set(1.0);
  EXPECT_DOUBLE_EQ(m.gauge_value("trace_critical_path_seconds"), 2.0);
  EXPECT_DOUBLE_EQ((m.gauge_value("trace_critical_path_seconds", {{"category", "h2d"}})), 1.0);

  obs::MetricId id{"bytes", {{"pipe", "a"}}};
  EXPECT_EQ(id.to_string(), "bytes{pipe=\"a\"}");
  EXPECT_EQ((obs::MetricId{"plain"}.to_string()), "plain");
}

TEST(Metrics, HandlesAreStable) {
  obs::MetricsRegistry m;
  obs::Counter& c = m.counter(obs::Metric::NetBytes);
  for (int i = 0; i < 100; ++i) {
    m.counter(obs::Metric::NetPipeBytes, {{"pipe", "p" + std::to_string(i)}});
  }
  c.inc(7);
  EXPECT_DOUBLE_EQ(m.counter_value("net.bytes"), 7.0);
}

TEST(Metrics, HistogramRegistrationAndQuantiles) {
  obs::MetricsRegistry m;
  // The layout comes from the family: 0..10 s in 100 buckets.
  sim::Histogram& h = m.histogram(obs::Metric::EngineStageDurationNs);
  EXPECT_DOUBLE_EQ(h.lo(), 0.0);
  EXPECT_DOUBLE_EQ(h.hi(), 1.0e10);
  EXPECT_EQ(h.buckets(), 100u + 2u);  // plus under/overflow
  for (int i = 0; i < 100; ++i) h.add(1.0e8 * i);
  // Re-registration returns the same histogram.
  sim::Histogram& again = m.histogram(obs::Metric::EngineStageDurationNs);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.summary().count(), 100u);
  EXPECT_DOUBLE_EQ(again.quantile(0.5), 5.0e9);
}

TEST(MetricsDeathTest, WrongLabelKeysAbortNamingTheFamily) {
  obs::MetricsRegistry m;
  EXPECT_DEATH(m.counter(obs::Metric::NetPipeBytes),
               "'net_pipe_bytes_total' is a counter with label keys \\{pipe\\}");
  EXPECT_DEATH(m.counter(obs::Metric::NetBytes, {{"pipe", "a"}}), "net.bytes");
  EXPECT_DEATH(m.counter(obs::Metric::HealthEvents, {{"node", "1"}}), "detector, node");
  EXPECT_DEATH(m.gauge(obs::Metric::TraceCriticalPathSeconds, {{"tier", "disk"}}),
               "\\{\\} or \\{category\\}");
}

TEST(MetricsDeathTest, WrongKindAborts) {
  obs::MetricsRegistry m;
  EXPECT_DEATH(m.gauge(obs::Metric::NetBytes), "is a counter .*registered as a gauge");
  EXPECT_DEATH(m.histogram(obs::Metric::NetBytes), "registered as a histogram");
  EXPECT_DEATH(m.counter(obs::Metric::EngineStageDurationNs), "is a histogram");
  EXPECT_DEATH(m.gauge(obs::Metric::TelemetryShuffleResidentBytes), "is a sampled gauge");
}

TEST(MetricsDeathTest, SpillAndServiceFamiliesRequireAttribution) {
  obs::MetricsRegistry m;
  EXPECT_DEATH(m.counter(obs::Metric::SpillOffloadBlocks), "label keys \\{tier\\}");
  EXPECT_DEATH(m.counter(obs::Metric::CodecSavedBytes, {{"node", "1"}}), "\\{tier\\}");
  EXPECT_DEATH(m.counter(obs::Metric::ServiceSubmitted), "label keys \\{tenant\\}");
  EXPECT_DEATH(m.histogram(obs::Metric::ServiceLatencyNs), "\\{tenant\\}");
}

TEST(Metrics, MergeFrom) {
  obs::MetricsRegistry a, b;
  a.counter(obs::Metric::NetBytes).inc(1);
  b.counter(obs::Metric::NetBytes).inc(2);
  b.counter(obs::Metric::EngineStages).inc(4);
  a.gauge(obs::Metric::CacheHitRatio).set(0.1);
  b.gauge(obs::Metric::CacheHitRatio).set(0.9);
  a.histogram(obs::Metric::EngineStageDurationNs).add(1.0);
  b.histogram(obs::Metric::EngineStageDurationNs).add(2.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.counter_value("net.bytes"), 3.0);      // counters add
  EXPECT_DOUBLE_EQ(a.counter_value("engine.stages"), 4.0);  // new series appear
  EXPECT_DOUBLE_EQ(a.gauge_value("cache_hit_ratio"), 0.9);  // gauges overwrite
  ASSERT_NE(a.find_histogram("engine_stage_duration_ns"), nullptr);
  EXPECT_EQ(a.find_histogram("engine_stage_duration_ns")->summary().count(),
            2u);  // histograms merge
}

TEST(Metrics, ToJsonCarriesQuantiles) {
  obs::MetricsRegistry m;
  m.counter(obs::Metric::NetPipeBytes, {{"pipe", "v"}}).inc(2);
  m.gauge(obs::Metric::CacheHitRatio).set(0.25);
  sim::Histogram& h = m.histogram(obs::Metric::EngineStageDurationNs);
  for (int i = 0; i < 100; ++i) h.add(1.0e8 * i);
  Json j = m.to_json();
  ASSERT_NE(j.find("counters"), nullptr);
  ASSERT_NE(j.find("gauges"), nullptr);
  ASSERT_NE(j.find("histograms"), nullptr);
  const Json& hist = j.find("histograms")->items().at(0);
  EXPECT_EQ(hist.find("count")->as_int(), 100);
  EXPECT_DOUBLE_EQ(hist.find("p50")->as_double(), 5.0e9);
  EXPECT_NEAR(hist.find("p95")->as_double(), 9.5e9, 1.0e8);
  EXPECT_NEAR(hist.find("p99")->as_double(), 9.9e9, 1.0e8);
}

// ---- Metric catalog --------------------------------------------------------

TEST(MetricCatalog, ListsEveryFamilyExactlyOnce) {
  const std::string catalog = obs::render_metric_catalog();
  std::size_t rows = 0;
  for (std::size_t pos = catalog.find("\n| `"); pos != std::string::npos;
       pos = catalog.find("\n| `", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, obs::kMetricFamilies.size());
  for (const obs::MetricFamily& f : obs::kMetricFamilies) {
    const std::string cell = "| `" + std::string(f.name) + "` |";
    const std::size_t first = catalog.find(cell);
    ASSERT_NE(first, std::string::npos) << f.name;
    EXPECT_EQ(catalog.find(cell, first + 1), std::string::npos) << f.name;
  }
}

// ---- Chrome trace ----------------------------------------------------------

namespace {

/// Record one lane interval, interning the lane on the spot.
void record_lane(obs::SpanStore& s, const char* lane, const char* label, sim::Time begin,
                 sim::Time end) {
  s.record_lane(s.intern(lane), label, begin, end);
}

}  // namespace

TEST(ChromeTrace, EmittedJsonParsesBack) {
  obs::SpanStore t;
  t.set_retain(true);
  record_lane(t, "node1.gpu0/h2d", "copyA", sim::micros(0), sim::micros(10));
  record_lane(t, "node1.gpu0/kernel", "k", sim::micros(5), sim::micros(25));
  record_lane(t, "node0/egress", "shuffle", sim::micros(10), sim::micros(30));
  record_lane(t, "loose_lane", "x", sim::micros(0), sim::micros(1));

  obs::MetricsRegistry m;
  m.counter(obs::Metric::NetBytes).inc(4096);

  const std::string doc = obs::chrome_trace_json(t, &m, sim::micros(40));
  auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;

  const Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int meta = 0, complete = 0, counter = 0;
  for (const Json& e : events->items()) {
    const std::string ph = e.find("ph")->as_string();
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph == "M") {
      ++meta;
      const std::string name = e.find("name")->as_string();
      EXPECT_TRUE(name == "process_name" || name == "thread_name");
    } else if (ph == "X") {
      ++complete;
      EXPECT_GE(e.find("dur")->as_double(), 0.0);
      ASSERT_NE(e.find("ts"), nullptr);
    } else if (ph == "C") {
      ++counter;
      EXPECT_DOUBLE_EQ(e.find("args")->find("value")->as_double(), 4096.0);
    } else {
      FAIL() << "unexpected event phase " << ph;
    }
  }
  // 3 processes (node1.gpu0, node0, sim) + 4 threads of metadata; then the
  // 4 spans and 1 counter sample.
  EXPECT_EQ(meta, 3 + 4);
  EXPECT_EQ(complete, 4);
  EXPECT_EQ(counter, 1);

  // The kernel span keeps its microsecond timing through the export.
  bool found_kernel = false;
  for (const Json& e : events->items()) {
    if (e.find("ph")->as_string() == "X" && e.find("name")->as_string() == "k") {
      found_kernel = true;
      EXPECT_DOUBLE_EQ(e.find("ts")->as_double(), 5.0);
      EXPECT_DOUBLE_EQ(e.find("dur")->as_double(), 20.0);
    }
  }
  EXPECT_TRUE(found_kernel);

  // Utilization rollup rides along and is keyed by lane.
  const Json* util = parsed->find("laneUtilization");
  ASSERT_NE(util, nullptr);
  const Json* kernel_lane = util->find("node1.gpu0/kernel");
  ASSERT_NE(kernel_lane, nullptr);
  EXPECT_EQ(kernel_lane->find("busy_ns")->as_int(), sim::micros(20));
  EXPECT_DOUBLE_EQ(kernel_lane->find("utilization")->as_double(), 0.5);
}

TEST(ChromeTrace, LaneUtilizationUnionsOverlaps) {
  obs::SpanStore t;
  t.set_retain(true);
  // Overlapping intervals on one lane: busy time is the union, not the sum
  // (the same merge as SpanStore::busy_time).
  record_lane(t, "l", "a", 0, 100);
  record_lane(t, "l", "b", 50, 150);
  record_lane(t, "l", "c", 300, 400);
  auto util = obs::lane_utilization(t, 400);
  ASSERT_EQ(util.count("l"), 1u);
  EXPECT_EQ(util["l"].busy_ns, 250);
  EXPECT_EQ(util["l"].spans, 3u);
  EXPECT_DOUBLE_EQ(util["l"].utilization, 250.0 / 400.0);
}

// ---- RunReport -------------------------------------------------------------

TEST(RunReport, ToJsonCarriesHeadlineKeys) {
  obs::RunReport rep;
  rep.name = "unit";
  rep.set_config("workers", Json(4));
  rep.virtual_ns = sim::seconds(2);
  rep.metrics.counter(obs::Metric::GpuCacheHits).inc(3);
  rep.metrics.counter(obs::Metric::GpuCacheMisses).inc(1);
  rep.metrics.counter(obs::Metric::GstreamLocalityHits).inc(1);
  rep.metrics.counter(obs::Metric::GstreamLocalityMisses).inc(3);
  obs::add_derived_gflink_metrics(rep.metrics);

  EXPECT_DOUBLE_EQ(rep.metrics.gauge_value("cache_hit_ratio"), 0.75);
  EXPECT_DOUBLE_EQ(rep.metrics.gauge_value("locality_hit_ratio"), 0.25);

  Json j = rep.to_json();
  EXPECT_EQ(j.find("schema")->as_string(), "gflink.run_report/v3");
  EXPECT_EQ(j.find("name")->as_string(), "unit");
  EXPECT_EQ(j.find("config")->find("workers")->as_int(), 4);
  EXPECT_DOUBLE_EQ(j.find("virtual_seconds")->as_double(), 2.0);
  ASSERT_NE(j.find("metrics"), nullptr);

  // The acceptance keys must exist even in a run that never touched GPUs:
  // the three stage counters and both ratio gauges.
  const Json* counters = j.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  int stage_keys = 0;
  for (const Json& c : counters->items()) {
    if (c.find("name")->as_string() == "gpu_stage_busy_ns") ++stage_keys;
  }
  EXPECT_EQ(stage_keys, 3);

  // And the whole document survives a parse round-trip.
  auto parsed = Json::parse(j.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("name")->as_string(), "unit");
}

// ---- Causal spans ----------------------------------------------------------

namespace {

// Golden span DAG used by the critical-path and flow-event tests:
//
//   job (Control)            [0 ....................................... 1000]
//     stage:map (Control)        [100 ............ 600]
//       task:map (Kernel)            [200 .. 500]
//     stage:reduce (Shuffle)                      [600 ......... 900]
//       wait:credit (Wait)                             [700 800]
//
// Last-finisher attribution: control 400 (job [0,100]+[900,1000],
// stage:map [100,200]+[500,600]), kernel 300, shuffle 200 ([600,700] +
// [800,900]), wait 100 — summing to the 1000 ns makespan exactly.
obs::SpanId build_golden_dag(obs::SpanStore& s) {
  s.set_retain(true);
  const obs::SpanId job =
      s.open("job", obs::SpanCategory::Control, 0, 0, "master/job", 0, /*trace_id=*/7);
  const obs::SpanId map = s.open("stage:map", obs::SpanCategory::Control, job, 100);
  s.record("task:map", obs::SpanCategory::Kernel, map, 200, 500, "node1/gpu0", 1);
  s.close(map, 600);
  const obs::SpanId reduce = s.open("stage:reduce", obs::SpanCategory::Shuffle, job, 600);
  s.record("wait:credit", obs::SpanCategory::Wait, reduce, 700, 800, "node2/shuffle", 2);
  s.close(reduce, 900);
  s.close(job, 1000);
  return job;
}

sim::Duration category_ns(const obs::CriticalPath& cp, obs::SpanCategory c) {
  return cp.by_category[static_cast<std::size_t>(c)];
}

}  // namespace

TEST(Spans, TraceIdInheritsAndAggregatesCount) {
  obs::SpanStore s;
  build_golden_dag(s);
  ASSERT_EQ(s.spans().size(), 5u);
  for (const auto& span : s.spans()) {
    EXPECT_EQ(span.trace_id, 7u) << s.str(span.name);
  }
  EXPECT_EQ(s.recorded(), 5u);

  obs::MetricsRegistry m;
  s.export_metrics(m);
  EXPECT_DOUBLE_EQ(m.counter_value("trace_spans_total"), 5.0);
  EXPECT_DOUBLE_EQ((m.counter_value("trace_span_ns_total", {{"category", "kernel"}})), 300.0);
  EXPECT_DOUBLE_EQ((m.counter_value("trace_span_ns_total", {{"category", "wait"}})), 100.0);
}

TEST(Spans, GoldenDagCriticalPathBreakdown) {
  obs::SpanStore s;
  build_golden_dag(s);
  const obs::CriticalPath cp = obs::extract_critical_path(s);

  EXPECT_EQ(cp.total, 1000);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Control), 400);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Kernel), 300);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Shuffle), 200);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Wait), 100);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::H2D), 0);

  // Every instant of the makespan lands in exactly one category.
  sim::Duration sum = 0;
  for (auto d : cp.by_category) sum += d;
  EXPECT_EQ(sum, cp.total);

  // Chronological segments walk the known longest path through the DAG.
  ASSERT_EQ(cp.segments.size(), 8u);
  const char* expected[] = {"job",          "stage:map",   "task:map",    "stage:map",
                            "stage:reduce", "wait:credit", "stage:reduce", "job"};
  sim::Time cursor = 0;
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    EXPECT_EQ(cp.segments[i].name, expected[i]) << "segment " << i;
    EXPECT_EQ(cp.segments[i].begin, cursor) << "segment " << i;  // gap-free
    cursor = cp.segments[i].end;
  }
  EXPECT_EQ(cursor, 1000);
}

TEST(Spans, CriticalPathGaugesExport) {
  obs::SpanStore s;
  build_golden_dag(s);
  obs::MetricsRegistry m;
  obs::export_critical_path_metrics(obs::extract_critical_path(s), m);
  EXPECT_DOUBLE_EQ(m.gauge_value("trace_critical_path_seconds"), 1000e-9);
  EXPECT_DOUBLE_EQ((m.gauge_value("trace_critical_path_seconds", {{"category", "kernel"}})),
                   300e-9);
}

TEST(Spans, StragglerFlagsKnownOutlierAndNamesWaitedResource) {
  obs::SpanStore s;
  s.set_retain(true);
  // Peer group "task:rank" of ten members: nine take 100 ns, one takes
  // 1000 ns. Nearest-rank p95 over the sorted durations is 100 ns, so only
  // the outlier is strictly slower.
  for (int i = 0; i < 9; ++i) {
    s.record("task:rank", obs::SpanCategory::Control, 0, 0, 100, "node1/tasks", 1);
  }
  const obs::SpanId slow =
      s.open("task:rank", obs::SpanCategory::Control, 0, 0, "node3/tasks", 3);
  s.record("wait:slot", obs::SpanCategory::Wait, slow, 0, 700, "node3/slots", 3);
  s.record("wait:credit", obs::SpanCategory::Wait, slow, 700, 900, "node3/shuffle", 3);
  s.close(slow, 1000);
  // A group too small to have meaningful percentiles is never flagged.
  s.record("task:tiny", obs::SpanCategory::Control, 0, 0, 5000);
  s.record("task:tiny", obs::SpanCategory::Control, 0, 0, 1);

  const std::vector<obs::Straggler> out = obs::find_stragglers(s);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].span, slow);
  EXPECT_EQ(out[0].name, "task:rank");
  EXPECT_EQ(out[0].lane, "node3/tasks");
  EXPECT_EQ(out[0].duration, 1000);
  EXPECT_EQ(out[0].p95, 100);
  // Attribution names the longest Wait descendant and its lane.
  EXPECT_EQ(out[0].waited_on, "wait:slot on node3/slots");

  obs::MetricsRegistry m;
  obs::export_straggler_metrics(out, m);
  EXPECT_DOUBLE_EQ(m.gauge_value("trace_stragglers_total"), 1.0);
}

TEST(Spans, UntracedStoreStaysEmptyButCounts) {
  obs::SpanStore s;  // retain off: the default for untraced runs
  const obs::SpanId id = s.open("task:x", obs::SpanCategory::Control, 0, 0);
  s.close(id, 10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.recorded(), 1u);
  EXPECT_EQ(obs::extract_critical_path(s).total, 0);
  // Id 0 is the "no span" sentinel everywhere.
  s.annotate(0, "k", "v");
  s.close(0, 99);
}

TEST(Spans, ClosedParentTraceIdNeedsRetention) {
  // A child opened after its parent closed finds the parent by id: on a
  // retaining store it inherits the trace id, on a store that does not
  // retain the parent is gone and the child's trace id stays 0.
  for (const bool retain : {true, false}) {
    obs::SpanStore s;
    s.set_retain(retain);
    const obs::SpanId job = s.open("job", obs::SpanCategory::Control, 0, 0, {}, 0, 42);
    for (int i = 0; i < 100; ++i) s.record("filler", obs::SpanCategory::Control, job, i, i + 1);
    s.close(job, 200);
    s.record("late", obs::SpanCategory::Control, job, 300, 400);
    if (retain) {
      const obs::CausalSpan& late = s.spans().back();
      EXPECT_EQ(s.str(late.name), "late");
      EXPECT_EQ(late.trace_id, 42u);
      EXPECT_EQ(s.index_of(job), 100u);  // closed after the 100 fillers
    } else {
      EXPECT_TRUE(s.empty());
      EXPECT_EQ(s.index_of(job), obs::SpanStore::npos);
    }
  }
  obs::FlightRecorder fr;
  obs::SpanStore s;
  s.attach_flight_recorder(&fr);
  const obs::SpanId job = s.open("job", obs::SpanCategory::Control, 0, 0, {}, 0, 42);
  s.close(job, 10);
  s.record("late", obs::SpanCategory::Control, job, 20, 30, {}, 0);
  const obs::Json ring = fr.to_json().find("nodes")->items()[0];
  EXPECT_EQ(ring.find("spans")->items()[1].find("trace_id")->as_int(), 0);
}

TEST(Spans, CompactRecordsInternNamesAndLanes) {
  static_assert(sizeof(obs::CausalSpan) == 40);
  static_assert(sizeof(obs::LaneInterval) == 24);
  obs::FlightRecorder fr(/*ring_capacity=*/2);
  obs::SpanStore s;
  s.set_retain(true);
  s.attach_flight_recorder(&fr);
  const std::size_t before = s.interned();
  const char* names[] = {"task:map", "task:reduce", "wait:slot", "net:egress"};
  const char* lanes[] = {"node1/tasks", "node2/tasks", "node1/egress"};
  const obs::SpanId root = s.open("task:map", obs::SpanCategory::Control, 0, 0, "node1/tasks", 1);
  for (int i = 0; i < 100'000; ++i) {
    s.record(names[i % 4], obs::SpanCategory::Control, root, i, i + 1, lanes[i % 3], 1);
  }
  EXPECT_EQ(s.interned() - before, 7u);  // 4 names + 3 lanes, whatever the span count

  // Notes ride in a side table and come back out in the span JSON and in
  // the flight dump, whose ring renders names through the same table.
  s.annotate(root, "failed", "worker_lost");
  s.annotate(root, "chunks", "3");
  s.close(root, 100'000);
  ASSERT_EQ(s.spans().size(), 100'001u);
  const obs::CausalSpan& last = s.spans().back();
  ASSERT_EQ(last.id, root);
  const obs::Json j = s.to_json(last);
  EXPECT_EQ(j.find("name")->as_string(), "task:map");
  EXPECT_EQ(j.find("lane")->as_string(), "node1/tasks");
  EXPECT_EQ(j.find("notes")->find("failed")->as_string(), "worker_lost");
  EXPECT_EQ(j.find("notes")->find("chunks")->as_string(), "3");
  EXPECT_EQ(s.to_json(s.spans().front()).find("notes"), nullptr);

  const obs::Json dump = fr.to_json();
  const obs::Json& ring = *dump.find("nodes")->items()[0].find("spans");
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.items()[1].find("name")->as_string(), "task:map");
  EXPECT_EQ(ring.items()[1].find("notes")->find("failed")->as_string(), "worker_lost");
  auto parsed = obs::Json::parse(dump.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), dump.dump());
}

TEST(Spans, ChunkBoundaries) {
  // Two and a half chunks of spans and of lane intervals. A parent closes
  // in the first chunk and its children land in the last one, so every
  // reader has to follow ids and parents across chunk boundaries.
  constexpr std::size_t kChunk = obs::ChunkLog<obs::CausalSpan>::kChunkRecords;
  constexpr std::size_t kFiller = 2 * kChunk + kChunk / 2;
  static_assert(obs::ChunkLog<obs::LaneInterval>::kChunkRecords == kChunk);
  obs::SpanStore s;
  s.set_retain(true);
  const obs::SpanId job = s.open("job", obs::SpanCategory::Control, 0, 0, "master/job", -1, 9);
  const obs::SpanId stage = s.open("stage:map", obs::SpanCategory::Control, job, 0, "node1/tasks", 1);
  s.annotate(stage, "partitions", "8");
  s.close(stage, 100);
  for (std::size_t i = 0; i < kFiller; ++i) {
    const auto t = static_cast<sim::Time>(100 + i);
    s.record("filler", obs::SpanCategory::Control, job, t, t + 1, "node2/tasks", 2);
  }
  const obs::SpanId kernel =
      s.record("kernel", obs::SpanCategory::Kernel, stage, 50, 90, "node1/gpu0", 1);
  const obs::SpanId wait = s.record("wait:slot", obs::SpanCategory::Wait, stage, 10, 20);
  const auto makespan = static_cast<sim::Time>(100 + kFiller);
  s.close(job, makespan);

  ASSERT_EQ(s.spans().size(), kFiller + 4);
  EXPECT_EQ(s.index_of(stage), 0u);
  EXPECT_EQ(s.index_of(kernel), kFiller + 1);
  EXPECT_EQ(s.index_of(wait), kFiller + 2);
  EXPECT_EQ(s.index_of(job), kFiller + 3);
  EXPECT_EQ(s.index_of(kernel) / kChunk, 2u);  // the last chunk
  for (const obs::SpanId id : {stage, kernel, wait, job}) {
    EXPECT_EQ(s.spans()[s.index_of(id)].id, id);
  }
  const obs::SpanNotes notes = s.notes(stage);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(s.str(notes[0].key), "partitions");
  EXPECT_EQ(notes[0].value, "8");
  EXPECT_TRUE(s.notes(kernel).empty());
  // The children inherit the trace id from their parent, closed long before.
  EXPECT_EQ(s.spans()[s.index_of(kernel)].trace_id, 9u);
  EXPECT_EQ(s.spans()[s.index_of(wait)].trace_id, 9u);
  std::size_t spans_seen = 0;
  for (const obs::CausalSpan& span : s.spans()) {
    EXPECT_EQ(span.trace_id, 9u);
    ++spans_seen;
  }
  EXPECT_EQ(spans_seen, s.spans().size());

  const obs::CriticalPath cp = obs::extract_critical_path(s);
  EXPECT_EQ(cp.total, makespan);
  sim::Duration sum = 0;
  for (auto d : cp.by_category) sum += d;
  EXPECT_EQ(sum, cp.total);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Kernel), 40);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Wait), 10);

  // Lane "a" tiles [i, i+2) intervals, each overlapping the next, so its
  // busy time is one union that crosses every chunk boundary.
  const obs::StrId a = s.intern("node1/a");
  const obs::StrId b = s.intern("node1/b");
  for (std::size_t i = 0; i < kFiller; ++i) {
    const auto t = static_cast<sim::Time>(i);
    s.record_lane(a, "x", t, t + 2);
  }
  s.record_lane(b, "y", static_cast<sim::Time>(kChunk) - 1, static_cast<sim::Time>(kChunk));
  ASSERT_EQ(s.lane_intervals().size(), kFiller + 1);
  EXPECT_EQ(s.lane_intervals()[kChunk].begin, static_cast<sim::Time>(kChunk));
  EXPECT_EQ(s.lane("node1/a").size(), kFiller);
  EXPECT_EQ(s.busy_time("node1/a"), static_cast<sim::Duration>(kFiller + 1));
  EXPECT_EQ(s.busy_time("node1/b"), 1);
  EXPECT_TRUE(s.lanes_overlap("node1/a", "node1/b"));

  // The Chrome trace parses, and every link but the root's has exactly
  // one flow start and one flow finish.
  auto parsed = Json::parse(obs::chrome_trace_json(s, nullptr, makespan));
  ASSERT_TRUE(parsed.has_value());
  std::map<std::int64_t, int> starts, finishes;
  for (const Json& e : parsed->find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "s") ++starts[e.find("id")->as_int()];
    if (ph == "f") ++finishes[e.find("id")->as_int()];
  }
  EXPECT_EQ(starts.size(), s.spans().size() - 1);
  EXPECT_EQ(finishes.size(), starts.size());
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow id " << id;
    EXPECT_EQ(finishes[id], 1) << "flow id " << id;
  }
  const Json* util = parsed->find("laneUtilization")->find("node1/a");
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->find("busy_ns")->as_int(), static_cast<std::int64_t>(kFiller + 1));
}

TEST(SpansDeathTest, TraceIdPast32BitsAborts) {
  obs::SpanStore s;
  EXPECT_DEATH(s.open("job", obs::SpanCategory::Control, 0, 0, {}, 0, std::uint64_t{1} << 32),
               "trace id does not fit in 32 bits");
}

TEST(ChromeTrace, FlowEventsFollowSpanLinks) {
  obs::SpanStore s;
  build_golden_dag(s);
  record_lane(s, "node1/cpu", "work", 0, 1000);

  const std::string doc = obs::chrome_trace_json(s, nullptr, 1000);
  auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;

  // Four parent/child links -> four "s"/"f" pairs, ids matching pairwise.
  std::map<std::int64_t, int> starts, finishes;
  int causal_slices = 0;
  for (const Json& e : parsed->find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "s") ++starts[e.find("id")->as_int()];
    if (ph == "f") {
      ++finishes[e.find("id")->as_int()];
      EXPECT_EQ(e.find("bp")->as_string(), "e");
    }
    if (ph == "X" && e.find("cat")->as_string() == "causal") ++causal_slices;
  }
  EXPECT_EQ(causal_slices, 5);
  EXPECT_EQ(starts.size(), 4u);
  EXPECT_EQ(finishes.size(), 4u);
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow id " << id;
    EXPECT_EQ(finishes[id], 1) << "flow id " << id;
  }
}

// ---- Flight recorder -------------------------------------------------------

TEST(FlightRecorder, RingsAreBoundedAndDumpRoundTrips) {
  obs::FlightRecorder fr(/*ring_capacity=*/4);
  obs::SpanStore s;
  s.attach_flight_recorder(&fr);
  // Ten closed spans on one node: the ring keeps only the last four even
  // though the store itself retains nothing (untraced run).
  for (int i = 0; i < 10; ++i) {
    s.record("task:t", obs::SpanCategory::Control, 0, i * 10, i * 10 + 5, "node1/tasks", 1);
  }
  fr.note_event(100, 1, "cache_evict", "gpu0 4096 bytes");
  fr.note_fault(110, 2, "shuffle_transfer_fault", "block to node3");
  EXPECT_EQ(fr.faults(), 1u);

  const std::string path = ::testing::TempDir() + "flight_dump_test.json";
  ASSERT_TRUE(fr.dump_now(path));

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::parse(buf.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), "gflink.flight_dump/v1");
  const Json* nodes = parsed->find("nodes");
  ASSERT_NE(nodes, nullptr);
  bool saw_node1 = false, saw_fault = false;
  for (const Json& n : nodes->items()) {
    if (n.find("node")->as_int() == 1) {
      saw_node1 = true;
      ASSERT_EQ(n.find("spans")->size(), 4u);  // bounded ring, oldest dropped
      // Oldest-first: the retained spans are the last four recorded.
      EXPECT_EQ(n.find("spans")->items()[0].find("begin_ns")->as_int(), 60);
      EXPECT_EQ(n.find("events")->items()[0].find("kind")->as_string(), "cache_evict");
    }
    for (const Json& ev : n.find("events")->items()) {
      if (ev.find("kind")->as_string() == "shuffle_transfer_fault") saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_node1);
  EXPECT_TRUE(saw_fault);
  std::remove(path.c_str());
}

TEST(FlightRecorder, FirstFaultAutoDumps) {
  obs::FlightRecorder fr;
  const std::string path = ::testing::TempDir() + "flight_auto_dump.json";
  fr.set_dump_path(path);
  fr.note_event(1, 0, "benign", "not a fault");
  EXPECT_EQ(fr.dumps(), 0u);
  fr.note_fault(2, 1, "worker_failure", "worker 1 died");
  EXPECT_EQ(fr.dumps(), 1u);
  fr.note_fault(3, 2, "worker_failure", "worker 2 died");
  EXPECT_EQ(fr.dumps(), 1u);  // only the first fault snapshots
  EXPECT_EQ(fr.faults(), 2u);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

TEST(FlightRecorder, WrappedRingsKeepExactTotalsAndClearResets) {
  constexpr std::size_t kCapacity = 4;
  constexpr int kNodes = 3;
  constexpr int kPerNode = 10;  // every ring wraps 2.5 times
  obs::FlightRecorder fr(kCapacity);
  obs::SpanStore store;
  const obs::StrId name = store.intern("wrap_span");
  for (int i = 0; i < kNodes * kPerNode; ++i) {
    const int node = i % kNodes;
    fr.note_event(i, node, "wrap_event", std::to_string(i));
    obs::CausalSpan span;
    span.id = static_cast<obs::SpanId>(i + 1);
    span.node = node;
    span.name = name;
    span.begin = i;
    span.end = i + 1;
    fr.on_span_closed(store, span);
  }
  fr.note_fault(100, 0, "wrap_fault", "");  // no dump path: counts only
  constexpr std::uint64_t kSpans = kNodes * kPerNode;
  constexpr std::uint64_t kEvents = kSpans + 1;
  EXPECT_EQ(fr.events_seen(), kEvents);
  EXPECT_EQ(fr.faults(), 1u);
  EXPECT_EQ(fr.dumps(), 0u);

  // The totals stay exact after wraparound; the rings keep the newest.
  const std::string path = ::testing::TempDir() + "flight_wrap_dump.json";
  ASSERT_TRUE(fr.dump_now(path));
  std::remove(path.c_str());
  EXPECT_EQ(fr.dumps(), 1u);
  const Json dump = fr.to_json();
  EXPECT_EQ(dump.find("spans_seen")->as_int(), static_cast<std::int64_t>(kSpans));
  EXPECT_EQ(dump.find("events_seen")->as_int(), static_cast<std::int64_t>(kEvents));
  EXPECT_EQ(dump.find("faults")->as_int(), 1);
  const Json* nodes = dump.find("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_EQ(nodes->size(), static_cast<std::size_t>(kNodes));
  for (const Json& n : nodes->items()) {
    const auto& spans = n.find("spans")->items();
    const auto& events = n.find("events")->items();
    ASSERT_EQ(spans.size(), kCapacity);
    ASSERT_EQ(events.size(), kCapacity);
    // Node k's last span began at 27 + k, the newest of its ten.
    EXPECT_EQ(spans.back().find("begin_ns")->as_int(), 27 + n.find("node")->as_int());
  }
  EXPECT_EQ(nodes->items()[0].find("events")->items().back().find("kind")->as_string(),
            "wrap_fault");

  obs::MetricsRegistry m;
  fr.export_metrics(m);
  EXPECT_DOUBLE_EQ(m.counter_value("flight_spans_total"), static_cast<double>(kSpans));
  EXPECT_DOUBLE_EQ(m.counter_value("flight_events_total"), static_cast<double>(kEvents));
  EXPECT_DOUBLE_EQ(m.counter_value("flight_faults_total"), 1.0);
  EXPECT_DOUBLE_EQ(m.counter_value("flight_dumps_total"), 1.0);

  fr.clear();
  EXPECT_EQ(fr.events_seen(), 0u);
  EXPECT_EQ(fr.faults(), 0u);
  EXPECT_EQ(fr.dumps(), 0u);
  const Json cleared = fr.to_json();
  EXPECT_EQ(cleared.find("spans_seen")->as_int(), 0);
  EXPECT_EQ(cleared.find("nodes")->size(), 0u);
  obs::MetricsRegistry after;
  fr.export_metrics(after);
  for (const char* name :
       {"flight_spans_total", "flight_events_total", "flight_faults_total", "flight_dumps_total"}) {
    EXPECT_DOUBLE_EQ(after.counter_value(name), 0.0) << name;
  }
}

TEST(RunReport, CarriesHostPeakRss) {
  obs::RunReport rep;
  rep.peak_rss_mb = obs::host_peak_rss_mb();
  EXPECT_GT(rep.peak_rss_mb, 0.0);
  const Json j = rep.to_json();
  ASSERT_NE(j.find("peak_rss_mb"), nullptr);
  EXPECT_DOUBLE_EQ(j.find("peak_rss_mb")->as_double(), rep.peak_rss_mb);
}

TEST(RunReport, DigestCoversModelledFieldsOnly) {
  auto make = [](const char* gpu = "0") {
    obs::RunReport rep;
    rep.name = "unit";
    rep.set_config("workers", Json(4));
    rep.virtual_ns = sim::seconds(2);
    rep.wall_seconds = 1.5;
    rep.peak_rss_mb = 40.0;
    rep.metrics.counter(obs::Metric::GpuCacheHits).inc(3);
    rep.metrics.gauge(obs::Metric::GpuCopyComputeOverlapEfficiency, {{"gpu", gpu}}).set(0.5);
    return rep;
  };
  auto digest = [](const obs::RunReport& rep) {
    const Json j = rep.to_json();
    const Json* d = j.find("digest");
    EXPECT_NE(d, nullptr);
    return d != nullptr ? d->as_string() : std::string();
  };
  const obs::RunReport base = make();
  const std::string d0 = digest(base);
  EXPECT_EQ(d0.size(), 16u);
  EXPECT_EQ(d0.find_first_not_of("0123456789abcdef"), std::string::npos) << d0;

  obs::RunReport host = make();  // host measurements are outside the digest
  host.wall_seconds = 99.0;
  host.peak_rss_mb = 1234.0;
  EXPECT_EQ(digest(host), d0);

  obs::RunReport vns = make();
  vns.virtual_ns += 1;
  EXPECT_NE(digest(vns), d0);

  obs::RunReport counter = make();
  counter.metrics.counter(obs::Metric::GpuCacheHits).inc(1);
  EXPECT_NE(digest(counter), d0);

  EXPECT_NE(digest(make("1")), d0);  // one gauge label

  obs::RunReport config = make();
  config.set_config("workers", Json(5));
  EXPECT_NE(digest(config), d0);
}

TEST(RunReport, DerivedMetricsHandleEmptyRegistry) {
  obs::MetricsRegistry m;
  obs::add_derived_gflink_metrics(m);
  EXPECT_DOUBLE_EQ(m.gauge_value("cache_hit_ratio"), 0.0);
  EXPECT_DOUBLE_EQ(m.gauge_value("locality_hit_ratio"), 0.0);
  EXPECT_DOUBLE_EQ((m.counter_value("gpu_stage_busy_ns", {{"stage", "kernel"}})), 0.0);
}
