// Tests for the observability subsystem: JSON tree + parser, the labeled
// metrics registry, Chrome-trace export (validated by parsing the emitted
// document), lane utilization rollups, and run reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
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

  obs::MetricId id{"bytes", {{"pipe", "a"}}};
  EXPECT_EQ(id.to_string(), "bytes{pipe=\"a\"}");
  EXPECT_EQ((obs::MetricId{"plain", {}}.to_string()), "plain");
}

TEST(Metrics, HandlesAreStable) {
  obs::MetricsRegistry m;
  obs::Counter& c = m.counter(obs::Metric::NetBytes);
  for (int i = 0; i < 100; ++i) {
    std::string pipe = "p";
    pipe += std::to_string(i);
    m.counter(obs::Metric::NetPipeBytes, {{"pipe", pipe}});
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
  EXPECT_DEATH(m.gauge(obs::Metric::GpuCopyComputeOverlapEfficiency, {{"tier", "disk"}}),
               "'gpu_copy_compute_overlap_efficiency' is a gauge with label keys \\{gpu\\}, "
               "registered as a gauge with label keys \\{tier\\}");
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
  a.gauge(obs::Metric::MultitenantJobsPerSecond).set(0.1);
  b.gauge(obs::Metric::MultitenantJobsPerSecond).set(0.9);
  a.histogram(obs::Metric::EngineStageDurationNs).add(1.0);
  b.histogram(obs::Metric::EngineStageDurationNs).add(2.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.counter_value("net.bytes"), 3.0);      // counters add
  EXPECT_DOUBLE_EQ(a.counter_value("engine.stages"), 4.0);  // new series appear
  EXPECT_DOUBLE_EQ(a.gauge_value("multitenant_jobs_per_second"), 0.9);  // gauges overwrite
  ASSERT_NE(a.find_histogram("engine_stage_duration_ns"), nullptr);
  EXPECT_EQ(a.find_histogram("engine_stage_duration_ns")->summary().count(),
            2u);  // histograms merge
}

TEST(Metrics, ToJsonCarriesQuantiles) {
  obs::MetricsRegistry m;
  m.counter(obs::Metric::NetPipeBytes, {{"pipe", "v"}}).inc(2);
  m.gauge(obs::Metric::MultitenantJobsPerSecond).set(0.25);
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

  Json j = rep.to_json();
  EXPECT_EQ(j.find("schema")->as_string(), "gflink.run_report/v3");
  EXPECT_EQ(j.find("name")->as_string(), "unit");
  EXPECT_EQ(j.find("config")->find("workers")->as_int(), 4);
  EXPECT_DOUBLE_EQ(j.find("virtual_seconds")->as_double(), 2.0);
  ASSERT_NE(j.find("metrics"), nullptr);

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

  const std::vector<obs::Straggler> out = obs::analyze_spans(s).stragglers;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].span, slow);
  EXPECT_EQ(out[0].name, "task:rank");
  EXPECT_EQ(out[0].lane, "node3/tasks");
  EXPECT_EQ(out[0].duration, 1000);
  EXPECT_EQ(out[0].p95, 100);
  // Attribution names the longest Wait descendant and its lane.
  EXPECT_EQ(out[0].waited_on, "wait:slot on node3/slots");

  // The p95 is the sorted group's nearest-rank entry, on random groups of
  // every size from 1 to 40 whose values repeat often.
  std::uint64_t x = 7;
  for (std::size_t n = 1; n <= 40; ++n) {
    for (int round = 0; round < 8; ++round) {
      std::vector<sim::Duration> group(n);
      for (auto& d : group) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        d = static_cast<sim::Duration>((x >> 33) % (1 + n / 3));
      }
      std::vector<sim::Duration> sorted = group;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(obs::nearest_rank_p95(group),
                sorted[static_cast<std::size_t>(0.95 * static_cast<double>(n - 1))])
          << "n=" << n << " round=" << round;
    }
  }
  EXPECT_EQ(obs::nearest_rank_p95(std::vector<sim::Duration>{}), 0);
}

TEST(Spans, UntracedStoreStaysEmptyButCounts) {
  obs::SpanStore s;  // retain off: the default for untraced runs
  const obs::SpanId id = s.open("task:x", obs::SpanCategory::Control, 0, 0);
  s.close(id, 10);
  s.record("wait:slot", obs::SpanCategory::Wait, id, 2, 4);
  s.record_lane(s.intern("node1/a"), "x", 0, 1);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.recorded(), 2u);
  EXPECT_EQ(s.retained_bytes(), 0u);  // it allocates none of its logs
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
      EXPECT_EQ(s.index_of(job), 0u);  // id order: closed after its 100 fillers, still first
    } else {
      EXPECT_TRUE(s.empty());
      EXPECT_EQ(s.index_of(job), obs::SpanStore::npos);
    }
  }
  {
    // Two roots with their own trace ids, and children of a closed parent,
    // of a still-open parent and of a parent the store never saw. Every
    // expected value below was taken from the close-ordered store this
    // id-indexed one replaced.
    obs::SpanStore s;
    s.set_retain(true);
    const obs::SpanId job = s.open("job", obs::SpanCategory::Control, 0, 0, {}, 0, 42);
    for (int i = 0; i < 100; ++i) s.record("filler", obs::SpanCategory::Control, job, i, i + 1);
    s.close(job, 200);
    const obs::SpanId late = s.record("late", obs::SpanCategory::Control, job, 300, 400);
    const obs::SpanId other = s.open("job", obs::SpanCategory::Control, 0, 250, {}, 0, 43);
    const obs::SpanId child = s.record("task", obs::SpanCategory::Control, other, 260, 270);
    EXPECT_EQ(s.trace_id(child), 43u);  // read through the open parent
    const obs::SpanId orphan = s.record("orphan", obs::SpanCategory::Control, 1'000'000, 280, 290);
    s.close(other, 500);
    EXPECT_EQ(s.spans().size(), 105u);
    EXPECT_EQ(s.trace_id(job), 42u);
    EXPECT_EQ(s.trace_id(late), 42u);
    EXPECT_EQ(s.trace_id(other), 43u);
    EXPECT_EQ(s.trace_id(child), 43u);
    EXPECT_EQ(s.trace_id(orphan), 0u);
    EXPECT_EQ(s.spans()[s.index_of(orphan)].parent, 1'000'000u);
    EXPECT_EQ(s.spans()[s.index_of(orphan)].trace_id, 0u);
    EXPECT_EQ(s.to_json(s.spans()[s.index_of(child)]).find("trace_id")->as_int(), 43);
    obs::SpanId prev = 0;
    for (const obs::CausalSpan& span : s.spans()) {
      EXPECT_GT(span.id, prev);  // id order
      prev = span.id;
      EXPECT_EQ(span.trace_id, s.trace_id(span.id));
    }

    // Roots are visited by begin time; the orphan is a root of its own.
    const obs::CriticalPath cp = obs::extract_critical_path(s);
    EXPECT_EQ(cp.total, 460);
    EXPECT_EQ(category_ns(cp, obs::SpanCategory::Control), 460);
    ASSERT_EQ(cp.segments.size(), 105u);
    const std::pair<obs::SpanId, const char*> head[] = {
        {orphan, "orphan"}, {other, "job"}, {child, "task"}, {other, "job"}, {2, "filler"}};
    for (std::size_t i = 0; i < std::size(head); ++i) {
      EXPECT_EQ(cp.segments[i].span, head[i].first) << "segment " << i;
      EXPECT_EQ(cp.segments[i].name, head[i].second) << "segment " << i;
    }
    EXPECT_EQ(cp.segments.back().span, job);
    EXPECT_EQ(cp.segments.back().begin, 100);
    EXPECT_EQ(cp.segments.back().end, 200);
    EXPECT_TRUE(obs::analyze_spans(s).stragglers.empty());
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
  static_assert(sizeof(obs::RetainedSpan) == 24);
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
  const obs::CausalSpan& first = s.spans().front();  // id order: the root comes first
  ASSERT_EQ(first.id, root);
  const obs::Json j = s.to_json(first);
  EXPECT_EQ(j.find("name")->as_string(), "task:map");
  EXPECT_EQ(j.find("lane")->as_string(), "node1/tasks");
  EXPECT_EQ(j.find("notes")->find("failed")->as_string(), "worker_lost");
  EXPECT_EQ(j.find("notes")->find("chunks")->as_string(), "3");
  EXPECT_EQ(s.to_json(s.spans().back()).find("notes"), nullptr);

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
  // Two and a half "chunks" of 4096 span ids and of lane intervals: 160
  // words of the id map, 160 packed blocks of spans built closed, and
  // several chunks of either log. Spans close out of id order across those
  // boundaries: a parent closes in the first chunk and its children land in
  // the last one, a stage opened before the fillers closes after them, the
  // job closes last, and one stage never closes. Every reader has to follow
  // ids and parents across them. The trace ids, notes, critical path and
  // stragglers pinned below were taken from the close-ordered store this
  // id-indexed one replaced.
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kFiller = 2 * kChunk + kChunk / 2;
  obs::SpanStore s;
  s.set_retain(true);
  const obs::SpanId job = s.open("job", obs::SpanCategory::Control, 0, 0, "master/job", -1, 9);
  s.annotate(job, "name", "wordcount");
  const obs::SpanId stage = s.open("stage:map", obs::SpanCategory::Control, job, 0, "node1/tasks", 1);
  s.annotate(stage, "partitions", "8");
  s.close(stage, 100);
  const obs::SpanId straddle =
      s.open("stage:reduce", obs::SpanCategory::Shuffle, job, 100, "node2/tasks", 2);
  s.annotate(straddle, "partitions", "4");
  const obs::SpanId dangling = s.open("stage:dangling", obs::SpanCategory::Control, job, 100);
  // Every 1024th filler runs 4 ns and waits 2 ns of it on a credit.
  std::vector<obs::SpanId> slow;
  for (std::size_t i = 0; i < kFiller; ++i) {
    const auto t = static_cast<sim::Time>(100 + i);
    const bool is_slow = i % 1024 == 1023;
    const obs::SpanId f = s.record("filler", obs::SpanCategory::Control, straddle, t,
                                   t + (is_slow ? 4 : 1), "node2/tasks", 2);
    if (!is_slow) continue;
    slow.push_back(f);
    s.record("wait:credit", obs::SpanCategory::Wait, f, t + 1, t + 3, "node2/shuffle", 2);
  }
  const obs::SpanId kernel =
      s.record("kernel", obs::SpanCategory::Kernel, stage, 50, 90, "node1/gpu0", 1);
  const obs::SpanId wait = s.record("wait:slot", obs::SpanCategory::Wait, stage, 10, 20);
  const obs::SpanId under_open =
      s.record("wait:slot", obs::SpanCategory::Wait, dangling, 100, 130, "node3/slots", 3);
  const auto end = static_cast<sim::Time>(100 + kFiller);
  const obs::SpanId late = s.open("task:late", obs::SpanCategory::Kernel, straddle, end,
                                  "node2/gpu0", 2);
  s.annotate(late, "chunks", "3");
  s.annotate(late, "cache_hits", "0");
  s.close(late, end + 50);
  s.close(straddle, end + 60);
  s.close(job, end + 100);

  // Ids: job 1, stage 2, straddle 3, dangling 4, then the fillers and their
  // waits; the spans recorded after them land in the last chunk.
  ASSERT_EQ(slow.size(), 10u);
  EXPECT_EQ(kernel, kFiller + slow.size() + 5);
  EXPECT_EQ(late, kernel + 3);
  ASSERT_EQ(s.spans().size(), kFiller + slow.size() + 7);  // all but the dangling stage
  for (const obs::SpanId id : {job, stage, straddle, kernel, wait, under_open, late}) {
    EXPECT_EQ(s.index_of(id), id - 1);  // id order
    EXPECT_EQ(s.spans()[s.index_of(id)].id, id);
  }
  EXPECT_EQ(s.index_of(kernel) / kChunk, 2u);  // the last chunk
  EXPECT_EQ(s.index_of(dangling), obs::SpanStore::npos);
  EXPECT_EQ(s.last_id(), late);  // the highest closed id
  EXPECT_FALSE(s.retained(dangling).closed());

  // Notes of spans in the first and the last chunk, closed out of id order.
  auto note_pairs = [&s](obs::SpanId id) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const obs::SpanNote& n : s.notes(id)) out.emplace_back(s.str(n.key), n.value);
    return out;
  };
  using Notes = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(note_pairs(late), (Notes{{"chunks", "3"}, {"cache_hits", "0"}}));
  EXPECT_EQ(note_pairs(job), (Notes{{"name", "wordcount"}}));
  EXPECT_EQ(note_pairs(stage), (Notes{{"partitions", "8"}}));
  EXPECT_EQ(note_pairs(straddle), (Notes{{"partitions", "4"}}));
  EXPECT_TRUE(s.notes(kernel).empty());
  EXPECT_TRUE(s.notes(dangling).empty());  // open spans have no retained notes

  // Every span inherits trace id 9: the children of the stage closed long
  // before, and the wait under the still-open dangling stage.
  EXPECT_EQ(s.spans()[s.index_of(kernel)].trace_id, 9u);
  EXPECT_EQ(s.spans()[s.index_of(wait)].trace_id, 9u);
  EXPECT_EQ(s.trace_id(under_open), 9u);
  std::size_t spans_seen = 0;
  obs::SpanId prev = 0;
  for (const obs::CausalSpan& span : s.spans()) {
    EXPECT_EQ(span.trace_id, 9u);
    EXPECT_GT(span.id, prev);
    EXPECT_NE(span.id, dangling);
    prev = span.id;
    ++spans_seen;
  }
  EXPECT_EQ(spans_seen, s.spans().size());

  // The wait under the dangling stage is a root of its own: its parent is
  // not retained.
  const obs::CriticalPath cp = obs::extract_critical_path(s);
  EXPECT_EQ(cp.total, static_cast<sim::Duration>(end + 100 + 30));
  sim::Duration sum = 0;
  for (auto d : cp.by_category) sum += d;
  EXPECT_EQ(sum, cp.total);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Control), 10312);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Kernel), 90);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Shuffle), 10);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Wait), 58);
  ASSERT_EQ(cp.segments.size(), 10240u);
  EXPECT_EQ(cp.segments[0].span, under_open);
  EXPECT_EQ(cp.segments[4].span, kernel);
  EXPECT_EQ(cp.segments[1029].span, slow[0]);
  EXPECT_EQ(cp.segments[1030].span, slow[0] + 1);  // its wait:credit
  EXPECT_EQ(cp.segments[1030].begin, 1124);
  EXPECT_EQ(cp.segments[1030].end, 1126);
  const obs::SpanId tail[] = {slow.back(), late, straddle, job};
  for (std::size_t i = 0; i < std::size(tail); ++i) {
    EXPECT_EQ(cp.segments[cp.segments.size() - std::size(tail) + i].span, tail[i]) << i;
  }
  EXPECT_EQ(cp.segments.back().begin, end + 60);
  EXPECT_EQ(cp.segments.back().end, end + 100);

  // The ten slow fillers exceed their group's 1 ns p95 and waited on the
  // credit; equal excess, so they come out in id order.
  const std::vector<obs::Straggler> stragglers = obs::analyze_spans(s).stragglers;
  ASSERT_EQ(stragglers.size(), slow.size());
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(stragglers[i].span, slow[i]);
    EXPECT_EQ(stragglers[i].duration, 4);
    EXPECT_EQ(stragglers[i].p95, 1);
    EXPECT_EQ(stragglers[i].waited_on, "wait:credit on node2/shuffle");
  }

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
  std::size_t at = 0;
  for (const obs::LaneInterval& l : s.lane_intervals()) {
    const bool last = at == kFiller;
    EXPECT_EQ(l.lane, last ? b : a) << at;
    EXPECT_EQ(l.begin, static_cast<sim::Time>(last ? kChunk - 1 : at)) << at;
    ++at;
  }
  EXPECT_EQ(at, kFiller + 1);
  EXPECT_EQ(s.lane("node1/a").size(), kFiller);
  EXPECT_EQ(s.busy_time("node1/a"), static_cast<sim::Duration>(kFiller + 1));
  EXPECT_EQ(s.busy_time("node1/b"), 1);
  EXPECT_TRUE(s.lanes_overlap("node1/a", "node1/b"));

  // The Chrome trace parses, and every link but the two roots' has exactly
  // one flow start and one flow finish.
  auto parsed = Json::parse(obs::chrome_trace_json(s, nullptr, end + 100));
  ASSERT_TRUE(parsed.has_value());
  std::map<std::int64_t, int> starts, finishes;
  for (const Json& e : parsed->find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "s") ++starts[e.find("id")->as_int()];
    if (ph == "f") ++finishes[e.find("id")->as_int()];
  }
  EXPECT_EQ(starts.size(), s.spans().size() - 2);
  EXPECT_EQ(finishes.size(), starts.size());
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow id " << id;
    EXPECT_EQ(finishes[id], 1) << "flow id " << id;
  }
  const Json* util = parsed->find("laneUtilization")->find("node1/a");
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->find("busy_ns")->as_int(), static_cast<std::int64_t>(kFiller + 1));
}

TEST(Spans, LaneLogRoundTrips) {
  // Every record the log takes comes back, in order, as a plain vector kept
  // beside it holds it: ends that fall as well as rise (negative deltas),
  // zero-length intervals, intervals of 2^32 ns and more, label 0, ids past
  // one varint byte, and the extremes of the time range. Enough records to
  // fill several 64 KiB blocks, so some land at a block's end.
  constexpr sim::Time kMax = std::numeric_limits<sim::Time>::max();
  constexpr sim::Time kMin = std::numeric_limits<sim::Time>::min();
  std::vector<obs::LaneInterval> want;
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 17;
  };
  sim::Time end = 0;
  for (std::size_t i = 0; i < 30'000; ++i) {
    obs::LaneInterval l;
    l.lane = obs::StrId{static_cast<std::uint32_t>(next() % (i % 7 == 0 ? 1u << 31 : 9))};
    l.label = obs::StrId{static_cast<std::uint32_t>(i % 5 == 0 ? 0 : next() % 300)};
    switch (i % 6) {
      case 0: end -= static_cast<sim::Time>(next() % 5000); break;  // out of order
      case 1: break;                                                  // same end
      case 2: end += static_cast<sim::Time>(next() % (std::uint64_t{1} << 40)); break;
      default: end += static_cast<sim::Time>(next() % 200); break;
    }
    l.end = end;
    switch (i % 4) {
      case 0: l.begin = end; break;                                 // zero length
      case 1: l.begin = end - (sim::Time{1} << 32) - 7; break;      // >= 2^32 ns
      default: l.begin = end - static_cast<sim::Time>(next() % 1000); break;
    }
    want.push_back(l);
  }
  want.push_back({obs::StrId{UINT32_MAX}, obs::StrId{UINT32_MAX}, kMin, kMax});
  want.push_back({obs::StrId{}, obs::StrId{}, kMax, kMin});
  want.push_back({obs::StrId{1}, obs::StrId{}, 0, 0});

  obs::LaneLog log;
  for (const obs::LaneInterval& l : want) log.push_back(l);
  ASSERT_EQ(log.size(), want.size());
  EXPECT_GT(log.capacity_bytes(), 2 * obs::LaneLog::kBlockBytes);
  std::size_t i = 0;
  for (const obs::LaneInterval& got : log) {
    ASSERT_LT(i, want.size());
    EXPECT_EQ(got.lane, want[i].lane) << i;
    EXPECT_EQ(got.label, want[i].label) << i;
    EXPECT_EQ(got.begin, want[i].begin) << i;
    EXPECT_EQ(got.end, want[i].end) << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
  EXPECT_TRUE(obs::LaneLog{}.empty());
  EXPECT_TRUE(obs::LaneLog{}.begin() == obs::LaneLog{}.end());

  // The worst case: ends that swing between 0 and the least time make
  // every record the full 30 bytes, so a block holds kBlockBytes / 30 of
  // them and the next one starts a new block.
  obs::LaneLog wide;
  const std::size_t per_block = obs::LaneLog::kBlockBytes / obs::LaneLog::kMaxRecordBytes;
  for (std::size_t k = 0; k <= per_block; ++k) {
    wide.push_back({obs::StrId{UINT32_MAX}, obs::StrId{UINT32_MAX}, k % 2 == 0 ? 0 : kMin,
                    k % 2 == 0 ? kMin : 0});
    EXPECT_EQ(wide.capacity_bytes(), (k < per_block ? 1 : 2) * obs::LaneLog::kBlockBytes) << k;
  }
  std::size_t k = 0;
  for (const obs::LaneInterval& got : wide) {
    EXPECT_EQ(got.begin, k % 2 == 0 ? 0 : kMin) << k;
    EXPECT_EQ(got.end, k % 2 == 0 ? kMin : 0) << k;
    ++k;
  }
  EXPECT_EQ(k, per_block + 1);
}

TEST(Spans, PeerFieldsShareOneKind) {
  // Spans that agree on name, lane, node and category share one kind,
  // whatever their times and parents; spans() rebuilds each one as it was
  // recorded; and a slot whose span has not closed stays a placeholder.
  obs::SpanStore s;
  s.set_retain(true);
  const obs::SpanId job = s.open("job", obs::SpanCategory::Control, 0, 0, {}, -1, 5);
  const obs::SpanId open = s.open("stage:open", obs::SpanCategory::Control, job, 1);
  std::vector<obs::CausalSpan> want;
  const obs::SpanCategory cats[] = {obs::SpanCategory::H2D, obs::SpanCategory::Kernel};
  for (int i = 0; i < 60; ++i) {
    obs::CausalSpan c;
    c.begin = i;
    c.end = i + 1 + i % 3;
    c.parent = i % 2 == 0 ? job : open;
    c.trace_id = 5;
    c.name = s.intern(i % 3 == 0 ? "h2d:chunk" : "kernel:chunk");
    c.lane = s.intern(i % 5 == 0 ? "" : "node1/gpu0");
    c.node = static_cast<std::int16_t>(i % 4 == 0 ? -1 : 1);
    c.category = cats[i % 2];
    c.id = s.record(c.name, c.category, c.parent, c.begin, c.end, c.lane, c.node);
    want.push_back(c);
  }
  // One kind per distinct (name, lane, node, category) among the 60, plus
  // the placeholder and nothing yet for the open job.
  std::set<std::tuple<std::uint32_t, std::uint32_t, int, int>> distinct;
  for (const obs::CausalSpan& c : want) {
    distinct.emplace(c.name.v, c.lane.v, c.node, static_cast<int>(c.category));
  }
  EXPECT_EQ(s.kinds(), distinct.size() + 1);
  for (std::size_t i = 0; i + 1 < want.size(); ++i) {
    for (std::size_t j = i + 1; j < want.size(); ++j) {
      const bool same = want[i].name == want[j].name && want[i].lane == want[j].lane &&
                        want[i].node == want[j].node && want[i].category == want[j].category;
      EXPECT_EQ(s.retained(want[i].id).kind == s.retained(want[j].id).kind, same);
    }
  }
  EXPECT_EQ(s.kind(0), obs::SpanKind{});

  // The open stage's slot stays a placeholder: kind 0, not indexed, and
  // skipped by spans(); the job closes and takes a new kind.
  s.close(job, 100);
  EXPECT_EQ(s.kinds(), distinct.size() + 2);
  EXPECT_FALSE(s.retained(open).closed());
  EXPECT_EQ(s.retained(open).kind, 0u);
  EXPECT_EQ(s.index_of(open), obs::SpanStore::npos);
  ASSERT_EQ(s.spans().size(), want.size() + 1);
  auto it = s.spans().begin();
  EXPECT_EQ((*it).id, job);
  EXPECT_EQ((*it).end, 100);
  for (const obs::CausalSpan& c : want) {
    ++it;
    const obs::CausalSpan got = *it;
    EXPECT_EQ(got.id, c.id);
    EXPECT_EQ(got.begin, c.begin);
    EXPECT_EQ(got.end, c.end);
    EXPECT_EQ(got.parent, c.parent);
    EXPECT_EQ(got.trace_id, c.trace_id);
    EXPECT_EQ(got.name, c.name);
    EXPECT_EQ(got.lane, c.lane);
    EXPECT_EQ(got.node, c.node);
    EXPECT_EQ(got.category, c.category);
  }
  EXPECT_TRUE(++it == s.spans().end());
}

namespace {

/// A span of the reference store the two-log tests keep beside a
/// SpanStore: a plain vector of CausalSpans indexed by id - 1.
struct RefSpan {
  obs::CausalSpan span;
  bool closed = false;
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Replay one randomized DAG into `s`, and into `ref` when given. Spans
/// opened and closed apart interleave with spans built closed; when
/// `shots_opened` is set, each of the latter is opened and closed at once
/// instead of recorded, which must give the same ids and the same DAG.
/// The DAG has roots with and without trace ids, spans built closed that
/// later get children, children of spans still open and of ids the store
/// never held, notes, one span that never closes, begins that go backwards
/// and lie 2^62 apart (so a block's begin offsets need 64 bits), and
/// negative durations (so its durations need 64 bits).
void replay_random_dag(obs::SpanStore& s, bool shots_opened, std::vector<RefSpan>* ref) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 17;
  };
  const char* names[] = {"h2d", "kernel", "d2h", "wait:slot", "task:map", "gwork"};
  const char* lanes[] = {"", "node1.gpu0/h2d", "node1.gpu0/kernel", "node2/tasks"};
  const obs::SpanCategory cats[] = {obs::SpanCategory::H2D, obs::SpanCategory::Kernel,
                                    obs::SpanCategory::D2H, obs::SpanCategory::Wait,
                                    obs::SpanCategory::Control};
  std::vector<obs::SpanId> open;  // ids open now, the never-closing one first
  std::vector<sim::Time> begins;  // by id - 1: a span ends near its own begin
  sim::Time now = 0;
  auto pick_parent = [&](obs::SpanId newest) -> obs::SpanId {
    switch (next() % 8) {
      case 0: return 0;                                      // a root
      case 1: return newest + 1'000'000;                     // never held
      case 2: return open.empty() ? 0 : open[next() % open.size()];
      default: return newest == 0 ? 0 : static_cast<obs::SpanId>(1 + next() % newest);
    }
  };
  auto add = [&](obs::SpanId id, obs::SpanId parent, std::uint64_t trace, sim::Time begin,
                 const char* name, const char* lane, int node, obs::SpanCategory cat) {
    begins.push_back(begin);
    if (ref == nullptr) return;
    ASSERT_EQ(id, ref->size() + 1);
    RefSpan r;
    r.span.id = id;
    r.span.parent = parent;
    r.span.begin = begin;
    r.span.name = s.intern(name);
    r.span.lane = s.intern(lane);
    r.span.node = static_cast<std::int16_t>(node);
    r.span.category = cat;
    if (parent == 0) {
      r.span.trace_id = static_cast<std::uint32_t>(trace);
    } else if (parent < id) {
      r.span.trace_id = (*ref)[parent - 1].span.trace_id;
    }
    ref->push_back(r);
  };
  obs::SpanId newest = 0;
  for (int op = 0; op < 6000; ++op) {
    // Mostly rising times with short spans; now and then a jump back, a
    // begin near +-2^62, or an end before the begin.
    sim::Time begin = now + static_cast<sim::Time>(next() % 50);
    switch (next() % 40) {
      case 0: begin -= static_cast<sim::Time>(next() % 100'000); break;
      case 1: begin = (sim::Time{1} << 62) - static_cast<sim::Time>(next() % 1000); break;
      case 2: begin = -(sim::Time{1} << 62) + static_cast<sim::Time>(next() % 1000); break;
      default: now = begin; break;
    }
    const sim::Time length = static_cast<sim::Time>(next() % 3000) - (next() % 50 == 0 ? 5000 : 0);
    const char* name = names[next() % 6];
    const char* lane = lanes[next() % 4];
    const int node = static_cast<int>(next() % 3) - 1;
    const obs::SpanCategory cat = cats[next() % 5];
    const std::uint64_t trace = next() % 3 == 0 ? 0 : 1 + next() % 1000;
    const std::uint64_t what = next() % 100;
    if (what < 12 || open.empty()) {  // open a span
      const obs::SpanId parent = pick_parent(newest);
      const obs::SpanId id = s.open(name, cat, parent, begin, lane, node, trace);
      add(id, parent, trace, begin, name, lane, node, cat);
      newest = id;
      open.push_back(id);
    } else if (what < 24 && open.size() > 1) {  // close one; open[0] never closes
      const std::size_t k = 1 + next() % (open.size() - 1);
      const obs::SpanId id = open[k];
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
      const sim::Time end = begins[id - 1] + length;
      s.close(id, end);
      if (ref != nullptr) {
        (*ref)[id - 1].span.end = end;
        (*ref)[id - 1].closed = true;
      }
    } else if (what < 28) {  // annotate an open span
      const obs::SpanId id = open[next() % open.size()];
      const std::string key = next() % 2 == 0 ? "chunks" : "failed";
      const std::string value = std::to_string(next() % 7);
      s.annotate(id, key, value);
      if (ref != nullptr) (*ref)[id - 1].notes.emplace_back(key, value);
    } else {  // a span built closed
      const obs::SpanId parent = pick_parent(newest);
      const sim::Time end = begin + length;
      obs::SpanId id = 0;
      if (shots_opened) {
        id = s.open(name, cat, parent, begin, lane, node, trace);
        s.close(id, end);
      } else {
        id = s.record(name, cat, parent, begin, end, lane, node, trace);
      }
      add(id, parent, trace, begin, name, lane, node, cat);
      if (ref != nullptr) {
        ref->back().span.end = end;
        ref->back().closed = true;
      }
      newest = id;
    }
  }
  for (std::size_t k = 1; k < open.size(); ++k) {
    const sim::Time end = begins[open[k] - 1] + 1;
    s.close(open[k], end);
    if (ref != nullptr) {
      (*ref)[open[k] - 1].span.end = end;
      (*ref)[open[k] - 1].closed = true;
    }
  }
}

}  // namespace

TEST(Spans, TwoLogsRoundTripARandomDag) {
  // Every span of a randomized DAG comes back through spans(), index_of,
  // trace_id and notes as a plain vector of CausalSpans kept beside the
  // store holds it. About 6,000 ids cross many id-map words and packed
  // blocks, the opened log's first chunk and several chunks of packed
  // words.
  obs::SpanStore s;
  s.set_retain(true);
  std::vector<RefSpan> ref;
  replay_random_dag(s, false, &ref);
  ASSERT_GT(ref.size(), 4000u);
  std::size_t closed = 0;
  obs::SpanId last_closed = 0;
  for (const RefSpan& r : ref) {
    closed += r.closed ? 1 : 0;
    if (r.closed) last_closed = r.span.id;
  }
  EXPECT_GT(closed, 3000u);
  EXPECT_LT(closed, ref.size());  // the never-closing span at least
  ASSERT_EQ(s.spans().size(), closed);
  auto it = s.spans().begin();
  for (const RefSpan& r : ref) {
    const obs::SpanId id = r.span.id;
    EXPECT_EQ(s.trace_id(id), r.span.trace_id) << id;
    if (!r.closed) {
      EXPECT_EQ(s.index_of(id), obs::SpanStore::npos) << id;
      EXPECT_FALSE(s.retained(id).closed()) << id;
      EXPECT_TRUE(s.notes(id).empty()) << id;
      continue;
    }
    ASSERT_EQ(s.index_of(id), id - 1u) << id;
    const obs::CausalSpan got = *it++;
    const obs::CausalSpan& want = r.span;
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.begin, want.begin) << id;
    EXPECT_EQ(got.end, want.end) << id;
    EXPECT_EQ(got.parent, want.parent) << id;
    EXPECT_EQ(got.trace_id, want.trace_id) << id;
    EXPECT_EQ(got.name, want.name) << id;
    EXPECT_EQ(got.lane, want.lane) << id;
    EXPECT_EQ(got.node, want.node) << id;
    EXPECT_EQ(got.category, want.category) << id;
    const obs::CausalSpan at = s.spans()[s.index_of(id)];
    EXPECT_EQ(at.begin, want.begin) << id;
    EXPECT_EQ(at.end, want.end) << id;
    std::vector<std::pair<std::string, std::string>> notes;
    for (const obs::SpanNote& n : s.notes(id)) notes.emplace_back(s.str(n.key), n.value);
    EXPECT_EQ(notes, r.notes) << id;
  }
  EXPECT_TRUE(it == s.spans().end());
  EXPECT_EQ(s.last_id(), last_closed);
  EXPECT_EQ(s.index_of(0), obs::SpanStore::npos);
  EXPECT_EQ(s.index_of(static_cast<obs::SpanId>(ref.size() + 1)), obs::SpanStore::npos);
  EXPECT_FALSE(s.retained(static_cast<obs::SpanId>(ref.size() + 1)).closed());

  // for_each_retained visits every retained closed span once.
  std::vector<obs::SpanId> visited;
  s.for_each_retained([&](obs::SpanId id, const obs::RetainedSpan& r) {
    visited.push_back(id);
    EXPECT_EQ(r.begin, ref[id - 1].span.begin) << id;
    EXPECT_EQ(r.end, ref[id - 1].span.end) << id;
    EXPECT_EQ(r.parent, ref[id - 1].span.parent) << id;
  });
  EXPECT_EQ(visited.size(), closed);
  std::sort(visited.begin(), visited.end());
  EXPECT_TRUE(std::adjacent_find(visited.begin(), visited.end()) == visited.end());
}

TEST(Spans, OneShotRecordsAtTheWordWidth) {
  // A chain of one-shot spans (each the previous one's parent, so every
  // parent distance is 1) of one kind, in three packed blocks whose fields
  // are the begin offset and the duration alone. Block 0: begins need all
  // 64 bits and no span lasts, so a record is 64 bits and its empty
  // duration field starts at bit 64. Block 1: one span lasts 1 ns, so a
  // record is 65 bits and straddles words. Block 2: begins need 63 bits
  // and one span lasts 1 ns, so a record is 64 bits again, the duration's
  // bit its last.
  obs::SpanStore s;
  s.set_retain(true);
  constexpr std::size_t kBlock = obs::OneShotLog::kBlockRecords;
  constexpr sim::Time kMin = std::numeric_limits<sim::Time>::min();
  constexpr sim::Time kMax = std::numeric_limits<sim::Time>::max();
  const std::size_t lasting[] = {kBlock + 5, 2 * kBlock + 4};
  std::vector<obs::RetainedSpan> want;
  obs::SpanId parent = 0;
  for (std::size_t i = 0; i < 3 * kBlock; ++i) {
    const bool odd = i % 2 != 0;
    const sim::Time begin = i < 2 * kBlock ? (odd ? kMax - 1 : kMin) : (odd ? kMax : 0);
    const bool lasts = std::find(std::begin(lasting), std::end(lasting), i) != std::end(lasting);
    const sim::Time end = lasts ? begin + 1 : begin;
    want.push_back({begin, end, parent, 0});
    parent = s.record("step", obs::SpanCategory::Control, parent, begin, end, "lane", 1);
  }
  for (obs::SpanId id = 1; id <= want.size(); ++id) {
    const obs::RetainedSpan r = s.retained(id);
    EXPECT_EQ(r.begin, want[id - 1].begin) << id;
    EXPECT_EQ(r.end, want[id - 1].end) << id;
    EXPECT_EQ(r.parent, want[id - 1].parent) << id;
    EXPECT_EQ(s.str(s.kind(r.kind).name), "step") << id;
  }
}

TEST(Spans, BuiltClosedAndOpenedSpansAnalyseAlike) {
  // The same DAG with its one-shot spans recorded, and opened and closed
  // at once: the same ids, spans, critical path and stragglers, whichever
  // log holds them.
  obs::SpanStore shots;
  shots.set_retain(true);
  replay_random_dag(shots, false, nullptr);
  obs::SpanStore opened;
  opened.set_retain(true);
  replay_random_dag(opened, true, nullptr);
  ASSERT_EQ(shots.spans().size(), opened.spans().size());
  ASSERT_EQ(shots.last_id(), opened.last_id());
  auto a = shots.spans().begin();
  for (const obs::CausalSpan& b : opened.spans()) {
    const obs::CausalSpan got = *a++;
    EXPECT_EQ(got.id, b.id);
    EXPECT_EQ(got.begin, b.begin) << b.id;
    EXPECT_EQ(got.end, b.end) << b.id;
    EXPECT_EQ(got.parent, b.parent) << b.id;
    EXPECT_EQ(got.trace_id, b.trace_id) << b.id;
    EXPECT_EQ(shots.str(got.name), opened.str(b.name)) << b.id;
  }

  const obs::CriticalPath cp = obs::extract_critical_path(shots);
  const obs::CriticalPath want = obs::extract_critical_path(opened);
  EXPECT_NE(cp.total, 0);
  EXPECT_EQ(cp.total, want.total);
  EXPECT_EQ(cp.by_category, want.by_category);
  ASSERT_EQ(cp.segments.size(), want.segments.size());
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    EXPECT_EQ(cp.segments[i].span, want.segments[i].span) << i;
    EXPECT_EQ(cp.segments[i].name, want.segments[i].name) << i;
    EXPECT_EQ(cp.segments[i].category, want.segments[i].category) << i;
    EXPECT_EQ(cp.segments[i].begin, want.segments[i].begin) << i;
    EXPECT_EQ(cp.segments[i].end, want.segments[i].end) << i;
  }
  const std::vector<obs::Straggler> slow = obs::analyze_spans(shots).stragglers;
  const std::vector<obs::Straggler> want_slow = obs::analyze_spans(opened).stragglers;
  EXPECT_FALSE(slow.empty());
  ASSERT_EQ(slow.size(), want_slow.size());
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].to_json().dump(), want_slow[i].to_json().dump()) << i;
  }

  // The critical path that analyze_spans walks over the index it shares
  // with the stragglers is the one extract_critical_path finds alone.
  EXPECT_EQ(obs::analyze_spans(shots).critical_path.to_json().dump(), cp.to_json().dump());
}

namespace {

/// A span as the child-index property test keeps it beside the store.
struct PlainSpan {
  obs::SpanId parent = 0;
  sim::Time begin = 0;
  sim::Time end = 0;
  std::string name;
  std::string lane;
  obs::SpanCategory category = obs::SpanCategory::Control;
  bool retained = false;  // closed while the store retained
};

/// The critical path and stragglers of `spans` (by id - 1), found by brute
/// force over a plain uint32_t child list per span: every list sorted
/// whole, and a depth-first search per straggler.
obs::SpanAnalysis plain_analysis(const std::vector<PlainSpan>& spans) {
  const auto n = static_cast<std::uint32_t>(spans.size());
  auto at = [&spans](std::uint32_t id) -> const PlainSpan& { return spans[id - 1]; };
  std::vector<std::vector<std::uint32_t>> kids(n + 1);  // by id
  std::vector<std::uint32_t> roots;
  for (std::uint32_t id = 1; id <= n; ++id) {
    if (!at(id).retained) continue;
    const obs::SpanId p = at(id).parent;
    if (p != 0 && p < id && at(p).retained) {
      kids[p].push_back(id);
    } else {
      roots.push_back(id);
    }
  }
  for (std::vector<std::uint32_t>& k : kids) {
    std::sort(k.begin(), k.end(), [&](std::uint32_t a, std::uint32_t b) {
      return std::make_pair(at(a).end, a) > std::make_pair(at(b).end, b);
    });
  }

  obs::SpanAnalysis out;
  obs::CriticalPath& cp = out.critical_path;
  std::vector<obs::CriticalPathSegment> latest_first;
  std::function<void(std::uint32_t, sim::Time, sim::Time)> walk = [&](std::uint32_t id,
                                                                      sim::Time lo, sim::Time hi) {
    const PlainSpan& s = at(id);
    auto own = [&](sim::Time b, sim::Time e) {
      cp.by_category[static_cast<std::size_t>(s.category)] += e - b;
      latest_first.push_back({id, s.name, s.category, b, e});
    };
    const sim::Time floor = std::max(s.begin, lo);
    sim::Time t = hi;
    for (std::uint32_t c : kids[id]) {
      if (t <= floor) break;
      const sim::Time ce = std::min(at(c).end, t);
      const sim::Time cb = std::max(at(c).begin, floor);
      if (ce <= cb) continue;
      if (ce < t) own(ce, t);
      walk(c, cb, ce);
      t = cb;
    }
    if (t > floor) own(floor, t);
  };
  std::sort(roots.begin(), roots.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::make_pair(at(a).begin, a) < std::make_pair(at(b).begin, b);
  });
  for (std::uint32_t root : roots) {
    cp.total += at(root).end - at(root).begin;
    walk(root, at(root).begin, at(root).end);
  }
  for (auto it = latest_first.rbegin(); it != latest_first.rend(); ++it) {
    if (!cp.segments.empty() && cp.segments.back().span == it->span &&
        cp.segments.back().end == it->begin) {
      cp.segments.back().end = it->end;
    } else {
      cp.segments.push_back(*it);
    }
  }

  std::map<std::string, std::vector<std::uint32_t>> groups;
  for (std::uint32_t id = 1; id <= n; ++id) {
    if (at(id).retained) groups[at(id).name].push_back(id);
  }
  for (const auto& [name, group] : groups) {
    if (group.size() < 4) continue;
    std::vector<sim::Duration> durations;
    for (std::uint32_t id : group) durations.push_back(at(id).end - at(id).begin);
    const sim::Duration p95 = obs::nearest_rank_p95(durations);
    for (std::uint32_t id : group) {
      const sim::Duration d = at(id).end - at(id).begin;
      if (d <= p95) continue;
      obs::Straggler st;
      st.span = id;
      st.name = name;
      st.lane = at(id).lane;
      st.duration = d;
      st.p95 = p95;
      std::uint32_t longest = 0;
      std::vector<std::uint32_t> stack(kids[id].begin(), kids[id].end());
      while (!stack.empty()) {
        const std::uint32_t c = stack.back();
        stack.pop_back();
        stack.insert(stack.end(), kids[c].begin(), kids[c].end());
        if (at(c).category != obs::SpanCategory::Wait) continue;
        const sim::Duration dc = at(c).end - at(c).begin;
        const sim::Duration dl = longest == 0 ? 0 : at(longest).end - at(longest).begin;
        if (longest == 0 || dc > dl || (dc == dl && c < longest)) longest = c;
      }
      if (longest != 0) {
        st.waited_on = at(longest).name;
        if (!at(longest).lane.empty()) st.waited_on += " on " + at(longest).lane;
      }
      out.stragglers.push_back(st);
    }
  }
  std::sort(out.stragglers.begin(), out.stragglers.end(),
            [](const obs::Straggler& a, const obs::Straggler& b) {
              return std::make_pair(b.duration - b.p95, a.span) <
                     std::make_pair(a.duration - a.p95, b.span);
            });
  return out;
}

/// A random span forest replayed into `s` and kept as plain spans: spans
/// opened and closed apart interleaved with spans built closed; parents
/// still open, or closed while the store did not retain; ends on a coarse
/// grid, so many are equal; zero-length spans; and one chain 1,500 deep,
/// each link opened under the one before and closed in reverse.
std::vector<PlainSpan> random_forest(obs::SpanStore& s, std::uint64_t seed) {
  std::uint64_t x = seed;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 17;
  };
  const char* names[] = {"task", "gwork", "h2d", "wait:slot", "shuffle"};
  const char* lanes[] = {"", "node1.gpu0/h2d", "node2/tasks"};
  std::vector<PlainSpan> spans;
  std::vector<obs::SpanId> open;
  sim::Time now = 0;
  auto pick_parent = [&]() -> obs::SpanId {
    switch (next() % 4) {
      case 0: return 0;
      case 1: return open.empty() ? 0 : open[next() % open.size()];
      default: return spans.empty() ? 0 : static_cast<obs::SpanId>(1 + next() % spans.size());
    }
  };
  auto end_after = [&](sim::Time begin) -> sim::Time {
    if (next() % 8 == 0) return begin;  // zero length
    return (begin + static_cast<sim::Time>(next() % 400)) / 32 * 32 + 32;
  };
  auto start = [&](obs::SpanId parent, sim::Time begin) {
    PlainSpan p;
    p.parent = parent;
    p.begin = begin;
    p.name = names[next() % 5];
    p.lane = lanes[next() % 3];
    p.category = static_cast<obs::SpanCategory>(next() % obs::kSpanCategories);
    const obs::SpanId id = s.open(p.name, p.category, parent, begin, p.lane, 1, 1 + next() % 9);
    EXPECT_EQ(id, spans.size() + 1);
    spans.push_back(p);
    open.push_back(id);
    return id;
  };
  auto finish = [&](obs::SpanId id, sim::Time end) {
    const bool retain = next() % 10 != 0;
    s.set_retain(retain);
    s.close(id, end);
    s.set_retain(true);
    spans[id - 1].end = end;
    spans[id - 1].retained = retain;
    open.erase(std::find(open.begin(), open.end(), id));
  };
  for (int op = 0; op < 4000; ++op) {
    now += static_cast<sim::Time>(next() % 40);
    const std::uint64_t what = next() % 10;
    if (what < 3) {
      start(pick_parent(), now);
    } else if (what < 5 && !open.empty()) {
      const obs::SpanId id = open[next() % open.size()];
      finish(id, std::max(end_after(spans[id - 1].begin), now));
    } else {
      PlainSpan p;
      p.parent = pick_parent();
      p.begin = now;
      p.end = end_after(now);
      p.name = names[next() % 5];
      p.lane = lanes[next() % 3];
      p.category = static_cast<obs::SpanCategory>(next() % obs::kSpanCategories);
      p.retained = next() % 10 != 0;
      s.set_retain(p.retained);
      const obs::SpanId id =
          s.record(p.name, p.category, p.parent, p.begin, p.end, p.lane, 1, 1 + next() % 9);
      s.set_retain(true);
      EXPECT_EQ(id, spans.size() + 1);
      spans.push_back(p);
    }
    if (op == 2000) {
      std::vector<obs::SpanId> chain{start(0, now)};
      for (int depth = 1; depth < 1500; ++depth) chain.push_back(start(chain.back(), now + depth));
      for (std::size_t k = chain.size(); k-- > 0;) {
        const sim::Time end = now + 4000 - static_cast<sim::Time>(k);
        const bool retain = next() % 50 != 0;
        s.set_retain(retain);
        s.close(chain[k], end);
        s.set_retain(true);
        spans[chain[k] - 1].end = end;
        spans[chain[k] - 1].retained = retain;
        open.erase(std::find(open.begin(), open.end(), chain[k]));
      }
    }
  }
  return spans;  // what is still open stays open
}

}  // namespace

TEST(Spans, ChildIndexAnalysesMatchPlainChildLists) {
  // The critical path and stragglers read through the byte-coded child
  // index equal those found over plain child lists, on random forests.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    obs::SpanStore s;
    s.set_retain(true);
    const std::vector<PlainSpan> spans = random_forest(s, seed);
    std::size_t retained = 0;
    for (const PlainSpan& p : spans) retained += p.retained ? 1 : 0;
    ASSERT_EQ(s.spans().size(), retained) << seed;
    ASSERT_LT(retained, spans.size()) << seed;

    const obs::SpanAnalysis want = plain_analysis(spans);
    const obs::SpanAnalysis got = obs::analyze_spans(s);
    EXPECT_NE(want.critical_path.total, 0) << seed;
    EXPECT_GT(want.critical_path.segments.size(), 1500u) << seed;  // the chain at least
    EXPECT_EQ(got.critical_path.to_json().dump(), want.critical_path.to_json().dump()) << seed;
    EXPECT_EQ(obs::extract_critical_path(s).to_json().dump(),
              want.critical_path.to_json().dump())
        << seed;
    EXPECT_FALSE(want.stragglers.empty()) << seed;
    const bool waited = std::any_of(want.stragglers.begin(), want.stragglers.end(),
                                    [](const obs::Straggler& st) { return !st.waited_on.empty(); });
    EXPECT_TRUE(waited) << seed;
    ASSERT_EQ(got.stragglers.size(), want.stragglers.size()) << seed;
    for (std::size_t i = 0; i < got.stragglers.size(); ++i) {
      EXPECT_EQ(got.stragglers[i].to_json().dump(), want.stragglers[i].to_json().dump())
          << seed << " " << i;
    }
  }
}

TEST(Spans, ChildIndexCostsAtMostTwoBytesPerLinkedSpan) {
  // A GStream-like store: jobs of stages of four concurrent tasks, each
  // task running GWorks of 8 chunks (an H2D, a kernel and a D2H each) and
  // waiting for a slot before each. The four tasks' spans interleave in id
  // order, as concurrent slots interleave them.
  obs::SpanStore s;
  s.set_retain(true);
  for (int job = 0; job < 8; ++job) {
    sim::Time t = sim::Time{job} * 10'000'000;
    const obs::SpanId root = s.open("job", obs::SpanCategory::Control, 0, t, {}, -1,
                                    static_cast<std::uint64_t>(job + 1));
    for (int stage = 0; stage < 4; ++stage) {
      const obs::SpanId st = s.open("stage:map", obs::SpanCategory::Control, root, t);
      std::vector<obs::SpanId> tasks;
      for (int k = 0; k < 4; ++k) {
        tasks.push_back(s.open("task:map", obs::SpanCategory::Control, st, t, "node1/tasks", 1));
      }
      for (int g = 0; g < 6; ++g) {
        for (const obs::SpanId task : tasks) {
          s.record("wait:slot", obs::SpanCategory::Wait, task, t, t + 100, "node1/slots", 1);
          const obs::SpanId gwork =
              s.open("gwork", obs::SpanCategory::Control, task, t + 100, "node1/gpu0", 1);
          for (int c = 0; c < 8; ++c) {
            const sim::Time b = t + 100 + c * 1'500;
            s.record("h2d", obs::SpanCategory::H2D, gwork, b, b + 1'200, "node1.gpu0/h2d", 1);
            s.record("kernel", obs::SpanCategory::Kernel, gwork, b + 1'200, b + 2'400,
                     "node1.gpu0/kernel", 1);
            s.record("d2h", obs::SpanCategory::D2H, gwork, b + 2'400, b + 2'900,
                     "node1.gpu0/d2h", 1);
          }
          s.close(gwork, t + 100 + 8 * 1'500 + 2'000);
        }
        t += 15'000;
      }
      for (const obs::SpanId task : tasks) s.close(task, t);
      s.close(st, t);
    }
    s.close(root, t);
  }
  std::size_t linked = 0;
  s.for_each_retained([&](obs::SpanId, const obs::RetainedSpan& r) { linked += r.parent != 0; });
  ASSERT_GT(linked, 20'000u);
  const obs::SpanAnalysis a = obs::analyze_spans(s);
  EXPECT_GT(a.index_bytes, 0u);
  EXPECT_LE(a.index_bytes, 2 * linked) << a.index_bytes << " bytes for " << linked;
}

TEST(Spans, GWorkGroupsCostAFewBytesPerChild) {
  // 1,000 GWork-like groups: an opened span with 24 recorded children, the
  // H2D, kernel and D2H of 8 chunks. The whole store, slack included,
  // costs at most 9 bytes per child; a store that does not retain, none.
  for (const bool retain : {true, false}) {
    obs::SpanStore s;
    s.set_retain(retain);
    const obs::StrId h2d = s.intern("h2d");
    const obs::StrId kernel = s.intern("kernel");
    const obs::StrId d2h = s.intern("d2h");
    const obs::StrId lanes[] = {s.intern("node1.gpu0/h2d"), s.intern("node1.gpu0/kernel"),
                                s.intern("node1.gpu0/d2h")};
    constexpr int kGroups = 1000;
    constexpr int kChunks = 8;
    for (int g = 0; g < kGroups; ++g) {
      const sim::Time t = sim::Time{g} * 40'000;
      const obs::SpanId gwork = s.open("gwork", obs::SpanCategory::Control, 0, t, "node1/gpu0", 1,
                                       static_cast<std::uint64_t>(g + 1));
      for (int c = 0; c < kChunks; ++c) {
        const sim::Time b = t + c * 1'500 + g % 7 * 13;
        s.record(h2d, obs::SpanCategory::H2D, gwork, b, b + 1'200 + c * 3, lanes[0], 1);
        s.record(kernel, obs::SpanCategory::Kernel, gwork, b + 1'200, b + 2'400 + g % 11, lanes[1],
                 1);
        s.record(d2h, obs::SpanCategory::D2H, gwork, b + 2'400, b + 2'900, lanes[2], 1);
      }
      s.close(gwork, t + kChunks * 1'500 + 3'000);
    }
    const std::size_t children = std::size_t{kGroups} * kChunks * 3;
    if (retain) {
      ASSERT_EQ(s.spans().size(), children + kGroups);
      EXPECT_LE(s.retained_bytes(), 9 * children) << s.retained_bytes();
    } else {
      EXPECT_EQ(s.retained_bytes(), 0u);
    }
  }
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
  host.trace_store_bytes = 4096;
  EXPECT_EQ(digest(host), d0);
  EXPECT_EQ(host.to_json().find("trace_store_bytes")->as_int(), 4096);

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
