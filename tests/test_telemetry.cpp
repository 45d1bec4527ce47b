// Telemetry: sampling from the event loop, the three online detectors, the
// exporters, and neutrality (a sampled run is the bare run).
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "dataflow/engine.hpp"
#include "net/cluster.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry/probes.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "service/job_service.hpp"
#include "sim/simulation.hpp"
#include "workloads/pagerank.hpp"

namespace dataflow = gflink::dataflow;
namespace net = gflink::net;
namespace obs = gflink::obs;
namespace service = gflink::service;
namespace sim = gflink::sim;
namespace telemetry = gflink::obs::telemetry;
namespace wl = gflink::workloads;

using sim::Co;
using sim::Simulation;

namespace {

/// A 1 ms sampling period, with the SLO objective `slo_ms`.
telemetry::TelemetryConfig every_ms(double slo_ms = 0.0) {
  telemetry::TelemetryConfig cfg;
  cfg.period = sim::millis(1);
  cfg.slo_ms = slo_ms;
  return cfg;
}

/// Run `s` through `periods` sample periods (and half of the next).
void run_periods(Simulation& s, int periods) {
  s.run_until(sim::millis(1) * periods + sim::micros(500));
}

}  // namespace

// ---- Sampling --------------------------------------------------------------

TEST(TelemetryPlane, SamplesProbesAndMergesClusterSeries) {
  Simulation s;
  net::ClusterConfig ccfg;
  ccfg.num_workers = 3;
  net::Cluster cluster(s, ccfg);
  telemetry::Telemetry t(s, every_ms());
  for (int w = 1; w <= 3; ++w) {
    t.add_probe(w, obs::Metric::TelemetryShuffleResidentBytes, {}, [w] { return 100.0 * w; });
  }
  run_periods(s, 10);
  EXPECT_EQ(t.periods(), 10u);
  const auto* series = t.find_series("telemetry_shuffle_resident_bytes");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(series->nodes[0].last, 100.0);
  EXPECT_DOUBLE_EQ(series->nodes[2].last, 300.0);
  EXPECT_DOUBLE_EQ(series->cluster, 600.0);  // cluster-wide sum
  // Sampling is read-only: no event ran, nothing moved over the cluster
  // and the run's registry holds no telemetry series.
  EXPECT_EQ(s.events_processed(), 0u);
  EXPECT_DOUBLE_EQ(cluster.metrics().counter_value("net.rdma_writes"), 0.0);
  for (const auto& [id, counter] : cluster.metrics().counters()) {
    EXPECT_NE(id.name.rfind("telemetry_", 0), 0u) << id.name;
  }
}

TEST(TelemetryPlane, CounterProbesReportPerPeriodDeltas) {
  Simulation s;
  telemetry::Telemetry t(s, every_ms());
  t.add_probe(1, obs::Metric::TelemetryTaskBusyNs, {},
              [&s] { return static_cast<double>(s.now()) / 4.0; });
  run_periods(s, 3);
  EXPECT_DOUBLE_EQ(t.find_series("telemetry_task_busy_ns")->nodes[0].last,
                   static_cast<double>(sim::millis(1)) / 4.0);
}

TEST(TelemetryPlaneDeathTest, ProbesRegisterOnlyThroughTheirSampledFamily) {
  Simulation s;
  telemetry::Telemetry t(s, telemetry::TelemetryConfig{});
  auto zero = [] { return 0.0; };
  // A registry counter as a probe and a tenant-keyed series without its
  // tenant both abort.
  EXPECT_DEATH(t.add_probe(1, obs::Metric::NetBytes, {}, zero), "'net.bytes' is a counter");
  EXPECT_DEATH(t.add_probe(1, obs::Metric::TelemetryServicePending, {}, zero),
               "label keys \\{tenant\\}");
}

// A HealthEvent names its node by construction.
static_assert(!std::is_default_constructible_v<telemetry::HealthEvent>);

// ---- Detectors -------------------------------------------------------------

TEST(TelemetryDetectors, QueueAnomalyFiresOnSpike) {
  Simulation s;
  telemetry::Telemetry t(s, every_ms());
  // Flat at 0 until 20 ms, then a 50-deep queue appears.
  t.add_probe(1, obs::Metric::TelemetryGstreamQueueDepth, {}, [&s] {
    return s.now() >= sim::millis(20) ? 50.0 : 0.0;
  });
  run_periods(s, 30);
  ASSERT_EQ(t.events().size(), 1u);
  const auto& ev = t.events()[0];
  EXPECT_EQ(ev.detector, "queue_anomaly");
  EXPECT_EQ(ev.node, 1);
  EXPECT_EQ(ev.series, "telemetry_gstream_queue_depth_total");
  EXPECT_GT(ev.value, telemetry::kZThreshold);
  // The 20 ms tick is the first to see the spike.
  EXPECT_EQ(ev.at, sim::millis(20));
  // The Prometheus text counts it.
  EXPECT_NE(t.prometheus_text().find(
                "health_events_total{detector=\"queue_anomaly\",node=\"1\"} 1"),
            std::string::npos);
}

TEST(TelemetryDetectors, LiveStragglerScoreFlagsTheSlowNode) {
  Simulation s;
  telemetry::Telemetry t(s, every_ms());
  // Cumulative busy ns per node: everyone is saturated until 10 ms, then
  // the peers go idle while node 4 stays busy.
  for (int w = 1; w <= 6; ++w) {
    t.add_probe(w, obs::Metric::TelemetryTaskBusyNs, {}, [&s, w] {
      if (w == 4) return static_cast<double>(s.now());
      return static_cast<double>(std::min(s.now(), sim::millis(10)));
    });
  }
  run_periods(s, 30);
  ASSERT_FALSE(t.events().empty());
  const auto& ev = t.events()[0];
  EXPECT_EQ(ev.detector, "straggler");
  EXPECT_EQ(ev.node, 4);
  EXPECT_EQ(ev.series, "telemetry_task_busy_ns");
  EXPECT_GE(ev.value, telemetry::kStragglerScore);
  // Needs a few periods of peer decay plus the consecutive streak, but
  // fires soon after the peers go idle.
  EXPECT_GT(ev.at, sim::millis(10));
  EXPECT_LE(ev.at, sim::millis(20));
  // Only the one straggler fired.
  for (const auto& e : t.events()) EXPECT_EQ(e.node, 4);
}

TEST(TelemetryDetectors, SloBurnRateFiresForTheBreachedTenant) {
  Simulation s;
  telemetry::Telemetry t(s, every_ms(1.0));
  t.add_probe(0, obs::Metric::TelemetryServicePending, {{"tenant", "prod"}}, [] { return 0.0; });
  s.spawn([](Simulation& sm, telemetry::Telemetry& tel) -> Co<void> {
    // Two completions per period: healthy for 10 ms, breached after.
    for (int i = 0; i < 30; ++i) {
      const sim::Duration latency =
          sm.now() >= sim::millis(10) ? sim::millis(5) : sim::micros(100);
      tel.observe_completion("prod", latency);
      tel.observe_completion("prod", latency);
      co_await sm.delay(sim::millis(1));
    }
  }(s, t));
  run_periods(s, 30);
  ASSERT_FALSE(t.events().empty());
  const auto& ev = t.events()[0];
  EXPECT_EQ(ev.detector, "slo_burn");
  EXPECT_EQ(ev.tenant, "prod");
  EXPECT_EQ(ev.node, 0);
  EXPECT_GE(ev.value, telemetry::kSloBurnThreshold);
  // A tick runs before the events of its instant, so the 10 ms
  // completions land in the window the 11 ms tick closes.
  EXPECT_GT(ev.at, sim::millis(10));
  EXPECT_LE(ev.at, sim::millis(15));
}

// ---- Export ----------------------------------------------------------------

TEST(TelemetryExport, PrometheusTextMatchesTheExpositionGrammar) {
  Simulation s;
  telemetry::Telemetry t(s, every_ms());
  for (int w = 1; w <= 2; ++w) {
    t.add_probe(w, obs::Metric::TelemetryGpuCacheUsedBytes, {}, [w] { return 1024.0 * w; });
    t.add_probe(w, obs::Metric::TelemetryTenantQuotaUsedRatio, {{"tenant", "prod"}},
                [] { return 0.5; });
  }
  run_periods(s, 5);
  const std::string text = t.prometheus_text();
  EXPECT_NE(text.find("telemetry_gpu_cache_used_bytes{node=\"1\"} 1024"), std::string::npos);
  EXPECT_NE(text.find("tenant=\"prod\""), std::string::npos);
  EXPECT_NE(text.find("telemetry_periods_total 5"), std::string::npos);
  // Every line is a comment or matches the name{labels} value grammar.
  const std::regex sample_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [-+0-9.eE]+$)");
  std::istringstream lines(text);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_TRUE(std::regex_match(line, sample_re)) << "bad exposition line: " << line;
    ++samples;
  }
  EXPECT_GE(samples, 5);  // 2 nodes x 2 series + telemetry_periods_total
}

TEST(TelemetryExport, TimelineWritesOneRecordPerPeriod) {
  Simulation s;
  telemetry::Telemetry t(s, every_ms());
  for (int w = 1; w <= 2; ++w) {
    t.add_probe(w, obs::Metric::TelemetrySpillQueueDepth, {},
                [w] { return static_cast<double>(w); });
  }
  std::ostringstream sink;
  t.set_timeline_sink(&sink, "flink");
  run_periods(s, 7);
  std::istringstream lines(sink.str());
  std::string line;
  int records = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"schema\":\"gflink.telemetry/v1\",\"run\":\"flink\"", 0), 0u) << line;
    EXPECT_NE(line.find("telemetry_spill_queue_depth_total"), std::string::npos);
    ++records;
  }
  EXPECT_EQ(records, 7);
}

// ---- Probe wiring against the real engine/service layers -------------------

TEST(TelemetryProbes, EngineAndServiceProbesSampleRealWork) {
  dataflow::EngineConfig cfg;
  cfg.cluster.num_workers = 4;
  dataflow::Engine engine(cfg);
  service::ServiceConfig scfg;
  service::JobService svc(engine, nullptr, scfg);
  service::TenantConfig tenant;
  tenant.name = "prod";
  svc.add_tenant(tenant);

  telemetry::Telemetry t(engine.sim(), every_ms(50.0));
  telemetry::install_engine_probes(t, engine);
  telemetry::install_service_probes(t, svc);

  engine.run([&](dataflow::Engine& eng) -> Co<void> {
    auto ticket = svc.submit("prod", "busywork", 1.0, [](dataflow::Job& job) -> Co<void> {
      co_await job.engine().work_delay(2, sim::millis(8));
    });
    co_await svc.drain();
    (void)ticket;
    co_await eng.sim().delay(sim::millis(2));
  });

  const auto* busy = t.find_series("telemetry_task_busy_ns");
  ASSERT_NE(busy, nullptr);
  ASSERT_EQ(busy->nodes.size(), 4u);
  EXPECT_EQ(busy->nodes[1].node, 2);
  EXPECT_DOUBLE_EQ(
      engine.metrics().counter_value("engine.task_busy_ns", {{"node", "2"}}),
      static_cast<double>(sim::millis(8)));
  // The probe read worker 2's counter: its last cumulative value is the
  // task's busy time.
  EXPECT_DOUBLE_EQ(busy->nodes[1].prev, static_cast<double>(sim::millis(8)));
  // The service's completion fed the SLO observer (no breach: no events).
  EXPECT_EQ(svc.completed(), 1u);
  ASSERT_NE(t.find_series("telemetry_service_pending_total", {{"tenant", "prod"}}), nullptr);
  for (const auto& ev : t.events()) EXPECT_NE(ev.detector, "slo_burn");
}

// ---- Neutrality ------------------------------------------------------------

namespace {

struct RunFacts {
  std::uint64_t events = 0;
  sim::Time end = 0;
  std::string digest;
  std::uint64_t periods = 0;
  std::size_t health_events = 0;
};

/// GFlink-mode PageRank on 4 workers, optionally sampled every 10 us with
/// every engine and runtime probe, a timeline sink and the SLO detector.
RunFacts pagerank_run(bool sampled) {
  wl::Testbed tb;
  tb.workers = 4;
  wl::pagerank::Config cfg;
  cfg.pages = 2'000'000;
  cfg.iterations = 3;
  wl::Session session(tb, wl::Mode::Gpu);
  std::ostringstream timeline;
  std::unique_ptr<telemetry::Telemetry> t;
  if (sampled) {
    telemetry::TelemetryConfig tcfg;
    tcfg.period = sim::micros(10);
    tcfg.slo_ms = 5.0;
    t = std::make_unique<telemetry::Telemetry>(session.engine().sim(), tcfg);
    telemetry::install_engine_probes(*t, session.engine());
    telemetry::install_runtime_probes(*t, *session.runtime());
    t->set_timeline_sink(&timeline, "gflink");
  }
  session.run(&wl::pagerank::run, cfg);
  obs::RunReport report;
  session.report_into(report);
  RunFacts facts;
  facts.events = session.engine().sim().events_processed();
  facts.end = session.engine().now();
  facts.digest = report.to_json().find("digest")->as_string();
  if (t) {
    facts.periods = t->periods();
    facts.health_events = t->events().size();
  }
  return facts;
}

}  // namespace

TEST(TelemetryNeutrality, SampledRunIsTheBareRun) {
  const RunFacts bare = pagerank_run(false);
  const RunFacts sampled = pagerank_run(true);
  EXPECT_EQ(sampled.events, bare.events);
  EXPECT_EQ(sampled.end, bare.end);
  EXPECT_EQ(sampled.digest, bare.digest);
  // It did sample, one tick per period boundary the run crossed, and its
  // detectors fired without leaving a trace in the run.
  EXPECT_EQ(sampled.periods, static_cast<std::uint64_t>(bare.end / sim::micros(10)));
  EXPECT_GT(sampled.health_events, 0u);
}
