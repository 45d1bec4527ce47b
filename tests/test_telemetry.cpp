// Live telemetry plane: ring downsampling, sampling/aggregation over the
// cluster pipes, the three online detectors, and the exporters.
#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "dataflow/engine.hpp"
#include "net/cluster.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry/probes.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "service/job_service.hpp"
#include "sim/simulation.hpp"

namespace dataflow = gflink::dataflow;
namespace net = gflink::net;
namespace obs = gflink::obs;
namespace service = gflink::service;
namespace sim = gflink::sim;
namespace telemetry = gflink::obs::telemetry;

using sim::Co;
using sim::Simulation;

namespace {

net::ClusterConfig small_cluster(int workers) {
  net::ClusterConfig cfg;
  cfg.num_workers = workers;
  return cfg;
}

/// Drive a plane for `periods` sample periods, then stop it.
Co<void> drive(Simulation& s, telemetry::TelemetryPlane& plane, int periods) {
  plane.start();
  co_await s.delay(plane.config().period * periods + plane.config().period / 2);
  plane.stop();
}

}  // namespace

// ---- TimeSeriesRing --------------------------------------------------------

TEST(TimeSeriesRing, StoresUpToCapacityAtFullResolution) {
  telemetry::TimeSeriesRing ring(8);
  for (int i = 0; i < 8; ++i) ring.append(i * 10, static_cast<double>(i));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.stride(), 1u);
  EXPECT_EQ(ring.downsamples(), 0u);
  EXPECT_DOUBLE_EQ(ring[3].value, 3.0);
  EXPECT_EQ(ring[3].at, 30);
}

TEST(TimeSeriesRing, DownsamplesInPlaceOnWrap) {
  telemetry::TimeSeriesRing ring(8);
  for (int i = 0; i < 9; ++i) ring.append(i * 10, static_cast<double>(i));
  // The 9th append halves the ring (pairwise means, later timestamps) and
  // doubles the accept stride.
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.stride(), 2u);
  EXPECT_EQ(ring.downsamples(), 1u);
  EXPECT_DOUBLE_EQ(ring[0].value, 0.5);  // mean(0, 1)
  EXPECT_EQ(ring[0].at, 10);             // later of the pair
  EXPECT_DOUBLE_EQ(ring[3].value, 6.5);
  EXPECT_DOUBLE_EQ(ring[4].value, 8.0);  // the append that triggered the wrap
  // With stride 2, two more appends collapse into one stored mean.
  ring.append(90, 9.0);
  EXPECT_EQ(ring.size(), 5u);
  ring.append(100, 10.0);
  EXPECT_EQ(ring.size(), 6u);
  EXPECT_DOUBLE_EQ(ring.back().value, 9.5);
  EXPECT_EQ(ring.back().at, 100);
}

TEST(TimeSeriesRing, LongRunMeanSurvivesRepeatedDownsampling) {
  telemetry::TimeSeriesRing ring(4);
  std::uint64_t offered = 0;
  for (int i = 0; i < 1000; ++i) {
    ring.append(i, 7.0);
    ++offered;
  }
  EXPECT_EQ(ring.offered(), offered);
  EXPECT_GT(ring.downsamples(), 0u);
  EXPECT_LE(ring.size(), 4u);
  for (std::size_t i = 0; i < ring.size(); ++i) EXPECT_DOUBLE_EQ(ring[i].value, 7.0);
  // Timestamps stay strictly increasing through every compaction.
  for (std::size_t i = 1; i < ring.size(); ++i) EXPECT_GT(ring[i].at, ring[i - 1].at);
}

// ---- Sampling + aggregation ------------------------------------------------

TEST(TelemetryPlane, SamplesProbesAndMergesClusterSeries) {
  Simulation s;
  net::Cluster cluster(s, small_cluster(3));
  telemetry::TelemetryConfig cfg;
  cfg.period = sim::millis(1);
  telemetry::TelemetryPlane plane(s, cluster, cfg);
  for (int w = 1; w <= 3; ++w) {
    plane.sampler(w).add_probe(obs::Metric::TelemetryShuffleResidentBytes, {},
                               [w] { return 100.0 * w; });
  }
  s.spawn(drive(s, plane, 10));
  s.run();
  EXPECT_EQ(plane.aggregator().periods(), 10u);
  const auto* series =
      plane.aggregator().find_series("telemetry_shuffle_resident_bytes");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(series->last[0], 100.0);
  EXPECT_DOUBLE_EQ(series->last[2], 300.0);
  ASSERT_FALSE(series->ring.empty());
  EXPECT_DOUBLE_EQ(series->ring.back().value, 600.0);  // cluster-wide sum
  // Sampler bookkeeping went through the registry, per node.
  EXPECT_DOUBLE_EQ(cluster.metrics().counter_value("telemetry_samples_total",
                                                   {{"node", "1"}}),
                   10.0);
  EXPECT_DOUBLE_EQ(cluster.metrics().counter_value("telemetry_periods_total"), 10.0);
  EXPECT_GT(cluster.metrics().counter_value("telemetry_snapshot_bytes_total",
                                            {{"node", "2"}}),
            0.0);
  // Worker snapshots rode the HCA pipes.
  EXPECT_GT(cluster.metrics().counter_value("net.rdma_writes"), 0.0);
}

TEST(TelemetryPlane, CountsRingDownsamplesOnStop) {
  Simulation s;
  net::Cluster cluster(s, small_cluster(1));
  telemetry::TelemetryConfig cfg;
  cfg.period = sim::millis(1);
  cfg.ring_capacity = 4;
  telemetry::TelemetryPlane plane(s, cluster, cfg);
  plane.sampler(1).add_probe(obs::Metric::TelemetrySpillQueueDepth, {}, [] { return 1.0; });
  s.spawn(drive(s, plane, 40));
  s.run();
  EXPECT_GT(cluster.metrics().counter_value("telemetry_ring_downsamples_total",
                                            {{"node", "1"}}),
            0.0);
}

TEST(TelemetryPlaneDeathTest, ProbesRegisterOnlyThroughTheirSampledFamily) {
  Simulation s;
  net::Cluster cluster(s, small_cluster(1));
  telemetry::TelemetryPlane plane(s, cluster, telemetry::TelemetryConfig{});
  telemetry::NodeSampler& sampler = plane.sampler(1);
  auto zero = [] { return 0.0; };
  // A registry counter as a probe and a tenant-keyed series without its
  // tenant both abort.
  EXPECT_DEATH(sampler.add_probe(obs::Metric::NetBytes, {}, zero), "'net.bytes' is a counter");
  EXPECT_DEATH(sampler.add_probe(obs::Metric::TelemetryServicePending, {}, zero),
               "label keys \\{tenant\\}");
}

// A HealthEvent names its node by construction.
static_assert(!std::is_default_constructible_v<telemetry::HealthEvent>);

// ---- Detectors -------------------------------------------------------------

TEST(TelemetryDetectors, QueueAnomalyFiresOnSpike) {
  Simulation s;
  net::Cluster cluster(s, small_cluster(1));
  telemetry::TelemetryConfig cfg;
  cfg.period = sim::millis(1);
  telemetry::TelemetryPlane plane(s, cluster, cfg);
  // Flat at 0 until 20 ms, then a 50-deep queue appears.
  plane.sampler(1).add_probe(obs::Metric::TelemetryGstreamQueueDepth, {}, [&s] {
    return s.now() >= sim::millis(20) ? 50.0 : 0.0;
  });
  obs::FlightRecorder flight;
  plane.attach_flight(&flight);
  s.spawn(drive(s, plane, 30));
  s.run();
  ASSERT_EQ(plane.aggregator().events().size(), 1u);
  const auto& ev = plane.aggregator().events()[0];
  EXPECT_EQ(ev.detector, "queue_anomaly");
  EXPECT_EQ(ev.node, 1);
  EXPECT_EQ(ev.series, "telemetry_gstream_queue_depth_total");
  EXPECT_GT(ev.value, cfg.z_threshold);
  // First sample at or after the spike: the 21st period (20 ms flat, spike
  // visible at the 21 ms tick... the 20 ms tick itself already sees it).
  EXPECT_EQ(ev.at, sim::millis(20));
  // The firing also landed in the flight rings.
  EXPECT_NE(flight.to_json().dump().find("health_queue_anomaly"), std::string::npos);
  EXPECT_DOUBLE_EQ(cluster.metrics().counter_value(
                       "health_events_total", {{"detector", "queue_anomaly"}, {"node", "1"}}),
                   1.0);
}

TEST(TelemetryDetectors, LiveStragglerScoreFlagsTheSlowNode) {
  Simulation s;
  net::Cluster cluster(s, small_cluster(6));
  telemetry::TelemetryConfig cfg;
  cfg.period = sim::millis(1);
  telemetry::TelemetryPlane plane(s, cluster, cfg);
  // Cumulative busy ns per node: everyone is saturated until 10 ms, then
  // the peers go idle while node 4 stays busy.
  for (int w = 1; w <= 6; ++w) {
    plane.sampler(w).add_probe(obs::Metric::TelemetryTaskBusyNs, {}, [&s, w] {
      if (w == 4) return static_cast<double>(s.now());
      return static_cast<double>(std::min(s.now(), sim::millis(10)));
    });
  }
  s.spawn(drive(s, plane, 30));
  s.run();
  ASSERT_FALSE(plane.aggregator().events().empty());
  const auto& ev = plane.aggregator().events()[0];
  EXPECT_EQ(ev.detector, "straggler");
  EXPECT_EQ(ev.node, 4);
  EXPECT_EQ(ev.series, "telemetry_task_busy_ns");
  EXPECT_GE(ev.value, cfg.straggler_score);
  // Needs a few periods of peer decay plus the consecutive streak, but
  // fires soon after the peers go idle.
  EXPECT_GT(ev.at, sim::millis(10));
  EXPECT_LE(ev.at, sim::millis(20));
  // Only the one straggler fired.
  for (const auto& e : plane.aggregator().events()) EXPECT_EQ(e.node, 4);
}

TEST(TelemetryDetectors, SloBurnRateFiresForTheBreachedTenant) {
  Simulation s;
  net::Cluster cluster(s, small_cluster(1));
  telemetry::TelemetryConfig cfg;
  cfg.period = sim::millis(1);
  cfg.slo_ms = 1.0;
  telemetry::TelemetryPlane plane(s, cluster, cfg);
  plane.sampler(0).add_probe(obs::Metric::TelemetryServicePending, {{"tenant", "prod"}},
                             [] { return 0.0; });
  auto& aggregator = plane.aggregator();
  s.spawn([](Simulation& sm, telemetry::TelemetryAggregator& agg) -> Co<void> {
    // Two completions per period: healthy for 10 ms, breached after.
    for (int i = 0; i < 30; ++i) {
      const sim::Duration latency =
          sm.now() >= sim::millis(10) ? sim::millis(5) : sim::micros(100);
      agg.observe_completion("prod", latency);
      agg.observe_completion("prod", latency);
      co_await sm.delay(sim::millis(1));
    }
  }(s, aggregator));
  s.spawn(drive(s, plane, 30));
  s.run();
  ASSERT_FALSE(aggregator.events().empty());
  const auto& ev = aggregator.events()[0];
  EXPECT_EQ(ev.detector, "slo_burn");
  EXPECT_EQ(ev.tenant, "prod");
  EXPECT_EQ(ev.node, 0);
  EXPECT_GE(ev.value, cfg.slo_burn_threshold);
  // The 10 ms completions are already breached (the driver runs before the
  // tick in FIFO order), so the very first window that sees them fires.
  EXPECT_GE(ev.at, sim::millis(10));
  EXPECT_LE(ev.at, sim::millis(15));
}

// ---- Export ----------------------------------------------------------------

TEST(TelemetryExport, PrometheusTextMatchesTheExpositionGrammar) {
  Simulation s;
  net::Cluster cluster(s, small_cluster(2));
  telemetry::TelemetryConfig cfg;
  cfg.period = sim::millis(1);
  telemetry::TelemetryPlane plane(s, cluster, cfg);
  for (int w = 1; w <= 2; ++w) {
    plane.sampler(w).add_probe(obs::Metric::TelemetryGpuCacheUsedBytes, {},
                               [w] { return 1024.0 * w; });
    plane.sampler(w).add_probe(obs::Metric::TelemetryTenantQuotaUsedRatio, {{"tenant", "prod"}},
                               [] { return 0.5; });
  }
  s.spawn(drive(s, plane, 5));
  s.run();
  const std::string text = plane.prometheus_text();
  EXPECT_NE(text.find("telemetry_gpu_cache_used_bytes{node=\"1\"} 1024"), std::string::npos);
  EXPECT_NE(text.find("tenant=\"prod\""), std::string::npos);
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
  net::Cluster cluster(s, small_cluster(2));
  telemetry::TelemetryConfig cfg;
  cfg.period = sim::millis(1);
  telemetry::TelemetryPlane plane(s, cluster, cfg);
  for (int w = 1; w <= 2; ++w) {
    plane.sampler(w).add_probe(obs::Metric::TelemetrySpillQueueDepth, {},
                               [w] { return static_cast<double>(w); });
  }
  std::ostringstream sink;
  plane.set_timeline_sink(&sink);
  s.spawn(drive(s, plane, 7));
  s.run();
  std::istringstream lines(sink.str());
  std::string line;
  int records = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"schema\":\"gflink.telemetry/v1\"", 0), 0u) << line;
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

  telemetry::TelemetryConfig tcfg;
  tcfg.period = sim::millis(1);
  tcfg.slo_ms = 50.0;
  telemetry::TelemetryPlane plane(engine.sim(), engine.cluster(), tcfg);
  telemetry::install_engine_probes(plane, engine);
  telemetry::install_service_probes(plane, svc);

  engine.run([&](dataflow::Engine& eng) -> Co<void> {
    plane.start();
    auto ticket = svc.submit("prod", "busywork", 1.0, [](dataflow::Job& job) -> Co<void> {
      co_await job.engine().work_delay(2, sim::millis(8));
    });
    co_await svc.drain();
    (void)ticket;
    co_await eng.sim().delay(sim::millis(2));
    plane.stop();
    co_return;
  });

  // The busy-counter delta series saw worker 2's task.
  const auto* busy = plane.aggregator().find_series("telemetry_task_busy_ns");
  ASSERT_NE(busy, nullptr);
  ASSERT_EQ(busy->nodes.size(), 4u);
  EXPECT_GT(busy->ring.offered(), 0u);
  EXPECT_DOUBLE_EQ(
      engine.metrics().counter_value("engine.task_busy_ns", {{"node", "2"}}),
      static_cast<double>(sim::millis(8)));
  // The service's completion fed the SLO observer (no breach: no events).
  EXPECT_EQ(svc.completed(), 1u);
  ASSERT_NE(plane.aggregator().find_series("telemetry_service_pending_total",
                                           {{"tenant", "prod"}}),
            nullptr);
  for (const auto& ev : plane.aggregator().events()) EXPECT_NE(ev.detector, "slo_burn");
}
