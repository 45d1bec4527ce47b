// Telemetry: a deterministic health-detector scenario.
//
// HealthScenario drives a 6-worker engine plus a two-tenant
// JobService with two injected faults and asserts the online detectors
// call both at the *exact* golden sim-time (the run is deterministic, so
// equality is the right check — any drift in sampling cadence, detector
// math or event ordering moves these timestamps):
//
//   * a straggler: every worker is saturated with tasks until 10 ms, then
//     the peers go idle while worker 4 keeps grinding until 40 ms. The
//     live straggler score (busy-ratio EWMA vs. peer p95) must flag
//     worker 4 a few periods after the peers decay.
//   * a tenant SLO breach: tenant "prod" submits a steady stream of small
//     jobs comfortably inside a 1 ms latency objective until a "batch"
//     burst at 15 ms occupies both in-flight slots with 4 ms jobs; the
//     queued prod jobs blow the objective and the burn-rate detector
//     must fire for "prod".
//
// The scenario also streams the gflink.telemetry/v1 JSONL timeline to
// telemetry_timeline.jsonl in the working directory (uploaded with the CI
// bench reports) and feeds tools/bench_gate.py through the health_*
// gauges below.
//
// Telemetry only observes the event loop, so it costs no virtual time and
// has no overhead to measure here; test_telemetry's neutrality case checks
// that a sampled run's events, end time and report digest equal a bare
// run's.
#include <fstream>

#include "bench_common.hpp"
#include "obs/telemetry/probes.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "service/job_service.hpp"
#include "sim/util.hpp"

namespace {

using namespace gflink::bench;
namespace svc = gflink::service;
namespace tel = gflink::obs::telemetry;
using gflink::obs::Metric;
using gflink::sim::Co;

struct ScenarioResult {
  std::vector<tel::HealthEvent> events;
  std::uint64_t periods = 0;
  std::uint64_t jobs_completed = 0;
  double virtual_seconds = 0.0;
};

ScenarioResult run_health_scenario() {
  // Testbed-scaled engine: at full scale a bare Job::submit() costs 1.3 s
  // (jar upload + plan scheduling), which would dwarf the millisecond-scale
  // fault injection below; the workload scale factor shrinks it the same
  // way the paper-figure benches do.
  wl::Testbed tb;
  tb.workers = 6;
  wl::Session session(tb, wl::Mode::Cpu);
  df::Engine& engine = session.engine();

  svc::ServiceConfig scfg;
  scfg.max_total_in_flight = 2;  // the burst must be able to monopolize
  svc::JobService service(engine, nullptr, scfg);
  svc::TenantConfig prod;
  prod.name = "prod";
  svc::TenantConfig batch;
  batch.name = "batch";
  service.add_tenant(prod);
  service.add_tenant(batch);

  tel::TelemetryConfig tcfg;
  tcfg.period = sim::millis(1);
  // prod's declared latency objective: a scaled submit costs ~1.3 ms and
  // the body 200 us, so healthy latency sits near 1.7 ms — 5 ms passes
  // comfortably until the burst queues prod for tens of milliseconds.
  tcfg.slo_ms = 5.0;
  tel::Telemetry telemetry(engine.sim(), tcfg);
  tel::install_engine_probes(telemetry, engine);
  tel::install_service_probes(telemetry, service);

  std::ofstream timeline("telemetry_timeline.jsonl");
  telemetry.set_timeline_sink(&timeline, "flink");

  engine.run([&](df::Engine& eng) -> Co<void> {
    gflink::sim::WaitGroup wg(eng.sim());

    // Injected straggler: peers are busy until 10 ms, worker 4 until 40 ms.
    wg.add(eng.num_workers());
    for (int w = 1; w <= eng.num_workers(); ++w) {
      eng.sim().spawn([](df::Engine& e, int worker, gflink::sim::WaitGroup& join) -> Co<void> {
        const sim::Time busy_until = worker == 4 ? sim::millis(40) : sim::millis(10);
        while (e.now() < busy_until) co_await e.work_delay(worker, sim::micros(200));
        join.done();
      }(eng, w, wg));
    }

    // Steady prod load: a job every 2 ms at ~1.7 ms service time over two
    // in-flight slots — far from saturation, so pre-burst latency sits
    // well inside the 5 ms objective.
    wg.add(1);
    eng.sim().spawn([](df::Engine& e, svc::JobService& s, gflink::sim::WaitGroup& join) -> Co<void> {
      for (int i = 0; i < 20; ++i) {
        s.submit("prod", "probe-" + std::to_string(i), 1.0, [](df::Job& job) -> Co<void> {
          co_await job.engine().sim().delay(sim::micros(200));
        });
        co_await e.sim().delay(sim::millis(2));
      }
      join.done();
    }(eng, service, wg));

    // Injected SLO breach: at 15 ms, batch bursts four 8 ms jobs that
    // occupy both in-flight slots and queue the prod stream behind them.
    wg.add(1);
    eng.sim().spawn([](df::Engine& e, svc::JobService& s, gflink::sim::WaitGroup& join) -> Co<void> {
      co_await e.sim().delay(sim::millis(15));
      for (int i = 0; i < 4; ++i) {
        s.submit("batch", "burst-" + std::to_string(i), 4.0, [](df::Job& job) -> Co<void> {
          co_await job.engine().sim().delay(sim::millis(8));
        });
      }
      join.done();
    }(eng, service, wg));

    co_await wg.wait();
    co_await service.drain();
    co_await eng.sim().delay(sim::millis(2));
  });

  ScenarioResult out;
  out.events = telemetry.events();
  out.periods = telemetry.periods();
  out.jobs_completed = service.completed();
  out.virtual_seconds = sim::to_seconds(engine.now());
  report_case(session);
  return out;
}

const tel::HealthEvent* first_event(const ScenarioResult& r, const std::string& detector) {
  for (const auto& ev : r.events) {
    if (ev.detector == detector) return &ev;
  }
  return nullptr;
}

void Telemetry_HealthScenario(CaseState& state) {
  ScenarioResult r = run_health_scenario();

  for (const auto& ev : r.events) {
    std::printf("health event @%8.3f ms  %-14s node=%d %s%s value=%.2f (threshold %.2f)\n",
                static_cast<double>(ev.at) / 1e6, ev.detector.c_str(), ev.node,
                ev.series.c_str(), ev.tenant.empty() ? "" : (" tenant=" + ev.tenant).c_str(),
                ev.value, ev.threshold);
  }

  const tel::HealthEvent* straggler = first_event(r, "straggler");
  const tel::HealthEvent* burn = first_event(r, "slo_burn");
  GFLINK_CHECK_MSG(straggler != nullptr, "straggler detector never fired");
  GFLINK_CHECK_MSG(burn != nullptr, "slo_burn detector never fired");
  // Golden sim-times: the run is bit-deterministic, so the detectors
  // must call the injected faults at exactly these instants.
  GFLINK_CHECK_MSG(straggler->node == 4, "straggler flagged the wrong node");
  GFLINK_CHECK_MSG(straggler->at == sim::millis(14), "straggler detection time drifted");
  GFLINK_CHECK_MSG(burn->tenant == "prod", "slo_burn flagged the wrong tenant");
  GFLINK_CHECK_MSG(burn->at == sim::millis(26), "slo_burn detection time drifted");

  auto& rep = bench_report();
  rep.metrics.gauge(Metric::HealthStragglerDetectMs)
      .set(static_cast<double>(straggler->at) / 1e6);
  rep.metrics.gauge(Metric::HealthStragglerNode).set(static_cast<double>(straggler->node));
  rep.metrics.gauge(Metric::HealthStragglerScore).set(straggler->value);
  rep.metrics.gauge(Metric::HealthSloDetectMs).set(static_cast<double>(burn->at) / 1e6);
  rep.metrics.gauge(Metric::HealthSloBurnRate).set(burn->value);
  rep.metrics.gauge(Metric::HealthEventsEmitted).set(static_cast<double>(r.events.size()));
  rep.metrics.gauge(Metric::TelemetryScenarioPeriods).set(static_cast<double>(r.periods));

  state.counters["virtual_s"] = r.virtual_seconds;
  state.counters["events"] = static_cast<double>(r.events.size());
  state.counters["straggler_ms"] = static_cast<double>(straggler->at) / 1e6;
  state.counters["slo_ms"] = static_cast<double>(burn->at) / 1e6;
  state.counters["jobs"] = static_cast<double>(r.jobs_completed);
  state.label = "injected straggler + tenant SLO breach";
}

const Case kCases[] = {
    {"Telemetry_HealthScenario", Telemetry_HealthScenario, {}},
};

}  // namespace

GFLINK_BENCH_MAIN(telemetry, kCases);
