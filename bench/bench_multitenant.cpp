// Multi-tenant JobService under a closed-loop serving workload.
//
// Three tenants weighted 2:1:1 (gold, silver, bronze) each drive K
// closed-loop clients submitting identical PointAdd-style GPU jobs through
// the JobService until a virtual deadline. The service's total in-flight
// cap keeps the cluster saturated with a standing backlog, so dispatch
// order — the deficit-round-robin fairness policy — decides who runs.
// With equal job sizes, each tenant's achieved throughput share and GPU
// cache share must converge to its weight share (2:1:1 within 10%), while
// the per-tenant p99 latency splits into queue wait vs. run.
//
// The gauges feed tools/bench_gate.py, which renders the EXPERIMENTS.md
// fairness table and checks the shares; the per-tenant fairness section
// lands in the run report's `tenants` object (schema
// gflink.run_report/v3).
#include "bench_common.hpp"
#include "service/job_service.hpp"
#include "sim/closed_loop.hpp"
#include "workloads/pointadd.hpp"
#include "workloads/records.hpp"

namespace {

using namespace gflink::bench;
namespace svc = gflink::service;
using gflink::obs::Metric;
using gflink::sim::Co;
using gflink::workloads::Pt;

struct TenantLoad {
  svc::TenantConfig config;
  int clients = 2;
};

struct CaseResult {
  double virtual_seconds = 0.0;  // simulated, unscaled
  std::uint64_t completed = 0;
  std::vector<svc::JobService::TenantSnapshot> tenants;
  gflink::obs::Json fairness;
};

CaseResult run_case(const wl::Testbed& tb, const std::vector<TenantLoad>& loads,
                    gflink::sim::Time deadline) {
  wl::Session session(tb, wl::Mode::Gpu);
  df::Engine& engine = session.engine();

  svc::ServiceConfig scfg;
  scfg.max_pending = 64;
  // Two jobs run at a time: enough to keep both GPUs busy, few enough that
  // every tenant always has a pending backlog and DRR decides who is next.
  scfg.max_total_in_flight = 2;
  svc::JobService service(engine, session.runtime(), scfg);
  for (const auto& load : loads) service.add_tenant(load.config);

  // ~400 KB of points per job at testbed scale: the GPU map caches its
  // input, so every completed job adds to its tenant's cache footprint.
  const std::uint64_t points_per_job = 50'000;
  const int partitions = 2;

  CaseResult out;
  engine.run([&](df::Engine& eng) -> Co<void> {
    gflink::sim::WaitGroup wg(eng.sim());
    wg.add(static_cast<int>(loads.size()));
    for (const auto& load : loads) {
      eng.sim().spawn([](df::Engine& e, svc::JobService& s, const TenantLoad& ld,
                         std::uint64_t n, int parts, gflink::sim::Time stop_at,
                         gflink::sim::WaitGroup& join) -> Co<void> {
        co_await gflink::sim::run_closed_loop(
            e.sim(), ld.clients, 1'000'000, 0,
            [&](const gflink::sim::ClosedLoopClient& c) -> Co<void> {
              auto ticket = s.submit(
                  ld.config.name,
                  ld.config.name + "-" + std::to_string(c.client) + "-" +
                      std::to_string(c.request),
                  1.0, [&e, n, parts](df::Job& job) -> Co<void> {
                    auto src = df::DataSet<Pt>::from_generator(
                        e, &wl::pt_desc(),
                        wl::striped<Pt>(n, parts, [](std::uint64_t i) {
                          return wl::pointadd::pt_at(i, 7);
                        }));
                    auto added = wl::pointadd::mapper(src, wl::Mode::Gpu);
                    co_await added.count(job);
                  });
              co_await ticket->wait();
            },
            stop_at);
        join.done();
      }(eng, service, load, points_per_job, partitions, deadline, wg));
    }
    co_await wg.wait();
    co_await service.drain();
  });

  out.virtual_seconds = sim::to_seconds(engine.now());
  out.completed = service.completed();
  out.tenants = service.snapshot();
  out.fairness = service.fairness_json();

  report_case(session).tenants = service.fairness_json();
  return out;
}

void Multitenant_WeightedFairService(CaseState& state) {
  wl::Testbed tb;
  tb.workers = 2;
  // Gold pays for twice the share: double DRR weight, double GPU cache
  // quota, and stream priority over the best-effort tenants.
  const std::uint64_t quota = 4ULL << 20;
  std::vector<TenantLoad> loads{
      {svc::TenantConfig{"gold", 2.0, 0, 2 * quota, 1}, 2},
      {svc::TenantConfig{"silver", 1.0, 0, quota, 0}, 2},
      {svc::TenantConfig{"bronze", 1.0, 0, quota, 0}, 2},
  };

  CaseResult r = run_case(tb, loads, sim::millis(40));
  const double jobs_per_second =
      r.virtual_seconds > 0 ? static_cast<double>(r.completed) / r.virtual_seconds : 0.0;
  state.counters["virtual_s"] = r.virtual_seconds;
  state.counters["jobs_total"] = static_cast<double>(r.completed);
  state.counters["jobs_per_second"] = jobs_per_second;

  double total_weight = 0.0, total_completed = 0.0, total_cache = 0.0;
  for (const auto& t : r.tenants) {
    total_weight += t.weight;
    total_completed += static_cast<double>(t.completed);
    total_cache += static_cast<double>(t.cache_inserted_bytes);
  }
  auto& rep = bench_report();
  rep.metrics.gauge(Metric::MultitenantJobsPerSecond).set(jobs_per_second);
  for (const auto& t : r.tenants) {
    const double weight_share = t.weight / total_weight;
    const double throughput_share =
        total_completed > 0 ? static_cast<double>(t.completed) / total_completed : 0.0;
    const double cache_share =
        total_cache > 0 ? static_cast<double>(t.cache_inserted_bytes) / total_cache : 0.0;
    const double p99_s = t.latency_ns.p99 / 1e9;
    rep.metrics.gauge(Metric::MultitenantWeightShare, {{"tenant", t.name}}).set(weight_share);
    rep.metrics.gauge(Metric::MultitenantThroughputShare, {{"tenant", t.name}})
        .set(throughput_share);
    rep.metrics.gauge(Metric::MultitenantCacheShare, {{"tenant", t.name}}).set(cache_share);
    rep.metrics.gauge(Metric::MultitenantP99LatencyS, {{"tenant", t.name}}).set(p99_s);
    state.counters["share_" + t.name] = throughput_share;
    std::printf(
        "%-6s weight=%.0f completed=%llu share=%.3f (want %.3f) cache=%.3f p99=%.4fs\n",
        t.name.c_str(), t.weight, static_cast<unsigned long long>(t.completed),
        throughput_share, weight_share, cache_share, p99_s);
  }
  std::printf("aggregate: %llu jobs in %.3f simulated s (%.1f jobs/s)\n",
              static_cast<unsigned long long>(r.completed), r.virtual_seconds, jobs_per_second);
  state.label = "multi-tenant weighted fair service";
}

const Case kCases[] = {
    {"Multitenant_WeightedFairService", Multitenant_WeightedFairService, {}},
};

}  // namespace

GFLINK_BENCH_MAIN(multitenant, kCases);
