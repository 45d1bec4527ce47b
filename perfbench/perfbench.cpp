// perfbench: one workload of the two-clock benchmark, run in one process.
//
//   perfbench --workload <kmeans|pagerank|wordcount-spill|tenants>
//             --seed <n> --trace <0|1> --seconds <s>
//
// A repetition runs the workload once in Flink (CPU) mode and once in
// GFlink mode, each on a fresh simulated testbed, through the public APIs
// of dataflow::Engine, core::GFlinkRuntime and service::JobService.
// Repetitions continue while the next one still fits in --seconds of host
// time (at least kMinReps). Every repetition must produce bit-identical
// modelled numbers.
//
// Two clocks are reported:
//  * modelled (virtual) time, in full-scale seconds as the paper plots it;
//  * host time, the simulator's own cost, timed from outside the library
//    with steady_clock around the calls this file makes.
// With --trace 1 the testbed retains causal spans (Testbed::trace) and the
// per-layer read-outs are added: critical path per mode, kernel host time
// (timing wrappers re-registered over the global kernel registry), input
// generator cost and the obs layer's own analysis cost.
//
// Output: one JSON object on stdout (read by run.py). Exit code 0 unless
// the arguments are bad; failed checks are reported in the JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/gpu_manager.hpp"
#include "obs/span.hpp"
#include "service/job_service.hpp"
#include "sim/closed_loop.hpp"
#include "sim/random.hpp"
#include "workloads/common.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/pointadd.hpp"
#include "workloads/records.hpp"
#include "workloads/wordcount.hpp"

namespace {

namespace df = gflink::dataflow;
namespace core = gflink::core;
namespace gpu = gflink::gpu;
namespace obs = gflink::obs;
namespace sim = gflink::sim;
namespace svc = gflink::service;
namespace wl = gflink::workloads;
using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

constexpr int kMinReps = 1;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- Host-side instruments owned by this file ------------------------------

/// Kernel host time: every registered kernel is re-registered with a
/// wrapper that times its host function (traced runs only).
struct KernelTimer {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};
KernelTimer g_kernels;

void wrap_kernels() {
  wl::ensure_kernels_registered();
  auto& reg = gpu::KernelRegistry::global();
  for (const char* name : {"cudaKmeansAssign", "cudaLinregGradient", "cudaSpmvRow",
                           "cudaPagerankContrib", "cudaConcompMsgs", "cudaWordcountBlock",
                           "cudaSumVec", "cudaAddPoint"}) {
    if (!reg.contains(name)) continue;
    gpu::Kernel k = reg.lookup(name);
    k.fn = [inner = k.fn](gpu::KernelLaunch& launch) {
      const auto t0 = Clock::now();
      inner(launch);
      g_kernels.seconds += since(t0);
      ++g_kernels.calls;
    };
    reg.register_kernel(std::move(k));
  }
}

// ---- One mode of one repetition -------------------------------------------

struct ModeRun {
  double makespan_s = 0.0;          // modelled, full scale
  std::vector<double> iteration_s;  // modelled, full scale
  // Engine + GFlinkRuntime export (the registry is not movable).
  std::unique_ptr<obs::MetricsRegistry> registry = std::make_unique<obs::MetricsRegistry>();
  std::uint64_t events = 0;
  double setup_host_s = 0.0;  // testbed construction up to the first event
  double host_s = 0.0;        // setup + event loop + teardown
  double export_host_s = 0.0;
  // Traced runs only.
  std::uint64_t spans = 0;
  double cp_host_s = 0.0;
  obs::CriticalPath cp;
  sim::Duration makespan_ns = 0;
  /// What the critical path must sum to: every root span is one job, so
  /// this is the makespan of a single-job run and the summed job latency
  /// (submit to finish) of a multi-job run.
  sim::Duration root_ns = 0;
};

/// Shared scaffolding of one mode: builds the engine (and the runtime in
/// GFlink mode), runs `body` as the driver, exports the read-outs and
/// times each phase. `body(engine, runtime)` returns the makespan in ns.
template <typename Body>
ModeRun run_mode(const wl::Testbed& tb, const df::EngineConfig& ecfg,
                 const core::GpuManagerConfig& gcfg, wl::Mode mode, Body body) {
  ModeRun out;
  const auto t0 = Clock::now();
  Clock::time_point t_teardown;
  {
    df::Engine engine(ecfg);
    std::unique_ptr<core::GFlinkRuntime> runtime;
    if (mode == wl::Mode::Gpu) {
      wl::ensure_kernels_registered();
      runtime = std::make_unique<core::GFlinkRuntime>(engine, gcfg);
    }
    bool first = true;
    engine.run([&](df::Engine& eng) -> sim::Co<void> {
      if (first) {
        out.setup_host_s = since(t0);
        first = false;
      }
      out.makespan_ns = co_await body(eng, runtime.get());
    });
    out.host_s = since(t0);
    out.events = engine.sim().events_processed();
    out.makespan_s = sim::to_seconds(out.makespan_ns) / tb.scale;
    out.root_ns = out.makespan_ns;

    const auto te = Clock::now();
    engine.export_metrics(*out.registry);
    if (runtime) runtime->export_metrics(*out.registry);
    out.export_host_s = since(te);

    if (tb.trace) {
      out.spans = engine.cluster().spans().recorded();
      const auto tc = Clock::now();
      out.cp = obs::extract_critical_path(engine.cluster().spans());
      out.cp_host_s = since(tc);
    }
    t_teardown = Clock::now();
  }
  out.host_s += since(t_teardown);
  return out;
}

// ---- Workloads ---------------------------------------------------------------

struct RepResult {
  ModeRun flink, gflink;
  Metrics modelled;        // digest-covered, workload specific
  std::vector<std::string> errors;  // output / mechanism check failures
  std::uint64_t jobs_attempted = 0;
  std::uint64_t jobs_failed = 0;
  std::vector<double> job_latency_s;  // tenants: GFlink per-job latencies
  std::vector<double> job_run_s;      // tenants: GFlink per-job run times
};

/// Run a single-job workload driver in Flink mode, then in GFlink mode, each
/// on a fresh testbed; `res` receives the two results.
template <typename Config, typename Result>
RepResult run_both(sim::Co<Result> (*driver)(df::Engine&, core::GFlinkRuntime*,
                                             const wl::Testbed&, wl::Mode, const Config&),
                   const wl::Testbed& tb, const df::EngineConfig& ecfg, const Config& cfg,
                   Result (&res)[2]) {
  RepResult r;
  for (int m = 0; m < 2; ++m) {
    const auto mode = m == 0 ? wl::Mode::Cpu : wl::Mode::Gpu;
    ModeRun run = run_mode(tb, ecfg, wl::make_gpu_config(tb), mode,
                           [&](df::Engine& e, core::GFlinkRuntime* rt) -> sim::Co<sim::Duration> {
                             res[m] = co_await driver(e, rt, tb, mode, cfg);
                             co_return res[m].run.total;
                           });
    for (sim::Duration d : res[m].run.iterations) {
      run.iteration_s.push_back(sim::to_seconds(d) / tb.scale);
    }
    (m == 0 ? r.flink : r.gflink) = std::move(run);
  }
  r.jobs_attempted = 2;
  r.modelled["checksum.flink"] = res[0].run.checksum;
  r.modelled["checksum.gflink"] = res[1].run.checksum;
  return r;
}

/// Fail a check: record a readable message.
void require(RepResult& r, bool ok, const std::string& what) {
  if (!ok) r.errors.push_back(what);
}

bool close_rel(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// KMeans at the paper's size: 210 M points (10 iterations), drawn within
/// +-1% by the seed. The model's cost depends only on sizes, so without
/// this every seed would give the same modelled clock.
wl::kmeans::Config kmeans_config(std::uint64_t seed) {
  wl::kmeans::Config cfg;
  std::uint64_t h = seed;
  const double u = static_cast<double>(sim::splitmix64(h) >> 11) * 0x1.0p-53;
  cfg.points = static_cast<std::uint64_t>(static_cast<double>(cfg.points) * (1.0 + (u - 0.5) / 50));
  cfg.seed = seed;
  return cfg;
}

RepResult run_kmeans(std::uint64_t seed, bool trace) {
  wl::Testbed tb;
  tb.trace = trace;
  wl::kmeans::Result res[2];
  RepResult r = run_both(&wl::kmeans::run, tb, wl::make_engine_config(tb), kmeans_config(seed), res);
  bool agree = res[0].centers.size() == res[1].centers.size() && !res[0].centers.empty();
  for (std::size_t c = 0; agree && c < res[0].centers.size(); ++c) {
    for (int j = 0; j < wl::kDim; ++j) {
      agree = agree && close_rel(res[0].centers[c].x[j], res[1].centers[c].x[j], 1e-4);
    }
  }
  if (!agree) ++r.jobs_failed;
  require(r, agree, "kmeans: GFlink centers disagree with the CPU path");
  return r;
}

RepResult run_pagerank(std::uint64_t seed, bool trace) {
  wl::Testbed tb;
  tb.trace = trace;
  wl::pagerank::Config cfg;
  cfg.pages = 15'000'000;  // the PaperHeadlines size
  cfg.seed = seed;
  wl::pagerank::Result res[2];
  RepResult r = run_both(&wl::pagerank::run, tb, wl::make_engine_config(tb), cfg, res);
  bool agree = res[0].ranks.size() == res[1].ranks.size() && !res[0].ranks.empty();
  for (std::size_t i = 0; agree && i < res[0].ranks.size(); ++i) {
    // f32 contributions are summed in different orders by the two paths.
    agree = std::fabs(res[0].ranks[i] - res[1].ranks[i]) <= 1e-8 && res[1].ranks[i] > 0.0 &&
            res[1].ranks[i] < 1.0;
  }
  if (!agree) ++r.jobs_failed;
  require(r, agree, "pagerank: GFlink ranks disagree with the CPU path");
  return r;
}

/// WordCount with the exchange squeezed: the receiver budget admits almost
/// nothing and the memory/disk spill tiers are small, so buckets spill down
/// the whole memory -> disk -> DFS ladder and are fetched back.
df::EngineConfig spill_engine_config(const wl::Testbed& tb) {
  df::EngineConfig cfg = wl::make_engine_config(tb);
  cfg.shuffle.receiver_budget_bytes = 4 * 1024;
  cfg.shuffle.spill.memory_tier_bytes = 16 * 1024;
  cfg.shuffle.spill.disk_tier_bytes = 64 * 1024;
  return cfg;
}

wl::wordcount::Config wordcount_config(std::uint64_t seed) {
  wl::wordcount::Config cfg;  // 32 GB of Zipf text at full scale
  cfg.seed = seed;
  return cfg;
}

std::uint64_t wordcount_tokens(const wl::Testbed& tb, const wl::wordcount::Config& cfg) {
  const auto bytes = static_cast<std::uint64_t>(static_cast<double>(cfg.text_bytes) * tb.scale);
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(bytes) / cfg.bytes_per_word));
}

RepResult run_wordcount_spill(std::uint64_t seed, bool trace) {
  wl::Testbed tb;
  tb.trace = trace;
  const wl::wordcount::Config cfg = wordcount_config(seed);
  wl::wordcount::Result res[2];
  RepResult r = run_both(&wl::wordcount::run, tb, spill_engine_config(tb), cfg, res);
  const std::uint64_t expected = wordcount_tokens(tb, cfg);
  for (int m = 0; m < 2; ++m) {
    const bool ok = res[m].total_words == expected &&
                    res[m].distinct_words == res[0].distinct_words && res[m].distinct_words > 0;
    if (!ok) ++r.jobs_failed;
    require(r, ok, std::string("wordcount-spill: ") + wl::mode_name(m == 0 ? wl::Mode::Cpu
                                                                           : wl::Mode::Gpu) +
                       " counts are wrong");
  }
  return r;
}

// Tenants: a closed-loop JobService workload. Three tenants weighted 2:1:1
// each run kClients clients; every client submits kRequests PointAdd jobs
// back to back, one large job in every four (the seed picks which), with
// the DRR cost set to the job's size. At most two jobs run at once, so every tenant keeps a
// backlog and dispatch order decides who runs. The GPU boards are shrunk
// so the tenants' cached working sets contend for device memory, and
// quotas are renegotiated while jobs run (every kSqueezePeriod one tenant
// at a time drops to 1/16 of its quota, which leaves it over quota),
// so device pressure evicts the squeezed tenant's entries cross-tenant.
constexpr int kClients = 4;
constexpr int kRequests = 100;  // 1200 jobs: p99 keeps 12 samples beyond it
constexpr std::uint64_t kSmallPoints = 8192;
constexpr std::uint64_t kLargePoints = 32768;
constexpr int kJobPartitions = 16;
constexpr std::uint64_t kDeviceBytes = 64 * 1024;
constexpr std::uint64_t kQuotaBytes = 64 * 1024;
constexpr sim::Duration kSqueezePeriod = sim::micros(500);

struct TenantSpec {
  const char* name;
  double weight;
  std::uint64_t quota;
  int priority;
};
constexpr TenantSpec kTenants[] = {
    {"gold", 2.0, 2 * kQuotaBytes, 1},
    {"silver", 1.0, kQuotaBytes, 0},
    {"bronze", 1.0, kQuotaBytes, 0},
};

struct JobRecord {
  int tenant = 0;
  double cost = 0.0;
  sim::Time enqueued = 0;
  sim::Time dispatched = 0;
  sim::Time completed = 0;
  bool ok = false;
};

/// Every client's run of four requests holds exactly one large job; the seed
/// picks which one, so the job mix is the same for every seed.
std::uint64_t job_points(std::uint64_t seed, int tenant, int client, int request) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(tenant) * 1'000'003 +
                    static_cast<std::uint64_t>(client) * 10'007 +
                    static_cast<std::uint64_t>(request / 4);
  return sim::splitmix64(h) % 4 == static_cast<std::uint64_t>(request % 4) ? kLargePoints
                                                                            : kSmallPoints;
}

struct TenantsOutcome {
  std::vector<JobRecord> jobs;
  std::vector<svc::JobService::TenantSnapshot> snapshot;
  std::uint64_t rejected = 0;
};

sim::Co<sim::Duration> tenants_driver(df::Engine& eng, core::GFlinkRuntime* runtime,
                                      wl::Mode mode, std::uint64_t seed, TenantsOutcome& out) {
  svc::ServiceConfig scfg;
  scfg.max_pending = 64;
  scfg.max_total_in_flight = 2;
  svc::JobService service(eng, runtime, scfg);
  for (const auto& t : kTenants) {
    service.add_tenant(svc::TenantConfig{t.name, t.weight, 0, t.quota, t.priority});
  }
  out.jobs.reserve(std::size(kTenants) * kClients * kRequests);

  // The squeezer outlives this frame by up to one period, so it co-owns the
  // stop flag.
  auto done = std::make_shared<bool>(false);
  if (runtime != nullptr) {
    eng.sim().spawn([](df::Engine& e, core::GFlinkRuntime& rt,
                       std::shared_ptr<const bool> stop) -> sim::Co<void> {
      for (std::size_t round = 0; !*stop; ++round) {
        co_await e.sim().delay(kSqueezePeriod);
        const std::size_t squeezed = round % std::size(kTenants);
        for (std::size_t t = 0; t < std::size(kTenants); ++t) {
          const std::uint64_t q = kTenants[t].quota;
          rt.set_tenant_quota(kTenants[t].name, t == squeezed ? q / 16 : q);
        }
      }
    }(eng, *runtime, done));
  }

  const sim::Time start = eng.now();
  sim::WaitGroup wg(eng.sim());
  wg.add(static_cast<int>(std::size(kTenants)));
  for (int t = 0; t < static_cast<int>(std::size(kTenants)); ++t) {
    eng.sim().spawn([](df::Engine& e, svc::JobService& s, int tenant, wl::Mode md,
                       std::uint64_t sd, TenantsOutcome& o, sim::WaitGroup& join) -> sim::Co<void> {
      co_await sim::run_closed_loop(
          e.sim(), kClients, kRequests, 0, [&](const sim::ClosedLoopClient& c) -> sim::Co<void> {
            const std::uint64_t n = job_points(sd, tenant, c.client, c.request);
            const double cost = static_cast<double>(n) / static_cast<double>(kSmallPoints);
            auto counted = std::make_shared<std::uint64_t>(0);
            const std::uint64_t data_seed = sd + static_cast<std::uint64_t>(c.request);
            auto ticket = s.submit(
                kTenants[tenant].name,
                std::string(kTenants[tenant].name) + "-" + std::to_string(c.client) + "-" +
                    std::to_string(c.request),
                cost, [&e, n, md, data_seed, counted](df::Job& job) -> sim::Co<void> {
                  auto src = df::DataSet<wl::Pt>::from_generator(
                      e, &wl::pt_desc(), kJobPartitions,
                      [n, data_seed](int part, std::vector<wl::Pt>& rows) {
                        for (std::uint64_t i = static_cast<std::uint64_t>(part); i < n;
                             i += kJobPartitions) {
                          rows.push_back(wl::pointadd::pt_at(i, data_seed));
                        }
                      });
                  *counted = co_await wl::pointadd::mapper(src, md, 0).count(job);
                });
            co_await ticket->wait();
            JobRecord rec;
            rec.tenant = tenant;
            rec.cost = cost;
            rec.enqueued = ticket->enqueued_at;
            rec.dispatched = ticket->dispatched_at;
            rec.completed = ticket->completed_at;
            rec.ok = ticket->state() == svc::TicketState::Completed && *counted == n;
            o.jobs.push_back(rec);
          });
      join.done();
    }(eng, service, t, mode, seed, out, wg));
  }
  co_await wg.wait();
  co_await service.drain();
  *done = true;
  sim::Time last = start;
  for (const auto& j : out.jobs) last = std::max(last, j.completed);
  out.snapshot = service.snapshot();
  out.rejected = service.rejected();
  co_return last - start;
}

RepResult run_tenants(std::uint64_t seed, bool trace) {
  wl::Testbed tb;
  tb.workers = 2;
  tb.trace = trace;
  core::GpuManagerConfig gcfg = wl::make_gpu_config(tb);
  for (auto& d : gcfg.devices) d.device_memory = kDeviceBytes;
  gcfg.cache_region_bytes = kDeviceBytes;

  RepResult r;
  TenantsOutcome res[2];
  for (int m = 0; m < 2; ++m) {
    const auto mode = m == 0 ? wl::Mode::Cpu : wl::Mode::Gpu;
    ModeRun run = run_mode(tb, wl::make_engine_config(tb), gcfg, mode,
                           [&](df::Engine& e, core::GFlinkRuntime* rt) -> sim::Co<sim::Duration> {
                             co_return co_await tenants_driver(e, rt, mode, seed, res[m]);
                           });
    run.root_ns = 0;
    for (const auto& j : res[m].jobs) run.root_ns += j.completed - j.enqueued;
    (m == 0 ? r.flink : r.gflink) = std::move(run);
  }

  for (int m = 0; m < 2; ++m) {
    r.jobs_attempted += res[m].jobs.size();
    std::uint64_t bad = res[m].rejected;
    for (const auto& j : res[m].jobs) bad += j.ok ? 0 : 1;
    r.jobs_failed += bad;
    require(r, bad == 0, std::string("tenants: ") + std::to_string(bad) + " failed jobs in " +
                             wl::mode_name(m == 0 ? wl::Mode::Cpu : wl::Mode::Gpu) + " mode");
  }

  // GFlink-mode service metrics. Latency is submit -> finish.
  const TenantsOutcome& g = res[1];
  for (const auto& j : g.jobs) {
    r.job_latency_s.push_back(sim::to_seconds(j.completed - j.enqueued) / tb.scale);
    r.job_run_s.push_back(sim::to_seconds(j.completed - j.dispatched) / tb.scale);
  }
  // Throughput share over the contended window: up to the moment the first
  // tenant completes its last job, every tenant still has a backlog, so
  // DRR alone sets the shares. Work is counted in declared cost units.
  sim::Time window_end = std::numeric_limits<sim::Time>::max();
  for (int t = 0; t < static_cast<int>(std::size(kTenants)); ++t) {
    sim::Time last = 0;
    for (const auto& j : g.jobs) {
      if (j.tenant == t) last = std::max(last, j.completed);
    }
    window_end = std::min(window_end, last);
  }
  double work[std::size(kTenants)] = {};
  double total_work = 0.0, total_weight = 0.0;
  for (const auto& j : g.jobs) {
    if (j.completed > window_end) continue;
    work[j.tenant] += j.cost;
    total_work += j.cost;
  }
  for (const auto& t : kTenants) total_weight += t.weight;
  double share_error = 0.0;
  for (std::size_t t = 0; t < std::size(kTenants); ++t) {
    const double share = total_work > 0 ? work[t] / total_work : 0.0;
    share_error = std::max(share_error, std::fabs(share - kTenants[t].weight / total_weight));
  }
  r.modelled["share_error"] = share_error;
  r.modelled["jobs_completed"] = static_cast<double>(g.jobs.size());
  double qwait_p99 = 0.0, run_p99 = 0.0;
  for (const auto& s : g.snapshot) {
    qwait_p99 = std::max(qwait_p99, s.queue_wait_ns.p99);
    run_p99 = std::max(run_p99, s.run_ns.p99);
  }
  r.modelled["service.queue_wait_p99_s"] = qwait_p99 / 1e9 / tb.scale;
  r.modelled["service.run_p99_s"] = run_p99 / 1e9 / tb.scale;
  return r;
}

// ---- Read-outs -----------------------------------------------------------------

/// Sum of a counter over the series whose `key` label contains `value`.
double sum_where(const obs::MetricsRegistry& reg, const std::string& name, const std::string& key,
                 const std::string& value) {
  double s = 0.0;
  for (const auto& [id, c] : reg.counters()) {
    if (id.name != name) continue;
    auto it = id.labels.find(key);
    if (it != id.labels.end() && it->second.find(value) != std::string::npos) s += c.value();
  }
  return s;
}

/// A per-pipe counter summed over the network pipes (NIC egress/ingress and
/// RDMA), leaving out the disk pipes.
double net_pipes(const obs::MetricsRegistry& reg, const std::string& name) {
  return reg.counter_sum(name) - sum_where(reg, name, "pipe", "/disk_");
}

double hist_quantile(const obs::MetricsRegistry& reg, const std::string& name, double q) {
  std::unique_ptr<sim::Histogram> merged;
  for (const auto& [id, h] : reg.histograms()) {
    if (id.name != name) continue;
    if (!merged) {
      merged = std::make_unique<sim::Histogram>(h);
    } else {
      merged->merge(h);
    }
  }
  return merged ? merged->quantile(q) : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer modelled numbers from the Engine/GFlinkRuntime exports, summed
/// over both modes. `scale` converts virtual durations to full-scale s.
Metrics layer_metrics(const ModeRun& flink, const ModeRun& gflink, double scale) {
  obs::MetricsRegistry reg;
  reg.merge_from(*flink.registry);
  reg.merge_from(*gflink.registry);
  const auto secs = [scale](double ns) { return ns / 1e9 / scale; };
  Metrics m;

  m["dataflow.stages"] = reg.counter_sum("engine.stages");
  m["dataflow.tasks"] = reg.counter_sum("engine.stage_tasks");
  m["dataflow.records_in"] = reg.counter_sum("engine.records_in");
  m["dataflow.task_busy_s"] = secs(reg.counter_sum("engine.task_busy_ns"));
  m["dataflow.stage_p99_s"] = secs(hist_quantile(reg, "engine_stage_duration_ns", 0.99));
  m["dataflow.tasks_failed"] = reg.counter_sum("engine_tasks_failed_total");
  m["dataflow.tasks_retried"] = reg.counter_sum("engine_tasks_retried_total");

  m["shuffle.bytes"] = reg.counter_sum("shuffle.bytes") + reg.counter_sum("shuffle.one_sided_bytes");
  m["shuffle.writes"] = reg.counter_sum("shuffle.blocks") + reg.counter_sum("shuffle.one_sided_writes");
  m["shuffle.sessions"] = reg.counter_sum("shuffle.sessions");
  m["net.bytes"] = reg.counter_sum("net.bytes");
  m["net.busy_s"] = secs(net_pipes(reg, "net_pipe_busy_ns_total"));
  m["net.queue_wait_s"] = secs(net_pipes(reg, "net_pipe_queue_wait_ns_total"));
  m["net.rdma_bytes"] = reg.counter_sum("net.rdma_bytes");

  const double offload = reg.counter_sum("spill_offload_bytes_total");
  m["spill.offload_bytes"] = offload;
  double stored = 0.0;
  for (const char* tier : {"memory", "disk", "dfs"}) {
    const double b = sum_where(reg, "spill_stored_bytes_total", "tier", tier);
    m[std::string("spill.stored_bytes.") + tier] = b;
    stored += b;
  }
  m["spill.stored_ratio"] = ratio(stored, offload);
  m["spill.producer_stall_s"] = secs(reg.counter_sum("spill_producer_stall_ns_total"));
  m["spill.fetch_wait_s"] = secs(reg.counter_sum("spill_fetch_wait_ns_total"));

  const double local = reg.counter_sum("dfs.local_reads");
  m["dfs.bytes_read"] = reg.counter_sum("dfs.bytes_read");
  m["dfs.bytes_written"] = reg.counter_sum("dfs.bytes_written");
  m["dfs.local_read_ratio"] = ratio(local, local + reg.counter_sum("dfs.remote_reads"));

  m["gpu.h2d_busy_s"] = secs(reg.counter_sum("gpu_h2d_busy_ns_total"));
  m["gpu.kernel_busy_s"] = secs(reg.counter_sum("gpu_kernel_busy_ns_total"));
  m["gpu.d2h_busy_s"] = secs(reg.counter_sum("gpu_d2h_busy_ns_total"));
  m["gpu.kernels"] = reg.counter_sum("gpu_kernels_total");
  m["gpu.h2d_bytes"] = reg.counter_sum("gpu_bytes_h2d_total");
  // Cluster-wide copy/compute overlap: overlapped time over the time that
  // could have been hidden, per device as GpuDevice::overlap_efficiency.
  double overlap = 0.0, hideable = 0.0;
  for (const auto& [id, c] : reg.counters()) {
    if (id.name != "gpu_copy_compute_overlap_ns_total") continue;
    const auto& l = id.labels;
    overlap += c.value();
    hideable += std::min(reg.counter_value("gpu_h2d_busy_ns_total", l) +
                             reg.counter_value("gpu_d2h_busy_ns_total", l),
                         reg.counter_value("gpu_kernel_busy_ns_total", l));
  }
  m["gpu.overlap_eff"] = ratio(overlap, hideable);

  const double hits = reg.counter_sum("gpu_cache_hits_total");
  const double misses = reg.counter_sum("gpu_cache_misses_total");
  const double loc_hits = reg.counter_sum("gstream_locality_hits_total");
  m["core.cache_hit_ratio"] = ratio(hits, hits + misses);
  m["core.cache_evictions"] = reg.counter_sum("gpu_cache_evictions_total");
  m["core.cross_tenant_evictions"] = reg.counter_sum("gpu_cache_cross_tenant_evictions_total");
  m["core.locality_hit_ratio"] =
      ratio(loc_hits, loc_hits + reg.counter_sum("gstream_locality_misses_total"));
  m["core.steals"] = reg.counter_sum("gstream_steals_total");
  m["core.oom_retries"] = reg.counter_sum("gstream_oom_retries_total");
  m["core.chunk_fallbacks"] = reg.counter_sum("gstream_chunk_fallbacks_total");
  m["core.gwork_p99_s"] = secs(hist_quantile(reg, "gwork_latency_ns", 0.99));
  m["core.queue_depth_p99"] = hist_quantile(reg, "gstream_queue_depth", 0.99);

  m["service.completed"] = reg.counter_sum("service_completed_total");
  m["service.rejected"] = reg.counter_sum("service_rejected_total");
  return m;
}

/// Digest of every modelled number: FNV-1a over "name=%a;" in name order.
std::string digest(const Metrics& modelled) {
  std::uint64_t h = 1469598103934665603ULL;
  char buf[160];
  for (const auto& [name, v] : modelled) {
    const int n = std::snprintf(buf, sizeof buf, "%s=%a;", name.c_str(), v);
    for (int i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ULL;
    }
  }
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

volatile double g_sink = 0.0;  // keeps the timed generator calls observable

/// Host cost of the workload's public input generator over the run's index
/// range, in ns per record (traced runs only).
double generator_ns_per_record(const std::string& workload, std::uint64_t seed) {
  const wl::Testbed tb;
  double sink = 0.0;
  std::uint64_t records = 0;
  const auto t0 = Clock::now();
  if (workload == "kmeans") {
    const wl::kmeans::Config cfg = kmeans_config(seed);
    records = static_cast<std::uint64_t>(static_cast<double>(cfg.points) * tb.scale);
    for (std::uint64_t i = 0; i < records; ++i) sink += wl::kmeans::point_at(i, seed).x[0];
  } else if (workload == "pagerank") {
    records = static_cast<std::uint64_t>(15'000'000 * tb.scale);
    for (std::uint64_t i = 0; i < records; ++i) {
      sink += static_cast<double>(wl::pagerank::page_at(i, records, seed).out[0]);
    }
  } else if (workload == "wordcount-spill") {
    const wl::wordcount::Config cfg = wordcount_config(seed);
    records = wordcount_tokens(tb, cfg);
    const sim::ZipfTable zipf(cfg.vocabulary, cfg.zipf_s);
    for (std::uint64_t i = 0; i < records; ++i) {
      std::uint64_t h = i * 1000003 + seed;
      sink += static_cast<double>(
          zipf.sample_u(static_cast<double>(sim::splitmix64(h) >> 11) * 0x1.0p-53));
    }
  } else {
    records = std::size(kTenants) * kClients * kRequests * kSmallPoints;
    for (std::uint64_t i = 0; i < records; ++i) sink += wl::pointadd::pt_at(i, seed).x;
  }
  const double s = since(t0);
  g_sink = sink;
  return records > 0 ? s * 1e9 / static_cast<double>(records) : 0.0;
}

// ---- Output --------------------------------------------------------------------

void print_metrics(const char* key, const Metrics& m, bool last) {
  std::printf("  \"%s\": {", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::printf("}%s\n", last ? "" : ",");
}

void print_array(const char* key, const std::vector<double>& v) {
  std::printf("  \"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) std::printf("%s%.17g", i ? ", " : "", v[i]);
  std::printf("],\n");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <kmeans|pagerank|wordcount-spill|"
               "tenants> --seed <n> --trace <0|1> --seconds <s>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  double budget_s = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--trace") {
      trace = std::strcmp(v, "1") == 0;
    } else if (a == "--seconds") {
      budget_s = std::strtod(v, nullptr);
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  RepResult (*runner)(std::uint64_t, bool) = nullptr;
  if (workload == "kmeans") runner = &run_kmeans;
  if (workload == "pagerank") runner = &run_pagerank;
  if (workload == "wordcount-spill") runner = &run_wordcount_spill;
  if (workload == "tenants") runner = &run_tenants;
  if (runner == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  if (trace) wrap_kernels();
  const double scale = wl::Testbed{}.scale;

  std::vector<double> host_flink, host_gflink, setup, export_s, cp_s;
  double rss_mb = 0.0;
  std::string first_digest;
  Metrics modelled, cp;
  RepResult first;
  std::vector<std::string> errors;
  std::uint64_t spans = 0, events = 0;
  int reps = 0;
  const auto t_start = Clock::now();
  double last_rep_s = 0.0;
  // Stop before a repetition that would overrun the budget.
  while (reps < kMinReps || since(t_start) + last_rep_s <= budget_s) {
    const auto t_rep = Clock::now();
    RepResult r = runner(seed, trace);
    last_rep_s = since(t_rep);
    if (reps == 0) rss_mb = peak_rss_mb();
    host_flink.push_back(r.flink.host_s);
    host_gflink.push_back(r.gflink.host_s);
    setup.push_back(r.flink.setup_host_s);
    setup.push_back(r.gflink.setup_host_s);
    export_s.push_back(r.flink.export_host_s + r.gflink.export_host_s);
    cp_s.push_back(r.flink.cp_host_s + r.gflink.cp_host_s);

    Metrics mod = r.modelled;
    mod["flink_s"] = r.flink.makespan_s;
    mod["gflink_s"] = r.gflink.makespan_s;
    for (std::size_t i = 0; i < r.gflink.iteration_s.size(); ++i) {
      char key[48];
      std::snprintf(key, sizeof key, "iteration_s.%02zu", i);
      mod[key] = r.gflink.iteration_s[i];
    }
    for (const auto& [k, v] : layer_metrics(r.flink, r.gflink, scale)) mod[k] = v;
    const std::string d = digest(mod);
    ++reps;
    if (reps > 1) {
      if (d != first_digest) {
        errors.push_back("modelled numbers changed between repetitions (nondeterminism)");
      }
      continue;
    }
    first_digest = d;
    modelled = std::move(mod);
    errors = r.errors;
    events = r.flink.events + r.gflink.events;
    if (trace) {
      spans = r.flink.spans + r.gflink.spans;
      for (int m = 0; m < 2; ++m) {
        const ModeRun& run = m == 0 ? r.flink : r.gflink;
        const char* mode = m == 0 ? "flink" : "gflink";
        sim::Duration sum = 0;
        for (std::size_t c = 0; c < obs::kSpanCategories; ++c) {
          const sim::Duration ns = run.cp.by_category[c];
          sum += ns;
          cp[std::string("cp.") + mode + "." +
             obs::span_category_name(static_cast<obs::SpanCategory>(c)) + "_s"] =
              sim::to_seconds(ns) / scale;
        }
        if (sum != run.root_ns) {
          errors.push_back(std::string("critical path of ") + mode + " sums to " +
                           std::to_string(sum) + " ns, its jobs took " +
                           std::to_string(run.root_ns) + " ns");
        }
      }
    }
    first = std::move(r);
  }

  // Host time, set-up time and events are reported per repetition; run.py
  // combines them across its processes.
  Metrics hostm;
  hostm["peak_rss_mb"] = rss_mb;
  hostm["sim.events"] = static_cast<double>(events);
  if (trace) {
    hostm["obs.spans"] = static_cast<double>(spans);
    hostm["obs.critical_path_host_s"] = median(cp_s);
    hostm["obs.export_host_s"] = median(export_s);
    hostm["workloads.kernel_host_s"] = g_kernels.seconds / reps;
    hostm["workloads.kernel_calls"] = static_cast<double>(g_kernels.calls) / reps;
    hostm["workloads.gen_host_ns_per_record"] = generator_ns_per_record(workload, seed);
  }

  std::printf("{\n  \"workload\": \"%s\",\n  \"seed\": %" PRIu64 ",\n  \"trace\": %d,\n",
              workload.c_str(), seed, trace ? 1 : 0);
  std::printf("  \"reps\": %d,\n  \"digest\": \"%s\",\n", reps, first_digest.c_str());
  std::printf("  \"attempted\": %" PRIu64 ",\n  \"failed\": %" PRIu64 ",\n",
              first.jobs_attempted, first.jobs_failed);
  std::printf("  \"errors\": [");
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", errors[i].c_str());
  }
  std::printf("],\n");
  print_array("job_latency_s", first.job_latency_s);
  print_array("job_run_s", first.job_run_s);
  print_array("host_flink_s", host_flink);
  print_array("host_gflink_s", host_gflink);
  print_array("setup_s", setup);
  print_metrics("host", hostm, false);
  print_metrics("critical_path", cp, false);
  print_metrics("modelled", modelled, true);
  std::printf("}\n");
  return 0;
}
