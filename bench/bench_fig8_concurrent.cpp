// Figure 8(c)/(d) — concurrent multi-application execution.
//
// Three applications (KMeans, SpMV, PointAdd) are submitted to GFlink
// simultaneously and compared against running each exclusively:
//  (c) a single node with parallelism 1 per application (one producer
//      task, two GPUs consuming);
//  (d) the 10-slave cluster with parallelism 10 per application.
//
// Paper shapes: on one node the concurrent makespan is slightly more than
// the sum of the exclusive runtimes (GPU sharing works; extra cost from
// contention); on the cluster the per-application speedup under
// concurrency drops to roughly a quarter of the exclusive speedup (I/O,
// network and HDFS contention).
#include "bench_common.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/pointadd.hpp"
#include "workloads/spmv.hpp"

namespace {

using namespace gflink::bench;
using gflink::sim::Co;

struct Apps {
  wl::kmeans::Config kmeans;
  wl::spmv::Config spmv;
  wl::pointadd::Config pointadd;
};

Apps make_apps(int parallelism) {
  Apps a;
  a.kmeans.points = 60'000'000;
  a.kmeans.iterations = 5;
  a.kmeans.partitions = parallelism;
  a.kmeans.write_output = false;
  a.spmv.matrix_bytes = 2ULL << 30;
  a.spmv.iterations = 5;
  a.spmv.partitions = parallelism;
  a.spmv.write_output = false;
  a.pointadd.points = 200'000'000;
  a.pointadd.iterations = 3;
  a.pointadd.partitions = parallelism;
  return a;
}

/// Exclusive: each app in its own fresh engine; returns the three times.
std::array<double, 3> run_exclusive(const wl::Testbed& tb, const Apps& apps) {
  std::array<double, 3> out{};
  out[0] = full_seconds(run_workload(&wl::kmeans::run, tb, wl::Mode::Gpu, apps.kmeans).run.total,
                        tb);
  out[1] =
      full_seconds(run_workload(&wl::spmv::run, tb, wl::Mode::Gpu, apps.spmv).run.total, tb);
  out[2] = full_seconds(
      run_workload(&wl::pointadd::run, tb, wl::Mode::Gpu, apps.pointadd).run.total, tb);
  return out;
}

/// One app of the concurrent run: its full-scale time lands in `slot`.
template <typename ConfigT, typename ResultT>
Co<void> run_app(wl::Driver<ConfigT, ResultT> driver, df::Engine& e, core::GFlinkRuntime* rt,
                 const wl::Testbed& t, const ConfigT& config, double& slot,
                 gflink::sim::WaitGroup& w) {
  const ResultT r = co_await driver(e, rt, t, wl::Mode::Gpu, config);
  slot = full_seconds(r.run.total, t);
  w.done();
}

/// Concurrent: all three drivers in one engine, sharing slots, network,
/// DFS and GPUs. Returns the three app times plus the makespan.
std::array<double, 4> run_concurrent(const wl::Testbed& tb, const Apps& apps) {
  wl::Session session(tb, wl::Mode::Gpu);
  core::GFlinkRuntime* runtime = session.runtime();
  std::array<double, 4> out{};
  session.engine().run([&](df::Engine& eng) -> Co<void> {
    gflink::sim::WaitGroup wg(eng.sim());
    wg.add(3);
    eng.sim().spawn(run_app(&wl::kmeans::run, eng, runtime, tb, apps.kmeans, out[0], wg));
    eng.sim().spawn(run_app(&wl::spmv::run, eng, runtime, tb, apps.spmv, out[1], wg));
    eng.sim().spawn(run_app(&wl::pointadd::run, eng, runtime, tb, apps.pointadd, out[2], wg));
    co_await wg.wait();
    out[3] = full_seconds(eng.now(), tb);
  });
  return out;
}

void run_case(CaseState& state, const wl::Testbed& tb, int parallelism, const char* figure) {
  const Apps apps = make_apps(parallelism);
  auto exclusive = run_exclusive(tb, apps);
  auto concurrent = run_concurrent(tb, apps);
  const double exclusive_sum = exclusive[0] + exclusive[1] + exclusive[2];
  state.counters["excl_kmeans_s"] = exclusive[0];
  state.counters["excl_spmv_s"] = exclusive[1];
  state.counters["excl_pointadd_s"] = exclusive[2];
  state.counters["conc_kmeans_s"] = concurrent[0];
  state.counters["conc_spmv_s"] = concurrent[1];
  state.counters["conc_pointadd_s"] = concurrent[2];
  state.counters["exclusive_sum_s"] = exclusive_sum;
  state.counters["concurrent_makespan_s"] = concurrent[3];
  state.counters["makespan_vs_sum"] = concurrent[3] / exclusive_sum;
  std::printf(
      "%s exclusive: kmeans=%.1f spmv=%.1f pointadd=%.1f (sum %.1f) | "
      "concurrent: kmeans=%.1f spmv=%.1f pointadd=%.1f (makespan %.1f)\n",
      figure, exclusive[0], exclusive[1], exclusive[2], exclusive_sum, concurrent[0],
      concurrent[1], concurrent[2], concurrent[3]);
  state.label = figure;
}

void Fig8c_ConcurrentSingleNode(CaseState& state) {
  wl::Testbed tb;
  tb.workers = 1;
  run_case(state, tb, 1, "Fig8c single-node");
}

void Fig8d_ConcurrentCluster(CaseState& state) {
  wl::Testbed tb;  // 10 workers
  run_case(state, tb, 10, "Fig8d cluster");
}

const Case kCases[] = {
    {"Fig8c_ConcurrentSingleNode", Fig8c_ConcurrentSingleNode, {}},
    {"Fig8d_ConcurrentCluster", Fig8d_ConcurrentCluster, {}},
};

}  // namespace

GFLINK_BENCH_MAIN(fig8_concurrent, kCases);
