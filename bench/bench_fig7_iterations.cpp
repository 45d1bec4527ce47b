// Figure 7(a)/(b) — per-iteration running time.
//
//  (a) KMeans, 210 M points, a 3-slave cluster: CPU vs GFlink with 1 and
//      2 GPUs per node. First iteration includes the DFS read (and the
//      first H2D transfers on GPUs); middle iterations run from memory /
//      GPU cache; the last iteration adds the DFS write.
//  (b) SpMV, 1.0 GB matrix, a single machine: the paper's headline shape —
//      ~2.5x speedup in the first iteration, ~10x afterwards (matrix
//      cached on the GPU), and 2 GPUs beating 1 on the middle iterations.
//
// Each case's counters carry the first, *middle* (steady-state) and last
// iteration; the full per-iteration series is printed to stdout.
#include "bench_common.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/spmv.hpp"

namespace {

using namespace gflink::bench;

void print_series(const char* name, const std::vector<gflink::sim::Duration>& iters,
                  const wl::Testbed& tb) {
  std::printf("%-28s per-iteration full-scale seconds:", name);
  for (auto d : iters) std::printf(" %8.2f", full_seconds(d, tb));
  std::printf("\n");
}

double middle_iteration(const std::vector<gflink::sim::Duration>& iters, const wl::Testbed& tb) {
  return full_seconds(iters[iters.size() / 2], tb);
}

void Fig7a_KMeansIterations(CaseState& state) {
  wl::Testbed tb;
  tb.workers = 3;
  tb.gpus_per_worker = static_cast<int>(state.args[0]);  // 0 = CPU
  wl::kmeans::Config cfg;
  cfg.points = 210'000'000;
  cfg.iterations = 8;
  const bool gpu = state.args[0] > 0;
  if (!gpu) tb.gpus_per_worker = 2;  // unused
  auto r = run_workload(&wl::kmeans::run, tb, gpu ? wl::Mode::Gpu : wl::Mode::Cpu, cfg);
  state.counters["first_iter_s"] = full_seconds(r.run.iterations.front(), tb);
  state.counters["middle_iter_s"] = middle_iteration(r.run.iterations, tb);
  state.counters["last_iter_s"] = full_seconds(r.run.iterations.back(), tb);
  print_series(gpu ? (state.args[0] == 1 ? "Fig7a GFlink 1 GPU/node" : "Fig7a GFlink 2 GPU/node")
                   : "Fig7a Flink CPU",
               r.run.iterations, tb);
}

void Fig7b_SpmvIterations(CaseState& state) {
  wl::Testbed tb;
  tb.workers = 1;  // single machine, colocated master
  tb.gpus_per_worker = state.args[0] > 0 ? static_cast<int>(state.args[0]) : 2;
  wl::spmv::Config cfg;
  cfg.matrix_bytes = 1ULL << 30;  // 1.0 GB matrix, 123 MB-class vector
  cfg.iterations = 8;
  const bool gpu = state.args[0] > 0;
  auto r = run_workload(&wl::spmv::run, tb, gpu ? wl::Mode::Gpu : wl::Mode::Cpu, cfg);
  state.counters["first_iter_s"] = full_seconds(r.run.iterations.front(), tb);
  state.counters["middle_iter_s"] = middle_iteration(r.run.iterations, tb);
  state.counters["last_iter_s"] = full_seconds(r.run.iterations.back(), tb);
  print_series(gpu ? (state.args[0] == 1 ? "Fig7b GFlink 1 GPU" : "Fig7b GFlink 2 GPUs")
                   : "Fig7b Flink CPU",
               r.run.iterations, tb);
}

const Case kCases[] = {
    {"Fig7a_KMeansIterations", Fig7a_KMeansIterations, {{0}, {1}, {2}}},
    {"Fig7b_SpmvIterations", Fig7b_SpmvIterations, {{0}, {1}, {2}}},
};

}  // namespace

GFLINK_BENCH_MAIN(fig7_iterations, kCases);
