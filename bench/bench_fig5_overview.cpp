// Figure 5 — average running time and speedup on the 10-slave cluster for
// KMeans (a), PageRank (b) and WordCount (c) over the five Table-1 input
// sizes, original Flink (CPU) vs GFlink.
//
// Paper shapes to reproduce: KMeans ~5x, PageRank ~3.5x, WordCount ~1.1x;
// speedup grows with input size (Observation 3).
#include "bench_common.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/wordcount.hpp"

namespace {

using namespace gflink::bench;

void Fig5a_KMeans(benchmark::State& state) {
  wl::Testbed tb;  // 10 workers x 2 C2050
  wl::kmeans::Config cfg;
  cfg.points = static_cast<std::uint64_t>(state.range(0)) * 1'000'000ULL;
  for (auto _ : state) {
    run_pair(state, &wl::kmeans::run, tb, cfg);
  }
  state.SetLabel("Fig5a points(M)=" + std::to_string(state.range(0)));
}
BENCHMARK(Fig5a_KMeans)
    ->Arg(150)->Arg(180)->Arg(210)->Arg(240)->Arg(270)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

void Fig5b_PageRank(benchmark::State& state) {
  wl::Testbed tb;
  wl::pagerank::Config cfg;
  cfg.pages = static_cast<std::uint64_t>(state.range(0)) * 1'000'000ULL;
  for (auto _ : state) {
    run_pair(state, &wl::pagerank::run, tb, cfg);
  }
  state.SetLabel("Fig5b pages(M)=" + std::to_string(state.range(0)));
}
BENCHMARK(Fig5b_PageRank)
    ->Arg(5)->Arg(10)->Arg(15)->Arg(20)->Arg(25)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

void Fig5c_WordCount(benchmark::State& state) {
  wl::Testbed tb;
  wl::wordcount::Config cfg;
  cfg.text_bytes = static_cast<std::uint64_t>(state.range(0)) << 30;
  for (auto _ : state) {
    run_pair(state, &wl::wordcount::run, tb, cfg);
  }
  state.SetLabel("Fig5c text(GB)=" + std::to_string(state.range(0)));
}
BENCHMARK(Fig5c_WordCount)
    ->Arg(24)->Arg(32)->Arg(40)->Arg(48)->Arg(56)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

GFLINK_BENCH_MAIN(fig5_overview);
