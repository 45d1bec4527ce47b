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

void Fig5a_KMeans(CaseState& state) {
  wl::Testbed tb;  // 10 workers x 2 C2050
  wl::kmeans::Config cfg;
  cfg.points = static_cast<std::uint64_t>(state.args[0]) * 1'000'000ULL;
  run_pair(state, &wl::kmeans::run, tb, cfg);
  state.label = "Fig5a points(M)=" + std::to_string(state.args[0]);
}

void Fig5b_PageRank(CaseState& state) {
  wl::Testbed tb;
  wl::pagerank::Config cfg;
  cfg.pages = static_cast<std::uint64_t>(state.args[0]) * 1'000'000ULL;
  run_pair(state, &wl::pagerank::run, tb, cfg);
  state.label = "Fig5b pages(M)=" + std::to_string(state.args[0]);
}

void Fig5c_WordCount(CaseState& state) {
  wl::Testbed tb;
  wl::wordcount::Config cfg;
  cfg.text_bytes = static_cast<std::uint64_t>(state.args[0]) << 30;
  run_pair(state, &wl::wordcount::run, tb, cfg);
  state.label = "Fig5c text(GB)=" + std::to_string(state.args[0]);
}

const Case kCases[] = {
    {"Fig5a_KMeans", Fig5a_KMeans, {{150}, {180}, {210}, {240}, {270}}},
    {"Fig5b_PageRank", Fig5b_PageRank, {{5}, {10}, {15}, {20}, {25}}},
    {"Fig5c_WordCount", Fig5c_WordCount, {{24}, {32}, {40}, {48}, {56}}},
};

}  // namespace

GFLINK_BENCH_MAIN(fig5_overview, kCases);
