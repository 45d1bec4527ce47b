// Figure 8(a) — effect of the GPU cache scheme on SpMV.
//
// The same iterative SpMV run twice on GFlink: with the per-job GPU cache
// region enabled (matrix + vector cached after the first touch) and with
// it disabled (every block re-transferred over PCIe each iteration).
// Paper shape: without the cache, per-iteration time rises markedly.
#include "bench_common.hpp"
#include "workloads/spmv.hpp"

namespace {

using namespace gflink::bench;

void Fig8a_CacheScheme(CaseState& state) {
  const bool cached = state.args[0] != 0;
  wl::Testbed tb;
  tb.workers = 1;
  wl::spmv::Config cfg;
  cfg.matrix_bytes = 1ULL << 30;
  cfg.iterations = 8;
  cfg.gpu_cache = cached;
  auto r = run_workload(&wl::spmv::run, tb, wl::Mode::Gpu, cfg);
  state.counters["middle_iter_s"] = full_seconds(r.run.iterations[cfg.iterations / 2], tb);
  state.counters["total_s"] = full_seconds(r.run.total, tb);
  std::printf("%-24s per-iteration seconds:", cached ? "Fig8a cache ON" : "Fig8a cache OFF");
  for (auto d : r.run.iterations) std::printf(" %7.2f", full_seconds(d, tb));
  std::printf("\n");
  state.label = cached ? "cache=on" : "cache=off";
}

const Case kCases[] = {
    {"Fig8a_CacheScheme", Fig8a_CacheScheme, {{1}, {0}}},
};

}  // namespace

GFLINK_BENCH_MAIN(fig8_cache, kCases);
