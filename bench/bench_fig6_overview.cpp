// Figure 6 — average running time and speedup on the 10-slave cluster for
// SpMV (a), LinearRegression (b) and ConnectedComponents (c) over the
// Table-1 input sizes, original Flink (CPU) vs GFlink.
//
// Paper shapes: SpMV ~6.3x (matrix cached on GPUs), LinearRegression ~9.2x
// (compute-bound), ConnectedComponents ~4.8x.
#include "bench_common.hpp"
#include "workloads/concomp.hpp"
#include "workloads/linreg.hpp"
#include "workloads/spmv.hpp"

namespace {

using namespace gflink::bench;

void Fig6a_SpMV(benchmark::State& state) {
  wl::Testbed tb;
  wl::spmv::Config cfg;
  cfg.matrix_bytes = static_cast<std::uint64_t>(state.range(0)) << 30;
  for (auto _ : state) {
    run_pair(state, &wl::spmv::run, tb, cfg);
  }
  state.SetLabel("Fig6a matrix(GB)=" + std::to_string(state.range(0)));
}
BENCHMARK(Fig6a_SpMV)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

void Fig6b_LinearRegression(benchmark::State& state) {
  wl::Testbed tb;
  wl::linreg::Config cfg;
  cfg.samples = static_cast<std::uint64_t>(state.range(0)) * 1'000'000ULL;
  for (auto _ : state) {
    run_pair(state, &wl::linreg::run, tb, cfg);
  }
  state.SetLabel("Fig6b samples(M)=" + std::to_string(state.range(0)));
}
BENCHMARK(Fig6b_LinearRegression)
    ->Arg(150)->Arg(180)->Arg(210)->Arg(240)->Arg(270)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

void Fig6c_ConnectedComponents(benchmark::State& state) {
  wl::Testbed tb;
  wl::concomp::Config cfg;
  cfg.vertices = static_cast<std::uint64_t>(state.range(0)) * 1'000'000ULL;
  for (auto _ : state) {
    run_pair(state, &wl::concomp::run, tb, cfg);
  }
  state.SetLabel("Fig6c pages(M)=" + std::to_string(state.range(0)));
}
BENCHMARK(Fig6c_ConnectedComponents)
    ->Arg(5)->Arg(10)->Arg(15)->Arg(20)->Arg(25)
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

GFLINK_BENCH_MAIN(fig6_overview);
