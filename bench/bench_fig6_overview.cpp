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

void Fig6a_SpMV(CaseState& state) {
  wl::Testbed tb;
  wl::spmv::Config cfg;
  cfg.matrix_bytes = static_cast<std::uint64_t>(state.args[0]) << 30;
  run_pair(state, &wl::spmv::run, tb, cfg);
  state.label = "Fig6a matrix(GB)=" + std::to_string(state.args[0]);
}

void Fig6b_LinearRegression(CaseState& state) {
  wl::Testbed tb;
  wl::linreg::Config cfg;
  cfg.samples = static_cast<std::uint64_t>(state.args[0]) * 1'000'000ULL;
  run_pair(state, &wl::linreg::run, tb, cfg);
  state.label = "Fig6b samples(M)=" + std::to_string(state.args[0]);
}

void Fig6c_ConnectedComponents(CaseState& state) {
  wl::Testbed tb;
  wl::concomp::Config cfg;
  cfg.vertices = static_cast<std::uint64_t>(state.args[0]) * 1'000'000ULL;
  run_pair(state, &wl::concomp::run, tb, cfg);
  state.label = "Fig6c pages(M)=" + std::to_string(state.args[0]);
}

const Case kCases[] = {
    {"Fig6a_SpMV", Fig6a_SpMV, {{2}, {4}, {8}, {16}, {32}}},
    {"Fig6b_LinearRegression", Fig6b_LinearRegression, {{150}, {180}, {210}, {240}, {270}}},
    {"Fig6c_ConnectedComponents", Fig6c_ConnectedComponents, {{5}, {10}, {15}, {20}, {25}}},
};

}  // namespace

GFLINK_BENCH_MAIN(fig6_overview, kCases);
