// Figure 7(c)/(d) — average running time as the number of slave nodes
// varies, for a fixed data size (10 GB class).
//
// Paper shape: the CPU line falls steeply with more slaves (compute
// bound); the GFlink line is already low and flattens quickly because
// non-compute overheads (I/O, network, scheduling, job submission)
// dominate once the GPUs absorb the computation.
#include "bench_common.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/spmv.hpp"

namespace {

using namespace gflink::bench;

void Fig7c_KMeansScalability(CaseState& state) {
  wl::Testbed tb;
  tb.workers = static_cast<int>(state.args[0]);
  wl::kmeans::Config cfg;
  cfg.points = 150'000'000;  // ~10 GB of Point records
  run_pair(state, &wl::kmeans::run, tb, cfg);
  state.label = "Fig7c slaves=" + std::to_string(state.args[0]);
}

void Fig7d_SpmvScalability(CaseState& state) {
  wl::Testbed tb;
  tb.workers = static_cast<int>(state.args[0]);
  wl::spmv::Config cfg;
  cfg.matrix_bytes = 10ULL << 30;  // the paper's 10 GB matrix
  run_pair(state, &wl::spmv::run, tb, cfg);
  state.label = "Fig7d slaves=" + std::to_string(state.args[0]);
}

const Case kCases[] = {
    {"Fig7c_KMeansScalability", Fig7c_KMeansScalability, {{2}, {4}, {6}, {8}, {10}}},
    {"Fig7d_SpmvScalability", Fig7d_SpmvScalability, {{2}, {4}, {6}, {8}, {10}}},
};

}  // namespace

GFLINK_BENCH_MAIN(fig7_scalability, kCases);
