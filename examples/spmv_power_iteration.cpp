// Iterative SpMV on a single heterogeneous machine — the paper's Fig. 7b
// scenario, and the clearest demonstration of the GPU cache scheme.
//
// A 1.0 GB CSR matrix is multiplied against a dense vector repeatedly.
// The first iteration pays the DFS read and the PCIe transfer of the
// matrix; every later iteration finds the matrix (and vector) already in
// device memory, so only the kernels run. Watch the per-iteration times
// collapse after iteration 0 — and compare against the same run with the
// cache disabled.
//
// Build & run:  ./build/examples/spmv_power_iteration
#include <cstdio>

#include "workloads/spmv.hpp"

namespace sim = gflink::sim;
namespace wl = gflink::workloads;

int main() {
  wl::Testbed tb;
  tb.workers = 1;  // single machine: JobManager colocated with the worker
  wl::spmv::Config cfg;
  cfg.matrix_bytes = 1ULL << 30;
  cfg.iterations = 8;

  auto cpu = wl::run(&wl::spmv::run, tb, wl::Mode::Cpu, cfg);
  auto cached = wl::run(&wl::spmv::run, tb, wl::Mode::Gpu, cfg);
  cfg.gpu_cache = false;
  auto uncached = wl::run(&wl::spmv::run, tb, wl::Mode::Gpu, cfg);

  std::printf("SpMV, 1.0 GB matrix (%llu rows x %llu cols full-scale), single machine\n\n",
              static_cast<unsigned long long>(cpu.rows * 1000),
              static_cast<unsigned long long>(cpu.cols * 1000));
  auto fs = [&](sim::Duration d) { return sim::to_seconds(d) / tb.scale; };
  std::printf("%-10s %14s %18s %18s\n", "iteration", "Flink CPU (s)", "GFlink cached (s)",
              "GFlink no-cache (s)");
  for (std::size_t i = 0; i < cpu.run.iterations.size(); ++i) {
    std::printf("%-10zu %14.2f %18.3f %18.3f\n", i, fs(cpu.run.iterations[i]),
                fs(cached.run.iterations[i]), fs(uncached.run.iterations[i]));
  }
  std::printf("\nfirst-iteration speedup: %.1fx; steady-state speedup: %.1fx\n",
              fs(cpu.run.iterations[0]) / fs(cached.run.iterations[0]),
              fs(cpu.run.iterations[3]) / fs(cached.run.iterations[3]));
  std::printf("the cache saves %.1fx per steady-state iteration\n",
              fs(uncached.run.iterations[3]) / fs(cached.run.iterations[3]));
  return 0;
}
