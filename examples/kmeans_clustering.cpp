// KMeans clustering on GFlink — the paper's flagship iterative workload.
//
// Demonstrates:
//  * iterative in-memory computing: the point dataset is read once and
//    stays resident (cluster memory + GPU cache) across supersteps;
//  * broadcast variables (the current centers) fed to GPU kernels as
//    auxiliary GWork buffers;
//  * CPU-vs-GFlink comparison on the same data with per-iteration timing.
//
// Build & run:  ./build/examples/kmeans_clustering
#include <cstdio>

#include "workloads/kmeans.hpp"

namespace sim = gflink::sim;
namespace wl = gflink::workloads;

int main() {
  wl::Testbed tb;  // the paper's testbed: 10 slaves, 2x Tesla C2050 each
  wl::kmeans::Config cfg;
  cfg.points = 210'000'000;  // Table 1 mid size (scaled by tb.scale)
  cfg.iterations = 10;

  std::printf("KMeans: %llu points (full-scale), k=%d, d=%d, %d iterations\n",
              static_cast<unsigned long long>(cfg.points), wl::kClusters, wl::kDim,
              cfg.iterations);
  std::printf("testbed: %d slaves x (4 CPU cores + %d x %s), scale %.0e\n\n", tb.workers,
              tb.gpus_per_worker, tb.gpu_spec.name.c_str(), tb.scale);

  auto cpu = wl::run(&wl::kmeans::run, tb, wl::Mode::Cpu, cfg);
  auto gpu = wl::run(&wl::kmeans::run, tb, wl::Mode::Gpu, cfg);

  auto fs = [&](sim::Duration d) { return sim::to_seconds(d) / tb.scale; };
  std::printf("%-10s %12s %12s\n", "iteration", "Flink (s)", "GFlink (s)");
  for (std::size_t i = 0; i < cpu.run.iterations.size(); ++i) {
    std::printf("%-10zu %12.2f %12.2f\n", i, fs(cpu.run.iterations[i]),
                fs(gpu.run.iterations[i]));
  }
  std::printf("%-10s %12.2f %12.2f   speedup %.2fx\n\n", "total", fs(cpu.run.total),
              fs(gpu.run.total), fs(cpu.run.total) / fs(gpu.run.total));

  std::printf("recovered centers (first 4 dims), identical on both paths:\n");
  for (std::size_t c = 0; c < gpu.centers.size(); ++c) {
    std::printf("  center %zu: %7.2f %7.2f %7.2f %7.2f\n", c, gpu.centers[c].x[0],
                gpu.centers[c].x[1], gpu.centers[c].x[2], gpu.centers[c].x[3]);
  }
  return 0;
}
