// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "workloads/kmeans.hpp"

#include <cmath>

#include "core/gdst.hpp"
#include "sim/random.hpp"

namespace gflink::workloads::kmeans {

// Compile-time + static-init layout proof for every mirror this
// translation unit reinterprets batch bytes as (see mem/gstruct.hpp).
GSTRUCT_MIRROR_CHECK(Point, point_desc);
GSTRUCT_MIRROR_CHECK(ClusterAgg, cluster_agg_desc);
GSTRUCT_MIRROR_CHECK(VecEntry, vec_entry_desc);

namespace {

// CPU cost of the assignment UDF: distance to k centers per point through
// boxed floats and tuple wrappers, plus the aggregate record construction.
// Calibrated to ~2.7 us/point of JVM time (the 384 raw flops run at far
// below scalar peak in 2016-era Flink UDFs).
const df::OpCost kAssignCost{1300.0, sizeof(Point) + sizeof(ClusterAgg)};
// Combine of two aggregates.
const df::OpCost kCombineCost{2.0 * kDim, 2.0 * sizeof(ClusterAgg)};

// The assignment body, shared by the Flink UDFs and cudaKmeansAssign: the
// index of the center (of kClusters) nearest to `p`.
inline int nearest_center(const Point& p, const Point* centers) {
  int best = 0;
  float best_d = 1e30f;
  for (int c = 0; c < kClusters; ++c) {
    float d = 0;
    for (int j = 0; j < kDim; ++j) {
      const float diff = p.x[j] - centers[c].x[j];
      d += diff * diff;
    }
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

std::vector<Point> initial_centers(std::uint64_t seed) {
  // Standard practice (and HiBench's): seed the centers with the first k
  // input points.
  std::vector<Point> centers(kClusters);
  for (int c = 0; c < kClusters; ++c) {
    centers[static_cast<std::size_t>(c)] = point_at(static_cast<std::uint64_t>(c), seed);
  }
  return centers;
}

}  // namespace

void register_kernels(gpu::KernelRegistry& registry) {
  // Assignment plus per-block partial sums. Buffers: [points, centers,
  // out(k ClusterAgg)].
  gpu::Kernel k;
  k.name = "cudaKmeansAssign";
  k.preferred_layout = mem::Layout::SoA;
  k.cost.flops_per_item = 3.0 * kClusters * kDim;  // distance to every center
  k.cost.dram_bytes_per_item = sizeof(Point);
  k.cost.fixed_flops = 2.0 * kClusters * kDim;     // block-level reduction tail
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* pts = reinterpret_cast<const Point*>(launch.buffers[0].data());
    const auto* centers = reinterpret_cast<const Point*>(launch.buffers[1].data());
    auto* out = reinterpret_cast<ClusterAgg*>(launch.buffers.back().data());
    for (int c = 0; c < kClusters; ++c) out[c] = ClusterAgg{static_cast<std::uint64_t>(c), {}, 0};
    for (std::size_t i = 0; i < launch.items; ++i) {
      const int best = nearest_center(pts[i], centers);
      for (int j = 0; j < kDim; ++j) out[best].sum[j] += pts[i].x[j];
      ++out[best].count;
    }
  };
  registry.register_kernel(std::move(k));
}

Point point_at(std::uint64_t i, std::uint64_t seed) {
  // Cluster ground truth: k well-separated centers, Gaussian-ish noise via
  // a per-index hash (no shared RNG stream, so any partitioning of the
  // index space produces the same multiset).
  std::uint64_t h = i * 0x9e3779b97f4a7c15ULL + seed;
  Point p;
  const int truth = static_cast<int>(i % kClusters);
  for (int j = 0; j < kDim; ++j) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    // Zero-centered noise in [-2, 2).
    const float noise =
        static_cast<float>(static_cast<std::int64_t>(h >> 40) - (1 << 23)) / (1 << 22);
    p.x[j] = static_cast<float>(truth * 20 + (j % 3)) + noise;
  }
  return p;
}

df::DataSet<ClusterAgg> mapper(const df::DataSet<Point>& points, Mode mode,
                               std::shared_ptr<std::vector<Point>> centers,
                               std::uint64_t iteration) {
  if (mode == Mode::Cpu) {
    return points.map<ClusterAgg>(
        &cluster_agg_desc(), "kmeansAssign", kAssignCost,
        [centers](const Point& p) {
          ClusterAgg agg{};
          agg.cluster = static_cast<std::uint64_t>(nearest_center(p, centers->data()));
          for (int j = 0; j < kDim; ++j) agg.sum[j] = p.x[j];
          agg.count = 1;
          return agg;
        });
  }
  ensure_kernels_registered();
  core::GpuOpSpec spec;
  spec.kernel = "cudaKmeansAssign";
  spec.ptx_path = "/kernels/kmeans.ptx";
  spec.layout = mem::Layout::SoA;
  spec.cache_input = true;  // points are static across iterations
  spec.cache_namespace = 1;
  spec.out_items = [](std::size_t) { return static_cast<std::size_t>(kClusters); };
  spec.make_aux = broadcast_aux(std::move(centers), iteration);
  return core::gpu_dataset_op<Point, ClusterAgg>(points, &cluster_agg_desc(), "gpuKmeansAssign",
                                                 std::move(spec));
}

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config) {
  const auto n = static_cast<std::uint64_t>(static_cast<double>(config.points) * tb.scale);
  const DriverInput input =
      prepare_input(engine, runtime, mode, config.partitions, "kmeans", n, n * sizeof(Point));

  Result result;
  auto centers = std::make_shared<std::vector<Point>>(initial_centers(config.seed));

  df::Job job(engine, "kmeans");
  co_await job.submit();

  auto source = df::DataSet<Point>::from_generator(
      engine, &point_desc(),
      striped<Point>(n, input.partitions,
                     [seed = config.seed](std::uint64_t i) { return point_at(i, seed); }),
      df::OpCost{8.0, sizeof(Point)}, input.path);

  df::DataHandle points;
  for (int iter = 0; iter < config.iterations; ++iter) {
    const sim::Time t0 = engine.now();
    if (iter == 0) {
      points = co_await source.materialize(job);  // DFS read, first iteration
    }
    auto ds = df::DataSet<Point>::from_handle(engine, points);
    auto aggs = mapper(ds, mode, centers, static_cast<std::uint64_t>(iter))
                    .reduce_by_key("kmeansReduce", kCombineCost,
                                   [](const ClusterAgg& a) { return a.cluster; },
                                   [](ClusterAgg& acc, const ClusterAgg& b) {
                                     for (int j = 0; j < kDim; ++j) acc.sum[j] += b.sum[j];
                                     acc.count += b.count;
                                   });
    auto partials = co_await aggs.collect(job);
    for (const auto& agg : partials) {
      if (agg.count == 0) continue;
      Point& c = (*centers)[agg.cluster];
      for (int j = 0; j < kDim; ++j) {
        c.x[j] = agg.sum[j] / static_cast<float>(agg.count);
      }
    }
    // Broadcast the new centers to every worker (the per-superstep shuffle
    // the paper notes is KMeans' only shuffle).
    co_await engine.broadcast(kClusters * sizeof(Point));

    if (config.checkpoint_interval > 0 && (iter + 1) % config.checkpoint_interval == 0) {
      const std::string name = "iter-" + std::to_string(iter);
      co_await engine.checkpoint(job, name, kClusters * sizeof(Point));
    }

    if (iter == config.iterations - 1 && config.write_output) {
      // Final pass: write each point's cluster assignment (point id ->
      // cluster), which is why the last iteration rises (paper Fig. 7a).
      auto labelled = df::DataSet<Point>::from_handle(engine, points)
                          .map<VecEntry>(&vec_entry_desc(), "kmeansLabel",
                                         df::OpCost{800.0, sizeof(Point)},
                                         [centers](const Point& p) {
                                           return VecEntry{static_cast<std::uint64_t>(
                                                               nearest_center(p, centers->data())),
                                                           p.x[0]};
                                         });
      const std::string out_path = "/out/kmeans";
      co_await labelled.write_dfs(job, out_path);
    }
    result.run.iterations.push_back(engine.now() - t0);
  }

  finish_run(job, runtime, result.run);
  result.centers = *centers;
  for (const auto& c : result.centers) {
    for (int j = 0; j < kDim; ++j) result.run.checksum += c.x[j];
  }
  co_return result;
}

}  // namespace gflink::workloads::kmeans
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
