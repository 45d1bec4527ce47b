// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "workloads/linreg.hpp"

#include "core/gdst.hpp"
#include "sim/random.hpp"

namespace gflink::workloads::linreg {

// Compile-time + static-init layout proof for every mirror this
// translation unit reinterprets batch bytes as (see mem/gstruct.hpp).
GSTRUCT_MIRROR_CHECK(Sample, sample_desc);
GSTRUCT_MIRROR_CHECK(Gradient, gradient_desc);
GSTRUCT_MIRROR_CHECK(VecEntry, vec_entry_desc);

namespace {

// The JVM-side gradient UDF is the slowest per-record code of the suite
// (boxed doubles, tuple wrappers): calibrated to ~4.1 us/sample, which is
// what gives LinearRegression the paper's largest overall speedup (9.2x).
const df::OpCost kGradientCost{1850.0, sizeof(Sample) + sizeof(Gradient)};
const df::OpCost kCombineCost{2.0 * (kDim + 1), 2.0 * sizeof(Gradient)};

// The model's prediction for `s` under weights `w` (kDim weights, bias
// last), shared by the Flink UDFs and cudaLinregGradient.
inline double predict(const Sample& s, const double* w) {
  double pred = w[kDim];
  for (int j = 0; j < kDim; ++j) pred += w[j] * s.x[j];
  return pred;
}

inline double residual(const Sample& s, const double* w) { return predict(s, w) - s.y; }

}  // namespace

void register_kernels(gpu::KernelRegistry& registry) {
  // Per-block gradient. Buffers: [samples, weights(dim+1 doubles),
  // out(1 Gradient)].
  gpu::Kernel k;
  k.name = "cudaLinregGradient";
  k.preferred_layout = mem::Layout::SoA;
  k.cost.flops_per_item = 5.0 * kDim;  // fused dot + scaled accumulate
  k.cost.dram_bytes_per_item = sizeof(Sample);
  k.fn = [](gpu::KernelLaunch& launch) {
    const auto* samples = reinterpret_cast<const Sample*>(launch.buffers[0].data());
    const auto* w = reinterpret_cast<const double*>(launch.buffers[1].data());
    auto* out = reinterpret_cast<Gradient*>(launch.buffers.back().data());
    *out = Gradient{};
    for (std::size_t i = 0; i < launch.items; ++i) {
      const double err = residual(samples[i], w);
      for (int j = 0; j < kDim; ++j) out->g[j] += err * samples[i].x[j];
      out->g[kDim] += err;
      ++out->count;
    }
  };
  registry.register_kernel(std::move(k));
}

Sample sample_at(std::uint64_t i, std::uint64_t seed) {
  std::uint64_t h = i * 0x9e3779b97f4a7c15ULL + seed;
  Sample s;
  double y = 3.0;  // bias ground truth
  for (int j = 0; j < kDim; ++j) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    // Zero-centered feature in [-2, 2): gradient descent stays stable.
    s.x[j] = static_cast<float>(static_cast<std::int64_t>(h >> 40) - (1 << 23)) / (1 << 22);
    y += (j + 1) * 0.25 * s.x[j];
  }
  s.y = static_cast<float>(y);
  return s;
}

df::DataSet<Gradient> mapper(const df::DataSet<Sample>& samples, Mode mode,
                             std::shared_ptr<std::vector<double>> weights,
                             std::uint64_t iteration) {
  if (mode == Mode::Cpu) {
    return samples.map<Gradient>(
        &gradient_desc(), "linregGradient", kGradientCost, [weights](const Sample& s) {
          const double err = residual(s, weights->data());
          Gradient g{};
          for (int j = 0; j < kDim; ++j) g.g[j] = err * s.x[j];
          g.g[kDim] = err;
          g.count = 1;
          return g;
        });
  }
  ensure_kernels_registered();
  core::GpuOpSpec spec;
  spec.kernel = "cudaLinregGradient";
  spec.ptx_path = "/kernels/linreg.ptx";
  spec.layout = mem::Layout::SoA;
  spec.cache_input = true;
  spec.cache_namespace = 1;
  spec.make_aux = broadcast_aux(std::move(weights), iteration);
  return core::gpu_reduce_op<Sample, Gradient>(samples, &gradient_desc(), "gpuLinregGradient",
                                               std::move(spec));
}

sim::Co<Result> run(df::Engine& engine, core::GFlinkRuntime* runtime, const Testbed& tb,
                    Mode mode, const Config& config) {
  const auto n = static_cast<std::uint64_t>(static_cast<double>(config.samples) * tb.scale);
  const DriverInput input =
      prepare_input(engine, runtime, mode, config.partitions, "linreg", n, n * sizeof(Sample));

  Result result;
  auto weights = std::make_shared<std::vector<double>>(kDim + 1, 0.0);

  df::Job job(engine, "linreg");
  co_await job.submit();

  auto source = df::DataSet<Sample>::from_generator(
      engine, &sample_desc(),
      striped<Sample>(n, input.partitions,
                      [seed = config.seed](std::uint64_t i) { return sample_at(i, seed); }),
      df::OpCost{8.0, sizeof(Sample)}, input.path);

  df::DataHandle samples;
  for (int iter = 0; iter < config.iterations; ++iter) {
    const sim::Time t0 = engine.now();
    if (iter == 0) {
      samples = co_await source.materialize(job);
    }
    auto ds = df::DataSet<Sample>::from_handle(engine, samples);
    auto grads = mapper(ds, mode, weights, static_cast<std::uint64_t>(iter))
                     .reduce("linregReduce", kCombineCost,
                             [](Gradient& acc, const Gradient& g) {
                               for (int j = 0; j <= kDim; ++j) acc.g[j] += g.g[j];
                               acc.count += g.count;
                             });
    auto total = co_await grads.collect(job);
    if (!total.empty() && total[0].count > 0) {
      const auto& g = total[0];
      for (int j = 0; j <= kDim; ++j) {
        (*weights)[static_cast<std::size_t>(j)] -=
            config.learning_rate * g.g[j] / static_cast<double>(g.count);
      }
    }
    co_await engine.broadcast((kDim + 1) * sizeof(double));

    if (iter == config.iterations - 1 && config.write_output) {
      // Write per-sample predictions (one VecEntry per sample).
      auto predictions = df::DataSet<Sample>::from_handle(engine, samples)
                             .map<VecEntry>(&vec_entry_desc(), "linregPredict",
                                            df::OpCost{2.0 * kDim, sizeof(Sample)},
                                            [weights](const Sample& s) {
                                              return VecEntry{0, static_cast<float>(predict(
                                                                     s, weights->data()))};
                                            });
      const std::string out_path = "/out/linreg";
      co_await predictions.write_dfs(job, out_path);
    }
    result.run.iterations.push_back(engine.now() - t0);
  }

  finish_run(job, runtime, result.run);
  result.weights = *weights;
  for (double w : result.weights) result.run.checksum += w;
  co_return result;
}

}  // namespace gflink::workloads::linreg
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
