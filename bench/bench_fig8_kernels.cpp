// Figure 8(b) — operator-level speedup of GMappers and the GReducer for
// different GPU models (C2050, GTX 750, K20, P100), single node.
//
// The measurement isolates the mapper/reducer stage (input already
// materialized in cluster memory; no DFS, no job submission) and compares
// the stage's wall time on original Flink vs GFlink — the paper's "we omit
// other phases" methodology.
//
// Paper shapes: P100 > K20 > GTX750 ~= C2050; mapper speedups far above
// the end-to-end application speedups; KMeans's mapper above SpMV's;
// PointAdd's below both; the GReducer gains little (not compute-bound).
#include "bench_common.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/pointadd.hpp"
#include "workloads/records.hpp"
#include "workloads/spmv.hpp"

namespace {

using namespace gflink::bench;
using gflink::sim::Co;

gpu::DeviceSpec preset(int index) {
  switch (index) {
    case 0: return gpu::DeviceSpec::c2050();
    case 1: return gpu::DeviceSpec::gtx750();
    case 2: return gpu::DeviceSpec::k20();
    default: return gpu::DeviceSpec::p100();
  }
}

/// Find the wall time of the stage whose name contains `needle`.
double stage_seconds(const df::JobStats& stats, const std::string& needle,
                     const wl::Testbed& tb) {
  for (const auto& st : stats.stages) {
    if (st.name.find(needle) != std::string::npos) {
      return full_seconds(st.end - st.begin, tb);
    }
  }
  return 0.0;
}

enum class Op { KmeansMapper, SpmvMapper, PointAddMapper, SumReducer };

const char* op_name(Op op) {
  switch (op) {
    case Op::KmeansMapper: return "GMapper/KMeans";
    case Op::SpmvMapper: return "GMapper/SpMV";
    case Op::PointAddMapper: return "GMapper/PointAdd";
    case Op::SumReducer: return "GReducer/Sum";
  }
  return "?";
}

/// Run just the operator under test on a materialized input; return the
/// stage time.
double measure(Op op, wl::Mode mode, const wl::Testbed& tb) {
  wl::Session session(tb, mode);
  core::GFlinkRuntime* runtime = session.runtime();
  double seconds = 0.0;
  session.engine().run([&](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "fig8b");
    co_await job.submit();
    const std::uint64_t n = static_cast<std::uint64_t>(80e6 * tb.scale);  // 80 M records
    const int parts = mode == wl::Mode::Cpu ? eng.default_parallelism() : tb.gpus_per_worker;
    switch (op) {
      case Op::KmeansMapper: {
        auto src = df::DataSet<wl::Point>::from_generator(
            eng, &wl::point_desc(),
            wl::striped<wl::Point>(n, parts,
                                   [](std::uint64_t i) { return wl::kmeans::point_at(i, 1); }));
        auto handle = co_await src.materialize(job);
        auto centers = std::make_shared<std::vector<wl::Point>>(wl::kClusters);
        for (int c = 0; c < wl::kClusters; ++c) {
          (*centers)[static_cast<std::size_t>(c)] = wl::kmeans::point_at(
              static_cast<std::uint64_t>(c), 1);
        }
        auto mapped = wl::kmeans::mapper(df::DataSet<wl::Point>::from_handle(eng, handle), mode,
                                         centers, 0);
        (void)co_await mapped.count(job);
        seconds = stage_seconds(job.stats(), "KmeansAssign", tb) +
                  stage_seconds(job.stats(), "kmeansAssign", tb);
        break;
      }
      case Op::SpmvMapper: {
        const std::uint64_t rows = n / 8;  // CsrRow records are heavy
        auto src = df::DataSet<wl::CsrRow>::from_generator(
            eng, &wl::csr_row_desc(),
            wl::striped<wl::CsrRow>(
                rows, parts, [](std::uint64_t i) { return wl::spmv::row_at(i, 65536, 1); }));
        auto handle = co_await src.materialize(job);
        auto x = std::make_shared<std::vector<float>>(65536, 1.0f);
        auto mapped = wl::spmv::mapper(df::DataSet<wl::CsrRow>::from_handle(eng, handle), mode,
                                       x, 0);
        (void)co_await mapped.count(job);
        seconds = stage_seconds(job.stats(), "SpmvRow", tb) +
                  stage_seconds(job.stats(), "spmvRow", tb);
        break;
      }
      case Op::PointAddMapper: {
        auto src = df::DataSet<wl::Pt>::from_generator(
            eng, &wl::pt_desc(),
            wl::striped<wl::Pt>(n, parts,
                                [](std::uint64_t i) { return wl::pointadd::pt_at(i, 1); }));
        auto handle = co_await src.materialize(job);
        auto mapped = wl::pointadd::mapper(df::DataSet<wl::Pt>::from_handle(eng, handle), mode);
        (void)co_await mapped.count(job);
        seconds = stage_seconds(job.stats(), "addPoint", tb) +
                  stage_seconds(job.stats(), "AddPoint", tb);
        break;
      }
      case Op::SumReducer: {
        auto src = df::DataSet<wl::VecEntry>::from_generator(
            eng, &wl::vec_entry_desc(),
            wl::striped<wl::VecEntry>(n, parts,
                                      [](std::uint64_t i) { return wl::VecEntry{i, 1.0f}; }));
        auto handle = co_await src.materialize(job);
        auto ds = df::DataSet<wl::VecEntry>::from_handle(eng, handle);
        if (mode == wl::Mode::Cpu) {
          auto reduced = ds.reduce("sumReduce", df::OpCost{8.0, 2.0 * sizeof(wl::VecEntry)},
                                   [](wl::VecEntry& acc, const wl::VecEntry& e) {
                                     acc.value += e.value;
                                   });
          (void)co_await reduced.count(job);
          seconds = stage_seconds(job.stats(), "sumReduce", tb);
        } else {
          core::GpuOpSpec spec;
          spec.kernel = "cudaSumVec";
          spec.out_items = [](std::size_t) { return std::size_t{1}; };
          auto partial = core::gpu_dataset_op<wl::VecEntry, wl::VecEntry>(
              ds, &wl::vec_entry_desc(), "gpuSumVec", spec);
          auto reduced = partial.reduce("sumReduce", df::OpCost{8.0, 2.0 * sizeof(wl::VecEntry)},
                                        [](wl::VecEntry& acc, const wl::VecEntry& e) {
                                          acc.value += e.value;
                                        });
          (void)co_await reduced.count(job);
          seconds = stage_seconds(job.stats(), "gpuSumVec", tb) +
                    stage_seconds(job.stats(), "sumReduce", tb);
        }
        break;
      }
    }
    job.finish();
    if (runtime) runtime->release_job(job.id());
  });
  report_case(session);
  return seconds;
}

void Fig8b_OperatorSpeedup(CaseState& state) {
  const Op op = static_cast<Op>(state.args[0]);
  wl::Testbed tb;
  tb.workers = 1;
  tb.gpus_per_worker = 1;
  tb.gpu_spec = preset(static_cast<int>(state.args[1]));
  const double cpu_s = measure(op, wl::Mode::Cpu, tb);
  const double gpu_s = measure(op, wl::Mode::Gpu, tb);
  report_pair(state, cpu_s, gpu_s);
  state.label = std::string(op_name(op)) + " on " + tb.gpu_spec.name;
}

// Every operator on every device, operator fastest.
const Case kCases[] = {
    {"Fig8b_OperatorSpeedup", Fig8b_OperatorSpeedup,
     {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 1},
      {0, 2}, {1, 2}, {2, 2}, {3, 2}, {0, 3}, {1, 3}, {2, 3}, {3, 3}}},
};

}  // namespace

GFLINK_BENCH_MAIN(fig8_kernels, kCases);
