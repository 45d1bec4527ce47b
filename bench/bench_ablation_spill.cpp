// Ablation — the spill path of the exchange, sync vs. async offload and
// codec none vs. LZ, under a spill-heavy PageRank configuration.
//
// The receiver budget is squeezed until most exchange buckets overflow
// it, so every iteration's rank exchange spills. The four cells vary the
// two spill-path design choices independently:
//
//  * path=sync  — the pre-refactor behaviour: the depositing coroutine
//    holds through the full DFS spill round trip (spill I/O sits on the
//    exchange's critical path);
//  * path=async — the src/spill tiered store: deposits enqueue to the
//    node's bounded-queue spill workers and continue; blocks land on the
//    memory → disk → DFS ladder in the background and take() awaits any
//    block still in flight;
//  * codec=none / codec=lz — the block codec applied before a block hits
//    a storage tier (LZ-style over GStruct's fixed column layouts:
//    deterministic ratio, bandwidth-shaped cost).
//
// Tier budgets are also squeezed so the ladder's disk and DFS rungs both
// carry real I/O. Runs are traced: the critical-path walk quantifies the
// producer-visible spill stall (ablation_spill_stall_seconds), which is
// the thing the async offload is designed to remove. Expected orderings
// (tools/bench_gate.py re-checks in CI): async < sync within each
// codec, and async+lz is the fastest cell overall.
#include "bench_common.hpp"
#include "workloads/pagerank.hpp"

namespace {

using namespace gflink::bench;
namespace sp = gflink::spill;
namespace obs = gflink::obs;

constexpr const char* kPaths[] = {"sync", "async"};
constexpr sp::SpillCodec kCodecs[] = {sp::SpillCodec::None, sp::SpillCodec::Lz};

double measure(bool async_path, sp::SpillCodec codec) {
  wl::Testbed tb;  // 10 workers, CPU plan: the exchange is the bottleneck
  tb.trace = true;
  tb.spill_async = async_path;
  tb.spill_codec = codec;
  df::EngineConfig cfg = wl::make_engine_config(tb);
  // Spill-heavy: the receiver budget admits almost nothing, so nearly
  // every deposited bucket spills; the memory/disk tier budgets are small
  // enough that the ladder's disk and DFS rungs both see traffic.
  cfg.shuffle.receiver_budget_bytes = 4 * 1024;
  cfg.shuffle.spill.memory_tier_bytes = 4 * 1024;
  cfg.shuffle.spill.disk_tier_bytes = 12 * 1024;

  wl::Session session(tb, wl::Mode::Cpu, cfg, wl::make_gpu_config(tb));
  wl::pagerank::Config pcfg;  // defaults: 10 M pages, 5 iterations
  const auto result = session.run(&wl::pagerank::run, pcfg);

  // Producer-visible spill time: the Spill category of the last-finisher
  // critical path. Async offload moves tier writes off that path, so this
  // is the number the refactor shrinks.
  const obs::CriticalPath cp = obs::extract_critical_path(session.engine().cluster().spans());
  const double spill_stall_s =
      full_seconds(cp.by_category[static_cast<std::size_t>(obs::SpanCategory::Spill)], tb);

  gflink::obs::RunReport& rep = report_case(session);
  const double secs = full_seconds(result.run.total, tb);
  const gflink::obs::Labels labels{{"path", kPaths[async_path ? 1 : 0]},
                                   {"codec", sp::spill_codec_name(codec)}};
  rep.metrics.gauge(obs::Metric::AblationSpillSeconds, labels).set(secs);
  rep.metrics.gauge(obs::Metric::AblationSpillStallSeconds, labels).set(spill_stall_s);
  rep.metrics.gauge(obs::Metric::AblationSpillChecksum, labels).set(result.run.checksum);
  return secs;
}

void Ablation_Spill(benchmark::State& state) {
  const bool async_path = state.range(0) != 0;
  const auto codec = kCodecs[state.range(1)];
  for (auto _ : state) {
    const double secs = measure(async_path, codec);
    wl::Testbed tb;
    state.SetIterationTime(secs * tb.scale);  // simulated seconds
    state.counters["full_s"] = secs;
  }
  state.SetLabel(std::string(kPaths[async_path ? 1 : 0]) + "/" +
                 sp::spill_codec_name(codec));
}
BENCHMARK(Ablation_Spill)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

GFLINK_BENCH_MAIN(ablation_spill);
