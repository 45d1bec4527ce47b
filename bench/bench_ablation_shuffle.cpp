// Ablation — the three exchange transports of the ShuffleService on the
// shuffle-dominated workload (PageRank, paper Fig. 5b), under both a
// uniform and a Zipf-skewed key distribution:
//
//  * barrier    — each task ships its buckets serially and holds its slot
//    until the last byte lands (the pre-ShuffleService behaviour);
//  * pipelined  — bucket sends detach: the slot frees while the NIC drains
//    and credit-bounded block sends toward distinct receivers overlap
//    (GFlink's compute/transfer overlap applied to the shuffle path);
//  * one_sided  — the RDMA-style transport: histogram exchange, remote
//    fetch-add offset reservations into pre-sized receive regions, bulk
//    one-sided writes over the HCA pipes, and a fetch-add completion
//    counter as the barrier (no credits, no per-block ACKs).
//
// Distributions: "uniform" draws link targets uniformly; "skewed" uses the
// Zipf-like hot-page generator (pagerank::Config::zipf_shift), which piles
// messages onto few hot keys — map-side combine then collapses them, so
// the skewed exchange moves fewer but more unbalanced buckets.
//
// Expected ordering (total job seconds, both distributions):
// one_sided < pipelined < barrier. tools/bench_gate.py turns the gauges
// recorded here into the EXPERIMENTS.md ablation table and checks the
// ordering.
#include "bench_common.hpp"
#include "shuffle/shuffle_service.hpp"
#include "workloads/pagerank.hpp"

namespace {

using namespace gflink::bench;
namespace sh = gflink::shuffle;
using gflink::obs::Metric;

constexpr sh::ShuffleMode kModes[] = {sh::ShuffleMode::Barrier, sh::ShuffleMode::Pipelined,
                                      sh::ShuffleMode::OneSided};
constexpr const char* kDists[] = {"uniform", "skewed"};

double measure(sh::ShuffleMode mode, bool skewed) {
  wl::Testbed tb;  // 10 workers, CPU path: the shuffle is the bottleneck
  tb.shuffle_mode = mode;
  df::EngineConfig cfg = wl::make_engine_config(tb);
  cfg.shuffle.spill_enabled = false;  // isolate the transport, not the budget

  wl::Session session(tb, wl::Mode::Cpu, cfg, wl::make_gpu_config(tb));
  wl::pagerank::Config pcfg;  // defaults: 10 M pages, 5 iterations
  if (skewed) pcfg.zipf_shift = 2;
  const auto result = session.run(&wl::pagerank::run, pcfg);

  const char* dist = kDists[skewed ? 1 : 0];
  gflink::obs::RunReport& rep = report_case(session);
  const double secs = full_seconds(result.run.total, tb);
  const gflink::obs::Labels labels{{"mode", sh::shuffle_mode_name(mode)}, {"dist", dist}};
  rep.metrics.gauge(Metric::AblationShuffleSeconds, labels).set(secs);
  rep.metrics.gauge(Metric::AblationShuffleChecksum, labels).set(result.run.checksum);
  return secs;
}

void Ablation_Shuffle(CaseState& state) {
  const auto mode = kModes[state.args[0]];
  const bool skewed = state.args[1] != 0;
  state.counters["full_s"] = measure(mode, skewed);
  state.label = std::string(sh::shuffle_mode_name(mode)) + "/" + kDists[skewed ? 1 : 0];
}

const Case kCases[] = {
    {"Ablation_Shuffle", Ablation_Shuffle, {{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}},
};

}  // namespace

GFLINK_BENCH_MAIN(ablation_shuffle, kCases);
