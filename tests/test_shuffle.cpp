// Tests for the block-granular shuffle subsystem: deterministic
// partitioning with map-side combine, credit backpressure toward a slow
// receiver, the spill-to-DFS round trip under a tight receiver budget, and
// retry-with-backoff on injected transfer faults — at the service level
// and end-to-end through the engine.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "dataflow/dataset.hpp"
#include "dataflow/engine.hpp"
#include "shuffle/shuffle_service.hpp"
#include "sim/random.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace net = gflink::net;
namespace dfs = gflink::dfs;
namespace df = gflink::dataflow;
namespace sh = gflink::shuffle;
using sim::Co;

namespace {

struct KV {
  std::uint64_t key;
  std::int64_t value;
};

const mem::StructDesc& kv_desc() {
  static const mem::StructDesc d = mem::StructDescBuilder("KV", 8)
                                       .field("key", mem::FieldType::U64, 1, offsetof(KV, key))
                                       .field("value", mem::FieldType::I64, 1, offsetof(KV, value))
                                       .build();
  return d;
}

mem::RecordBatch make_batch(const std::vector<KV>& rows) {
  mem::RecordBatch b(&kv_desc());
  for (const KV& kv : rows) b.append_raw(&kv);
  return b;
}

KV row_at(const mem::RecordBatch& b, std::size_t i) {
  KV kv;
  std::memcpy(&kv, b.record_ptr(i), sizeof(KV));
  return kv;
}

std::uint64_t shuffle_key(const std::byte* rec) {
  std::uint64_t k;
  std::memcpy(&k, rec, sizeof(k));
  return k;
}

void combine_kv(std::byte* acc, const std::byte* rec) {
  KV a, r;
  std::memcpy(&a, acc, sizeof(KV));
  std::memcpy(&r, rec, sizeof(KV));
  a.value += r.value;
  std::memcpy(acc, &a, sizeof(KV));
}

/// A standalone service over a small cluster; partitions are owned
/// round-robin by workers 1..N.
struct Harness {
  explicit Harness(sh::ShuffleConfig cfg, int workers = 4)
      : cluster(simulation, make_cluster(workers)), gdfs(cluster),
        service(simulation, cluster, gdfs, std::move(cfg),
                [workers](int t) { return 1 + t % workers; }) {}

  static net::ClusterConfig make_cluster(int workers) {
    net::ClusterConfig c;
    c.num_workers = workers;
    return c;
  }

  sim::Simulation simulation;
  net::Cluster cluster;
  dfs::Gdfs gdfs;
  sh::ShuffleService service;
};

std::vector<KV> skewed_rows(int n) {
  std::vector<KV> rows;
  rows.reserve(static_cast<std::size_t>(n));
  std::uint64_t s = 7;
  for (int i = 0; i < n; ++i) {
    rows.push_back(KV{sim::splitmix64(s) % 37, static_cast<std::int64_t>(i)});
  }
  return rows;
}

TEST(Shuffle, PartitionWithCombineIsExactAndDeterministic) {
  const sh::ShuffleConfig cfg;
  Harness h(cfg);
  sh::ShuffleSession session(h.service, 4, "t");
  const std::vector<KV> rows = skewed_rows(500);
  mem::RecordBatch in = make_batch(rows);
  const sh::CombineFn combiner = &combine_kv;

  auto buckets = session.partition(in, &kv_desc(), &shuffle_key, &combiner);
  ASSERT_EQ(buckets.size(), 4u);

  // Combined: every key appears exactly once, in its hash-assigned bucket,
  // carrying the sum of its records' values.
  std::map<std::uint64_t, std::int64_t> expected;
  for (const KV& kv : rows) expected[kv.key] += kv.value;
  std::map<std::uint64_t, std::int64_t> got;
  for (int t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < buckets[static_cast<std::size_t>(t)].count(); ++i) {
      const KV kv = row_at(buckets[static_cast<std::size_t>(t)], i);
      std::uint64_t s = kv.key;
      EXPECT_EQ(static_cast<int>(sim::splitmix64(s) % 4), t);
      EXPECT_TRUE(got.emplace(kv.key, kv.value).second) << "key duplicated across buckets";
    }
  }
  EXPECT_EQ(got, expected);

  // Bit-identical across calls (first-occurrence order is deterministic).
  auto again = session.partition(in, &kv_desc(), &shuffle_key, &combiner);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(again[t].count(), buckets[t].count());
    for (std::size_t i = 0; i < again[t].count(); ++i) {
      EXPECT_EQ(0, std::memcmp(again[t].record_ptr(i), buckets[t].record_ptr(i), sizeof(KV)));
    }
  }

  // Without a combiner every record survives.
  auto raw = session.partition(in, &kv_desc(), &shuffle_key, nullptr);
  std::size_t total = 0;
  for (const auto& b : raw) total += b.count();
  EXPECT_EQ(total, rows.size());
}

TEST(Shuffle, CreditWindowBoundsInFlightBlocksAndStallsSenders) {
  sh::ShuffleConfig cfg;
  cfg.mode = sh::ShuffleMode::Pipelined;  // credits are a pipelined-transport mechanism
  cfg.block_bytes = 64;  // a 500-record bucket becomes ~125 blocks
  cfg.credits_per_partition = 2;
  Harness h(cfg, 2);
  auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");

  h.simulation.spawn([](sh::ShuffleSession& s) -> Co<void> {
    auto buckets = s.partition(make_batch(skewed_rows(500)), &kv_desc(), &shuffle_key, nullptr);
    co_await s.send(2, std::move(buckets));  // partition 0 is owned by worker 1
    co_await s.finish();
  }(*session));
  h.simulation.run();

  EXPECT_LE(h.service.max_blocks_in_flight(), 2);
  EXPECT_GE(h.cluster.metrics().counter_value("shuffle.credit_stalls"), 1.0);
  EXPECT_GE(h.cluster.metrics().counter_value("shuffle.blocks"), 60.0);
}

TEST(Shuffle, SpillRoundTripKeepsRecordsIntact) {
  sh::ShuffleConfig cfg;
  cfg.receiver_budget_bytes = 1024;  // force the second deposit to spill
  Harness h(cfg, 2);
  auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");
  const std::vector<KV> rows = skewed_rows(200);  // 3200 B > budget

  std::vector<KV> taken;
  h.simulation.spawn([](sh::ShuffleSession& s, const std::vector<KV>& in,
                        std::vector<KV>& out) -> Co<void> {
    auto buckets = s.partition(make_batch(in), &kv_desc(), &shuffle_key, nullptr);
    co_await s.send(2, std::move(buckets));
    co_await s.finish();
    // Resident bytes stay bounded by the budget plus one in-flight bucket.
    auto batches = co_await s.take(0, 1);
    for (const auto& b : batches) {
      for (std::size_t i = 0; i < b.count(); ++i) out.push_back(row_at(b, i));
    }
    // Checked after take(): under the async offload the byte accounting
    // runs worker-side when a block lands, which may be after finish();
    // take() awaits every in-flight block, so by here it is final.
    EXPECT_GT(s.spilled_bytes(), 0u);
  }(*session, rows, taken));
  h.simulation.run();

  EXPECT_EQ(taken.size(), rows.size());
  // Same multiset of records out as in (order may differ across deposits).
  auto key_of = [](const KV& kv) { return std::make_pair(kv.key, kv.value); };
  std::multiset<std::pair<std::uint64_t, std::int64_t>> in_set, out_set;
  for (const KV& kv : rows) in_set.insert(key_of(kv));
  for (const KV& kv : taken) out_set.insert(key_of(kv));
  EXPECT_EQ(in_set, out_set);

  const auto& m = h.cluster.metrics();
  EXPECT_GT(m.counter_value("shuffle.spill_bytes"), 0.0);
  EXPECT_EQ(m.counter_value("shuffle.spill_bytes"), m.counter_value("shuffle.unspill_bytes"));
  EXPECT_EQ(h.service.resident_bytes(1), 0u);  // all taken
}

TEST(Shuffle, InjectedTransferFaultsRetryWithBackoff) {
  sh::ShuffleConfig cfg;
  cfg.retry_backoff = sim::millis(10);
  Harness h(cfg, 2);
  auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");
  h.service.inject_transfer_faults(2);

  h.simulation.spawn([](sh::ShuffleSession& s) -> Co<void> {
    auto buckets = s.partition(make_batch(skewed_rows(50)), &kv_desc(), &shuffle_key, nullptr);
    co_await s.send(2, std::move(buckets));
    co_await s.finish();
  }(*session));
  h.simulation.run();

  EXPECT_EQ(h.service.pending_injected_faults(), 0);
  const auto& m = h.cluster.metrics();
  EXPECT_EQ(m.counter_value("shuffle.transfer_faults"), 2.0);
  EXPECT_EQ(m.counter_value("shuffle.transfer_retries"), 2.0);
  EXPECT_EQ(m.counter_value("shuffle.transfer_aborts"), 0.0);
  // Two consecutive faults on the first block: backoff of 10 ms then 20 ms.
  EXPECT_GE(h.simulation.now(), sim::millis(30));
}

// ---- End-to-end through the engine -----------------------------------------

df::EngineConfig tiny_engine_config() {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = 4;
  cfg.dfs.replication = 2;
  cfg.job_submit_overhead = 0;
  cfg.job_schedule_overhead = 0;
  cfg.stage_schedule_overhead = 0;
  cfg.task_deploy_overhead = 0;
  return cfg;
}

/// Sum values per key over a shuffled reduce; returns total over all keys.
std::int64_t run_reduce_job(df::Engine& engine) {
  std::int64_t total = 0;
  engine.run([&total](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "shuffle-e2e");
    co_await job.submit();
    auto ds = df::DataSet<KV>::from_generator(
                  eng, &kv_desc(), 8,
                  [](int part, std::vector<KV>& out) {
                    for (std::uint64_t i = static_cast<std::uint64_t>(part); i < 4000; i += 8) {
                      out.push_back(KV{i % 997, static_cast<std::int64_t>(i)});
                    }
                  })
                  .reduce_by_key("sum", df::OpCost{1.0, 16.0},
                                 [](const KV& kv) { return kv.key; },
                                 [](KV& acc, const KV& kv) { acc.value += kv.value; });
    auto rows = co_await ds.collect(job);
    job.finish();
    for (const KV& kv : rows) total += kv.value;
  });
  return total;
}

constexpr std::int64_t kExpectedTotal = 4000LL * 3999 / 2;

TEST(Shuffle, EngineRetriesInjectedFaultsToExactResult) {
  df::Engine engine(tiny_engine_config());
  engine.shuffle_service().inject_transfer_faults(3);
  EXPECT_EQ(run_reduce_job(engine), kExpectedTotal);
  EXPECT_EQ(engine.shuffle_service().pending_injected_faults(), 0);
  const auto& m = engine.metrics();
  EXPECT_EQ(m.counter_value("shuffle.transfer_faults"), 3.0);
  EXPECT_EQ(m.counter_value("shuffle.transfer_aborts"), 0.0);
}

TEST(Shuffle, AllTransportsAgreeSpillOrNot) {
  // The exchange transport is a pure scheduling choice: every mode produces
  // the same reduced result, pipelining is never slower than the barrier,
  // and the one-sided RDMA-style exchange is never slower than pipelined.
  df::EngineConfig barrier_cfg = tiny_engine_config();
  barrier_cfg.shuffle.mode = sh::ShuffleMode::Barrier;
  barrier_cfg.shuffle.spill_enabled = false;
  df::Engine barrier(barrier_cfg);
  EXPECT_EQ(run_reduce_job(barrier), kExpectedTotal);

  df::EngineConfig pipelined_cfg = tiny_engine_config();
  pipelined_cfg.shuffle.mode = sh::ShuffleMode::Pipelined;
  df::Engine pipelined(pipelined_cfg);
  EXPECT_EQ(run_reduce_job(pipelined), kExpectedTotal);
  EXPECT_LE(pipelined.now(), barrier.now());

  // One-sided is the engine default; the explicit mode must agree with it.
  df::Engine one_sided(tiny_engine_config());
  EXPECT_EQ(run_reduce_job(one_sided), kExpectedTotal);
  EXPECT_LE(one_sided.now(), pipelined.now());
  EXPECT_GT(one_sided.metrics().counter_value("shuffle.one_sided_writes"), 0.0);
  EXPECT_GT(one_sided.metrics().counter_value("net.rdma_bytes"), 0.0);
  EXPECT_EQ(one_sided.metrics().counter_value("shuffle.bytes"), 0.0);  // no block path

  df::EngineConfig spill_cfg = tiny_engine_config();
  spill_cfg.shuffle.receiver_budget_bytes = 256;
  df::Engine spilling(spill_cfg);
  EXPECT_EQ(run_reduce_job(spilling), kExpectedTotal);
  EXPECT_GT(spilling.metrics().counter_value("shuffle.spill_bytes"), 0.0);
  EXPECT_GE(spilling.now(), one_sided.now());  // spilling still costs time
}

TEST(Shuffle, AsyncSpillAccountsBytesExactlyOnce) {
  // Regression guard for the detached-offload double-count hazard: the
  // shuffle.spill_bytes counter is bumped at exactly one point (worker-side
  // on land, never at enqueue), so both spill paths see identical volumes,
  // every spilled byte is un-spilled at take(), and the async offload's
  // per-tier byte totals reconcile with the shuffle-level counter.
  auto run_path = [](bool async_path, double* spill_bytes, std::uint64_t* session_bytes,
                     sim::Time* elapsed) {
    sh::ShuffleConfig cfg;
    cfg.receiver_budget_bytes = 1024;
    cfg.spill_async = async_path;
    Harness h(cfg, 2);
    auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");
    std::size_t taken = 0;
    h.simulation.spawn([](sh::ShuffleSession& s, std::size_t& n) -> Co<void> {
      auto buckets = s.partition(make_batch(skewed_rows(200)), &kv_desc(), &shuffle_key, nullptr);
      co_await s.send(2, std::move(buckets));
      co_await s.finish();
      auto batches = co_await s.take(0, 1);
      for (const auto& b : batches) n += b.count();
    }(*session, taken));
    h.simulation.run();
    EXPECT_EQ(taken, 200u);
    const auto& m = h.cluster.metrics();
    *spill_bytes = m.counter_value("shuffle.spill_bytes");
    EXPECT_EQ(*spill_bytes, m.counter_value("shuffle.unspill_bytes"));
    *session_bytes = session->spilled_bytes();
    *elapsed = h.simulation.now();
    if (async_path) {
      double offloaded = 0.0;
      for (const char* tier : {"memory", "disk", "dfs"}) {
        offloaded += m.counter_value("spill_offload_bytes_total", {{"tier", tier}});
      }
      EXPECT_EQ(offloaded, *spill_bytes);
    }
  };
  double sync_bytes = 0.0, async_bytes = 0.0;
  std::uint64_t sync_session = 0, async_session = 0;
  sim::Time sync_t = 0, async_t = 0;
  run_path(false, &sync_bytes, &sync_session, &sync_t);
  run_path(true, &async_bytes, &async_session, &async_t);
  EXPECT_GT(async_bytes, 0.0);
  EXPECT_EQ(async_bytes, sync_bytes);  // same volume, each counted once
  EXPECT_EQ(async_session, static_cast<std::uint64_t>(async_bytes));
  EXPECT_EQ(sync_session, static_cast<std::uint64_t>(sync_bytes));
  EXPECT_LE(async_t, sync_t);  // the offload moved tier I/O off the path
}

}  // namespace
