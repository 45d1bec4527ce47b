// Tests for the dataflow engine: sources, operator chains, shuffles,
// actions, joins, locality, slots and job accounting.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <numeric>

#include "dataflow/dataset.hpp"
#include "dataflow/engine.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace df = gflink::dataflow;
using df::DataSet;
using df::Engine;
using df::Job;
using df::OpCost;
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

df::EngineConfig fast_config(int workers = 3) {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = workers;
  cfg.dfs.replication = workers >= 2 ? 2 : 1;
  // Keep control-plane overheads tiny so arithmetic-oriented tests can
  // reason about data-plane costs.
  cfg.job_submit_overhead = sim::micros(10);
  cfg.job_schedule_overhead = sim::micros(10);
  cfg.stage_schedule_overhead = 0;
  cfg.task_deploy_overhead = 0;
  return cfg;
}

/// Source of KVs 0..n-1 (key = i % key_mod, value = i), spread over parts.
DataSet<KV> iota(Engine& e, int partitions, std::uint64_t n, std::uint64_t key_mod) {
  return DataSet<KV>::from_generator(
      e, &kv_desc(), partitions,
      [n, key_mod, partitions](int part, std::vector<KV>& out) {
        for (std::uint64_t i = part; i < n; i += static_cast<std::uint64_t>(partitions)) {
          out.push_back(KV{i % key_mod, static_cast<std::int64_t>(i)});
        }
      });
}

}  // namespace

TEST(Engine, DefaultParallelismIsWorkersTimesSlots) {
  auto cfg = fast_config(3);
  cfg.slots_per_worker = 2;
  Engine e(cfg);
  EXPECT_EQ(e.default_parallelism(), 6);
  cfg.slots_per_worker = 0;  // falls back to CPU cores (4)
  Engine e2(cfg);
  EXPECT_EQ(e2.default_parallelism(), 12);
}

TEST(Engine, SourceGeneratesAllRecordsAcrossPartitions) {
  Engine e(fast_config());
  std::uint64_t count = 0;
  e.run([&count](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 6, 1000, 1000);
    count = co_await ds.count(job);
    job.finish();
  });
  EXPECT_EQ(count, 1000u);
}

TEST(Engine, MapTransformsEveryRecord) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 100, 100).map<KV>(
        &kv_desc(), "double", OpCost{2.0, 16.0},
        [](const KV& kv) { return KV{kv.key, kv.value * 2}; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 100u);
  std::map<std::uint64_t, std::int64_t> by_key;
  for (const auto& kv : rows) by_key[kv.key] = kv.value;
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(by_key[i], static_cast<std::int64_t>(2 * i));
}

TEST(Engine, FilterDropsRecords) {
  Engine e(fast_config());
  std::uint64_t n = 0;
  e.run([&n](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 1000, 1000).filter("evens", OpCost{1.0, 8.0}, [](const KV& kv) {
      return kv.value % 2 == 0;
    });
    n = co_await ds.count(job);
    job.finish();
  });
  EXPECT_EQ(n, 500u);
}

TEST(Engine, FlatMapEmitsZeroToMany) {
  Engine e(fast_config());
  std::uint64_t n = 0;
  e.run([&n](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 100, 100).flat_map<KV>(
        &kv_desc(), "explode", OpCost{1.0, 8.0},
        [](const KV& kv, df::FlatCollector<KV>& out) {
          for (std::int64_t j = 0; j < kv.value % 3; ++j) out.add(kv);
        });
    n = co_await ds.count(job);
    job.finish();
  });
  // Sum over i in [0,100) of (i % 3) = 33*(0+1+2) + 0 = 99.
  EXPECT_EQ(n, 99u);
}

TEST(Engine, ReduceByKeyAggregatesCorrectly) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 6, 1000, 10).reduce_by_key(
        "sum", OpCost{4.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](KV& acc, const KV& kv) { acc.value += kv.value; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 10u);
  std::map<std::uint64_t, std::int64_t> by_key;
  for (const auto& kv : rows) by_key[kv.key] = kv.value;
  // Key k holds sum of k, k+10, ..., k+990 = 100*k + 10*(0+..+99)*... check
  // directly against a reference computation.
  std::map<std::uint64_t, std::int64_t> expect;
  for (std::uint64_t i = 0; i < 1000; ++i) expect[i % 10] += static_cast<std::int64_t>(i);
  EXPECT_EQ(by_key, expect);
}

TEST(Engine, GlobalReduceProducesOneRecord) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 6, 100, 100).reduce("total", OpCost{1.0, 8.0},
                                            [](KV& acc, const KV& kv) { acc.value += kv.value; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value, 99 * 100 / 2);
}

TEST(Engine, ChainedOperatorsStayInOneStage) {
  Engine e(fast_config());
  df::JobStats stats;
  e.run([&stats](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 100, 100)
                  .map<KV>(&kv_desc(), "m1", OpCost{}, [](const KV& kv) { return kv; })
                  .filter("f1", OpCost{}, [](const KV&) { return true; })
                  .map<KV>(&kv_desc(), "m2", OpCost{}, [](const KV& kv) { return kv; });
    (void)co_await ds.count(job);
    job.finish();
    stats = job.stats();
  });
  // One source stage + one chained record stage.
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_EQ(stats.stages[0].name, "source");
  EXPECT_EQ(stats.stages[1].name, "m2");
}

TEST(Engine, MapPartitionSeesWholeBlocks) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    // Partition-local count: each partition emits one record.
    auto ds = iota(eng, 5, 100, 100).map_partition<KV>(
        &kv_desc(), "pcount", OpCost{1.0, 8.0},
        [](std::span<const KV> part, std::vector<KV>& out) {
          out.push_back(KV{0, static_cast<std::int64_t>(part.size())});
        });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 5u);
  std::int64_t total = 0;
  for (const auto& kv : rows) total += kv.value;
  EXPECT_EQ(total, 100);
}

TEST(Engine, KnownSizeBatchesHaveNoSlack) {
  Engine e(fast_config());
  df::DataHandle source, partitioned;
  std::shared_ptr<mem::RecordBatch> collected;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    // 1000 records over 3 partitions: 334/333/333 records each, sizes a
    // doubling buffer would overshoot.
    source = co_await iota(eng, 3, 1000, 1000).materialize(job);
    partitioned = co_await DataSet<KV>::from_handle(eng, source)
                      .map_partition<KV>(&kv_desc(), "copy", OpCost{1.0, 16.0},
                                         [](std::span<const KV> part, std::vector<KV>& out) {
                                           out.assign(part.begin(), part.end());
                                         })
                      .materialize(job);
    collected = co_await eng.collect(job, DataSet<KV>::from_handle(eng, partitioned).node());
    job.finish();
  });
  for (const df::DataHandle& h : {source, partitioned}) {
    ASSERT_EQ(h->parts.size(), 3u);
    for (const auto& part : h->parts) {
      EXPECT_GT(part.batch->count(), 0u);
      EXPECT_EQ(part.batch->bytes().capacity(), part.batch->bytes().size());
    }
  }
  ASSERT_EQ(collected->count(), 1000u);
  EXPECT_EQ(collected->bytes().capacity(), collected->bytes().size());
  const KV* rows = collected->aos_view<KV>();
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < collected->count(); ++i) sum += rows[i].value;
  EXPECT_EQ(sum, 999 * 1000 / 2);
}

TEST(DataSetDeathTest, MismatchedDescriptorAbortsWhenTheNodeIsBuilt) {
  // Same fields as KV but no host offsets recorded, so the descriptor
  // cannot match KV's host layout.
  static const mem::StructDesc unmirrored = mem::StructDescBuilder("KV", 8)
                                                .field("key", mem::FieldType::U64)
                                                .field("value", mem::FieldType::I64)
                                                .build();
  ASSERT_FALSE(unmirrored.matches_host_layout<KV>());
  const auto build_map = [] {
    Engine e(fast_config());
    (void)iota(e, 2, 10, 10).map<KV>(&unmirrored, "m", OpCost{}, [](const KV& kv) { return kv; });
  };
  EXPECT_DEATH(build_map(), "descriptor does not match host layout");
  const auto build_source = [] {
    Engine e(fast_config());
    (void)DataSet<KV>::from_generator(e, &unmirrored, 2, [](int, std::vector<KV>&) {});
  };
  EXPECT_DEATH(build_source(), "descriptor does not match host layout");
}

TEST(Engine, AsyncMapPartitionGetsContext) {
  Engine e(fast_config());
  int seen_workers = 0;
  bool extension_seen = false;
  int sentinel = 42;
  e.set_extension(1, &sentinel);
  e.set_extension(2, &sentinel);
  e.set_extension(3, &sentinel);
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 3, 30, 30).async_map_partition<KV>(
        &kv_desc(), "gpuish",
        [&](df::TaskContext& ctx, const mem::RecordBatch& in,
            mem::RecordBatch& out) -> Co<void> {
          ++seen_workers;
          extension_seen = extension_seen || (ctx.extension() == &sentinel);
          co_await ctx.sim().delay(sim::millis(1));
          for (std::size_t i = 0; i < in.count(); ++i) out.append_raw(in.record_ptr(i));
        });
    auto n = co_await ds.count(job);
    EXPECT_EQ(n, 30u);
    job.finish();
  });
  EXPECT_EQ(seen_workers, 3);
  EXPECT_TRUE(extension_seen);
}

TEST(Engine, ShuffleMovesBytesOverNetwork) {
  Engine e(fast_config(4));
  double net_bytes = 0;
  e.run([&net_bytes](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 8, 10000, 1000).reduce_by_key(
        "sum", OpCost{1.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](KV& acc, const KV& kv) { acc.value += kv.value; });
    (void)co_await ds.count(job);
    job.finish();
    // The default one-sided transport moves shuffle payloads over the
    // RDMA pipes, which account separately from the message-passing NIC.
    net_bytes = eng.cluster().metrics().counter_value("net.bytes") +
                eng.cluster().metrics().counter_value("net.rdma_bytes");
    EXPECT_GT(job.stats().shuffle_bytes, 0u);
  });
  EXPECT_GT(net_bytes, 0.0);
}

TEST(Engine, MapSideCombineShrinksShuffle) {
  // With few keys, local combine should make shuffle bytes proportional to
  // keys*partitions, far below total records.
  Engine e(fast_config(4));
  std::uint64_t shuffle_bytes = 0;
  e.run([&shuffle_bytes](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 8, 100000, 4).reduce_by_key(
        "sum", OpCost{1.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](KV& acc, const KV& kv) { acc.value += kv.value; });
    (void)co_await ds.count(job);
    job.finish();
    shuffle_bytes = job.stats().shuffle_bytes;
  });
  // 4 keys * 8 partitions * 16 bytes = 512 max (only remote buckets count).
  EXPECT_LE(shuffle_bytes, 512u);
  EXPECT_GT(shuffle_bytes, 0u);
}

TEST(Engine, DfsBackedSourceChargesIoAndPrefersLocality) {
  auto cfg = fast_config(4);
  cfg.dfs.block_size = 1 << 20;
  Engine e(cfg);
  std::uint64_t io_read = 0;
  double remote = 0, local = 0;
  e.dfs().create_file("/input", 8 << 20);  // 8 blocks over 4 workers
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = DataSet<KV>::from_generator(
        eng, &kv_desc(), 8,
        [](int part, std::vector<KV>& out) {
          out.push_back(KV{static_cast<std::uint64_t>(part), 1});
        },
        OpCost{8.0, 0.0}, "/input");
    (void)co_await ds.count(job);
    job.finish();
    io_read = job.stats().io_bytes_read;
    local = eng.cluster().metrics().counter_value("dfs.local_reads");
    remote = eng.cluster().metrics().counter_value("dfs.remote_reads");
  });
  EXPECT_EQ(io_read, 8u << 20);
  // Splits are assigned to primary-replica holders: all reads local.
  EXPECT_EQ(local, 8.0);
  EXPECT_EQ(remote, 0.0);
}

TEST(Engine, SlotsLimitTaskConcurrency) {
  // One worker, one slot, 4 partitions each costing ~1 ms of CPU: the stage
  // must take ~4 ms. With 4 slots it takes ~1 ms.
  auto run_with_slots = [](int slots) {
    auto cfg = fast_config(1);
    cfg.dfs.replication = 1;
    cfg.slots_per_worker = slots;
    cfg.cluster.worker.cpu.record_overhead = 1000;  // 1 us per record
    Engine e(cfg);
    sim::Time total = 0;
    e.run([&total](Engine& eng) -> Co<void> {
      Job job(eng, "t");
      co_await job.submit();
      auto ds = iota(eng, 4, 4000, 4000).map<KV>(&kv_desc(), "work", OpCost{0.0, 0.0},
                                                 [](const KV& kv) { return kv; });
      (void)co_await ds.count(job);
      job.finish();
      total = job.stats().finished_at - job.stats().running_at;
    });
    return total;
  };
  auto serial = run_with_slots(1);
  auto parallel = run_with_slots(4);
  EXPECT_GT(serial, parallel * 3);
}

TEST(Engine, RecordCostsScaleStageTime) {
  auto run_with_flops = [](double flops) {
    Engine e(fast_config(2));
    sim::Time t = 0;
    e.run([&t, flops](Engine& eng) -> Co<void> {
      Job job(eng, "t");
      co_await job.submit();
      auto ds = iota(eng, 2, 20000, 20000)
                    .map<KV>(&kv_desc(), "work", OpCost{flops, 0.0},
                             [](const KV& kv) { return kv; });
      (void)co_await ds.count(job);
      job.finish();
      t = job.stats().finished_at - job.stats().running_at;
    });
    return t;
  };
  // 100x the flops per record should dominate and scale stage time.
  EXPECT_GT(run_with_flops(400000.0), 10 * run_with_flops(400.0));
}

TEST(Engine, WriteDfsReplicates) {
  Engine e(fast_config(3));
  std::uint64_t written = 0;
  double dfs_written = 0;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 3, 3000, 3000);
    co_await ds.write_dfs(job, "/out");
    job.finish();
    written = job.stats().io_bytes_written;
    dfs_written = eng.cluster().metrics().counter_value("dfs.bytes_written");
  });
  EXPECT_EQ(written, 3000u * 16u);
  EXPECT_DOUBLE_EQ(dfs_written, 3000.0 * 16.0);
}

TEST(Engine, JoinMatchesKeys) {
  Engine e(fast_config(3));
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto left = co_await iota(eng, 3, 10, 10).materialize(job);
    auto right = co_await iota(eng, 3, 20, 10).materialize(job);  // keys repeat twice
    auto joined = co_await df::join<KV, KV, KV>(
        job, left, right, [](const KV& kv) { return kv.key; },
        [](const KV& kv) { return kv.key; },
        [](const KV& l, const KV& r, df::FlatCollector<KV>& out) {
          out.add(KV{l.key, l.value + r.value});
        },
        &kv_desc(), OpCost{8.0, 32.0}, 3);
    auto ds = DataSet<KV>::from_handle(eng, joined);
    rows = co_await ds.collect(job);
    job.finish();
  });
  // Every left key matches exactly two right records.
  EXPECT_EQ(rows.size(), 20u);
}

TEST(Engine, MaterializedHandleReusedWithoutIo) {
  auto cfg = fast_config(3);
  cfg.dfs.block_size = 1 << 20;
  Engine e(cfg);
  e.dfs().create_file("/in", 3 << 20);
  double reads_after_first = -1;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto src = DataSet<KV>::from_generator(
        eng, &kv_desc(), 3,
        [](int part, std::vector<KV>& out) {
          for (int i = 0; i < 100; ++i) out.push_back(KV{static_cast<std::uint64_t>(part), i});
        },
        OpCost{8.0, 0.0}, "/in");
    auto handle = co_await src.materialize(job);
    double reads0 = eng.cluster().metrics().counter_value("dfs.blocks_read");
    // Iterate on the cached handle: no further DFS traffic.
    for (int iter = 0; iter < 3; ++iter) {
      auto ds = DataSet<KV>::from_handle(eng, handle)
                    .map<KV>(&kv_desc(), "it", OpCost{4.0, 16.0},
                             [](const KV& kv) { return kv; });
      handle = co_await ds.materialize(job);
    }
    reads_after_first = eng.cluster().metrics().counter_value("dfs.blocks_read") - reads0;
    job.finish();
  });
  EXPECT_EQ(reads_after_first, 0.0);
}

TEST(Engine, BroadcastAndGatherChargeNetwork) {
  Engine e(fast_config(4));
  double bytes = 0;
  e.run([&bytes](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    co_await eng.broadcast(job, 1 << 20);
    co_await eng.gather(job, 1 << 10);
    job.finish();
    bytes = eng.cluster().metrics().counter_value("net.bytes");
  });
  EXPECT_DOUBLE_EQ(bytes, 4.0 * (1 << 20) + 4.0 * (1 << 10));
}

TEST(Engine, JobStatsDecomposeSubmissionAndStages) {
  auto cfg = fast_config(2);
  cfg.job_submit_overhead = sim::millis(900);
  cfg.job_schedule_overhead = sim::millis(400);
  Engine e(cfg);
  df::JobStats stats;
  e.run([&stats](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 2, 100, 10).reduce_by_key(
        "sum", OpCost{1.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](KV& acc, const KV& kv) { acc.value += kv.value; });
    (void)co_await ds.count(job);
    job.finish();
    stats = job.stats();
  });
  EXPECT_EQ(stats.running_at - stats.submitted_at, sim::millis(1300));
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_EQ(stats.stages[1].name, "sum");
  EXPECT_GE(stats.stages[1].begin, stats.stages[0].end);
  EXPECT_GT(stats.stages[0].records_out, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e(fast_config(3));
    sim::Time end = 0;
    std::uint64_t n = 0;
    e.run([&](Engine& eng) -> Co<void> {
      Job job(eng, "t");
      co_await job.submit();
      auto ds = iota(eng, 6, 5000, 97).reduce_by_key(
          "sum", OpCost{3.0, 16.0}, [](const KV& kv) { return kv.key; },
          [](KV& acc, const KV& kv) { acc.value += kv.value; });
      n = co_await ds.count(job);
      job.finish();
      end = eng.now();
    });
    return std::pair<sim::Time, std::uint64_t>(end, n);
  };
  EXPECT_EQ(run_once(), run_once());
}

// Property sweep: reduce_by_key conserves the value sum for any
// (partitions, records, keys) combination.
class ReducePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, std::uint64_t>> {};

TEST_P(ReducePropertyTest, SumConserved) {
  auto [partitions, records, keys] = GetParam();
  Engine e(fast_config(3));
  std::vector<KV> rows;
  e.run([&, partitions = partitions, records = records, keys = keys](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, partitions, records, keys)
                  .reduce_by_key("sum", OpCost{1.0, 16.0},
                                 [](const KV& kv) { return kv.key; },
                                 [](KV& acc, const KV& kv) { acc.value += kv.value; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  std::int64_t total = 0;
  for (const auto& kv : rows) total += kv.value;
  const auto n = static_cast<std::int64_t>(records);
  EXPECT_EQ(total, n * (n - 1) / 2);
  EXPECT_EQ(rows.size(), std::min<std::uint64_t>(records, keys));
}

INSTANTIATE_TEST_SUITE_P(Grid, ReducePropertyTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(100ULL, 5000ULL),
                                            ::testing::Values(1ULL, 7ULL, 1000ULL)));
