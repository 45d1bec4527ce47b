// Tests for the extended operator set: distinct, sample, take, union,
// coGroup — plus cross-operator composition.
#include <gtest/gtest.h>

#include <set>

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
  cfg.dfs.replication = std::min(2, workers);
  cfg.job_submit_overhead = 0;
  cfg.job_schedule_overhead = 0;
  cfg.stage_schedule_overhead = 0;
  cfg.task_deploy_overhead = 0;
  return cfg;
}

DataSet<KV> iota(Engine& e, int partitions, std::uint64_t n, std::uint64_t key_mod) {
  return DataSet<KV>::from_generator(
      e, &kv_desc(), partitions, [n, key_mod, partitions](int part, std::vector<KV>& out) {
        for (std::uint64_t i = static_cast<std::uint64_t>(part); i < n;
             i += static_cast<std::uint64_t>(partitions)) {
          out.push_back(KV{i % key_mod, static_cast<std::int64_t>(i)});
        }
      });
}

}  // namespace

TEST(Operators, DistinctKeepsOnePerKey) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 6, 1000, 37).distinct("distinct", OpCost{4.0, 16.0},
                                              [](const KV& kv) { return kv.key; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  EXPECT_EQ(rows.size(), 37u);
  std::set<std::uint64_t> keys;
  for (const auto& kv : rows) keys.insert(kv.key);
  EXPECT_EQ(keys.size(), 37u);
}

TEST(Operators, SampleIsDeterministicAndProportional) {
  Engine e(fast_config());
  std::uint64_t n1 = 0, n2 = 0;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto src = iota(eng, 6, 50'000, 1ULL << 40);
    auto sampled = src.sample("s", 0.25, [](const KV& kv) { return kv.value * 7919; });
    n1 = co_await sampled.count(job);
    n2 = co_await sampled.count(job);  // same plan, same sample
    job.finish();
  });
  EXPECT_EQ(n1, n2);
  EXPECT_NEAR(static_cast<double>(n1), 12'500.0, 400.0);
}

TEST(Operators, SampleExtremes) {
  Engine e(fast_config());
  std::uint64_t none = 1, all = 0;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto src = iota(eng, 4, 1000, 1000);
    none = co_await src.sample("none", 0.0, [](const KV& kv) { return kv.value; }).count(job);
    all = co_await src.sample("all", 1.0, [](const KV& kv) { return kv.value; }).count(job);
    job.finish();
  });
  EXPECT_EQ(none, 0u);
  EXPECT_EQ(all, 1000u);
}

TEST(Operators, TakeReturnsExactlyN) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto src = iota(eng, 5, 10'000, 1ULL << 40);
    rows = co_await src.take(job, 17);
    job.finish();
  });
  EXPECT_EQ(rows.size(), 17u);
}

TEST(Operators, TakeMoreThanAvailableReturnsAll) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    rows = co_await iota(eng, 3, 10, 10).take(job, 100);
    job.finish();
  });
  EXPECT_EQ(rows.size(), 10u);
}

TEST(Operators, UnionConcatenatesWithoutCost) {
  Engine e(fast_config());
  std::uint64_t n = 0;
  double net_before = 0, net_after = 0;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto a = co_await iota(eng, 3, 100, 100).materialize(job);
    auto b = co_await iota(eng, 3, 200, 200).materialize(job);
    net_before = eng.cluster().metrics().counter_value("net.bytes");
    auto u = eng.union_of(a, b);
    net_after = eng.cluster().metrics().counter_value("net.bytes");
    n = co_await DataSet<KV>::from_handle(eng, u).count(job);
    job.finish();
  });
  EXPECT_EQ(n, 300u);
  EXPECT_DOUBLE_EQ(net_before, net_after);  // union moved nothing
}

TEST(Operators, CoGroupSeesFullGroups) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    // Left: keys 0..9 once. Right: keys 0..9 three times each.
    auto left = co_await iota(eng, 3, 10, 10).materialize(job);
    auto right = co_await iota(eng, 3, 30, 10).materialize(job);
    auto grouped = co_await df::co_group<KV, KV, KV>(
        job, left, right, [](const KV& kv) { return kv.key; },
        [](const KV& kv) { return kv.key; },
        [](const std::vector<const KV*>& l, const std::vector<const KV*>& r,
           df::FlatCollector<KV>& out) {
          // Emit one record per key: count of left in key, sum of right.
          std::int64_t sum = 0;
          for (const KV* kv : r) sum += kv->value;
          out.add(KV{l.empty() ? ~0ULL : l[0]->key,
                     static_cast<std::int64_t>(l.size()) * 1000 + sum});
        },
        &kv_desc(), OpCost{8.0, 32.0}, 3);
    rows = co_await DataSet<KV>::from_handle(eng, grouped).collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 10u);
  for (const auto& kv : rows) {
    ASSERT_NE(kv.key, ~0ULL);  // every key had left records
    // value = 1*1000 + (k + k+10 + k+20)
    EXPECT_EQ(kv.value, 1000 + static_cast<std::int64_t>(3 * kv.key + 30));
  }
}

TEST(Operators, CoGroupHandlesOneSidedKeys) {
  Engine e(fast_config());
  std::uint64_t left_only = 0, right_only = 0, both = 0;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto left = co_await iota(eng, 3, 10, 20).materialize(job);    // keys 0..9
    auto right = co_await iota(eng, 3, 40, 20).materialize(job);   // keys 0..19
    auto grouped = co_await df::co_group<KV, KV, KV>(
        job, left, right, [](const KV& kv) { return kv.key; },
        [](const KV& kv) { return kv.key; },
        [&](const std::vector<const KV*>& l, const std::vector<const KV*>& r,
            df::FlatCollector<KV>& out) {
          if (!l.empty() && !r.empty()) ++both;
          if (!l.empty() && r.empty()) ++left_only;
          if (l.empty() && !r.empty()) ++right_only;
          out.add(KV{0, 0});
        },
        &kv_desc(), OpCost{8.0, 32.0}, 3);
    (void)co_await DataSet<KV>::from_handle(eng, grouped).count(job);
    job.finish();
  });
  EXPECT_EQ(both, 10u);
  EXPECT_EQ(left_only, 0u);
  EXPECT_EQ(right_only, 10u);
}

TEST(Operators, GroupReduceSeesWholeGroups) {
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    // Median-ish per key: emit the max value of each group (needs the whole
    // group — not expressible as an associative combine of this test's
    // shape on purpose: also emit the group size).
    auto ds = iota(eng, 6, 1000, 10).group_reduce<KV>(
        &kv_desc(), "groupMax", OpCost{8.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](const std::vector<const KV*>& group, df::FlatCollector<KV>& out) {
          std::int64_t max_v = 0;
          for (const KV* kv : group) max_v = std::max(max_v, kv->value);
          out.add(KV{group[0]->key, max_v * 1000 + static_cast<std::int64_t>(group.size())});
        });
    rows = co_await ds.collect(job);
    job.finish();
  });
  ASSERT_EQ(rows.size(), 10u);
  for (const auto& kv : rows) {
    // Key k appears for values k, k+10, ..., k+990: max = 990+k, count 100.
    EXPECT_EQ(kv.value, (990 + static_cast<std::int64_t>(kv.key)) * 1000 + 100);
  }
}

TEST(Operators, GroupReduceCanChangeRecordType) {
  Engine e(fast_config());
  std::uint64_t n = 0;
  e.run([&n](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto ds = iota(eng, 4, 500, 25).group_reduce<KV>(
        &kv_desc(), "explode", OpCost{4.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](const std::vector<const KV*>& group, df::FlatCollector<KV>& out) {
          // Emit two records per group.
          out.add(*group.front());
          out.add(*group.back());
        });
    n = co_await ds.count(job);
    job.finish();
  });
  EXPECT_EQ(n, 50u);
}

TEST(Operators, GroupReduceShufflesRawRecords) {
  // Unlike reduceByKey (map-side combine), groupReduce ships every record:
  // shuffle volume must scale with the input, not the key count.
  Engine e(fast_config(4));
  std::uint64_t grp_shuffle = 0, red_shuffle = 0;
  e.run([&](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto src = iota(eng, 8, 20000, 4);
    auto g = src.group_reduce<KV>(
        &kv_desc(), "group", OpCost{2.0, 16.0}, [](const KV& kv) { return kv.key; },
        [](const std::vector<const KV*>& group, df::FlatCollector<KV>& out) {
          out.add(*group.front());
        });
    (void)co_await g.count(job);
    grp_shuffle = job.stats().shuffle_bytes;
    auto r = src.reduce_by_key("reduce", OpCost{2.0, 16.0},
                               [](const KV& kv) { return kv.key; },
                               [](KV& acc, const KV& kv) { acc.value += kv.value; });
    (void)co_await r.count(job);
    red_shuffle = job.stats().shuffle_bytes - grp_shuffle;
    job.finish();
  });
  EXPECT_GT(grp_shuffle, 100 * red_shuffle);
}

TEST(Operators, ComposedPipeline) {
  // union -> distinct -> sample -> reduce: operators compose.
  Engine e(fast_config());
  std::vector<KV> rows;
  e.run([&rows](Engine& eng) -> Co<void> {
    Job job(eng, "t");
    co_await job.submit();
    auto a = co_await iota(eng, 3, 500, 50).materialize(job);
    auto b = co_await iota(eng, 3, 500, 50).materialize(job);  // duplicates of a's keys
    auto u = eng.union_of(a, b);
    auto ds = DataSet<KV>::from_handle(eng, u)
                  .distinct("d", OpCost{2.0, 16.0}, [](const KV& kv) { return kv.key; })
                  .reduce("count", OpCost{1.0, 16.0},
                          [](KV& acc, const KV& kv) { acc.value = acc.value; (void)kv; });
    rows = co_await ds.collect(job);
    job.finish();
  });
  EXPECT_EQ(rows.size(), 1u);
}
