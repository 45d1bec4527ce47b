// Tests for the one-sided RDMA-style primitives and shuffle transport:
// remote fetch-add atomicity under concurrent senders, receive-region
// offset disjointness from the histogram prefix-sum, remote-write timing
// over the HCA pipes, counter-barrier completion under injected transfer
// faults, and the traced phase spans of the one-sided exchange.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

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
namespace obs = gflink::obs;
using sim::Co;

namespace {

net::ClusterConfig small_cluster(int workers) {
  net::ClusterConfig c;
  c.num_workers = workers;
  return c;
}

// ---- One-sided verb primitives ---------------------------------------------

TEST(OneSidedNet, RemoteFetchAddIsAtomicUnderConcurrentSenders) {
  sim::Simulation s;
  net::Cluster c(s, small_cluster(4));

  // Four initiators on distinct nodes race fetch-adds at the same target
  // counter, all issued at t=0. The target HCA serializes the RMWs, so the
  // pre-add values must be a permutation of {0..3} — no duplicates, no
  // gaps — and the final counter equals the sum of the deltas.
  std::vector<std::uint64_t> observed;
  for (int src = 1; src <= 4; ++src) {
    s.spawn([](net::Cluster& cl, int from, std::vector<std::uint64_t>& out) -> Co<void> {
      out.push_back(co_await cl.remote_fetch_add(from, 2, /*counter=*/7, 1));
    }(c, src, observed));
  }
  s.run();

  ASSERT_EQ(observed.size(), 4u);
  std::sort(observed.begin(), observed.end());
  EXPECT_EQ(observed, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(c.rdma_counter(2, 7), 4u);
  EXPECT_EQ(c.rdma_counter(2, 8), 0u);  // unwritten counters read as zero
  EXPECT_EQ(c.metrics().counter_value("net.rdma_atomics"), 3.0);  // 2->2 is local
}

TEST(OneSidedNet, FetchAddPaysRoundTripLatencyAndLocalIsFree) {
  sim::Simulation s;
  net::Cluster c(s, small_cluster(2));

  sim::Time remote_done = 0;
  sim::Time local_done = 0;
  s.spawn([](sim::Simulation& sm, net::Cluster& cl, sim::Time& remote,
             sim::Time& local) -> Co<void> {
    co_await cl.remote_fetch_add(1, 2, 1, 5);
    remote = sm.now();
    co_await cl.remote_fetch_add(2, 2, 1, 5);
    local = sm.now();
  }(s, c, remote_done, local_done));
  s.run();

  // One round trip: request (src + dst verb latency) then response.
  const sim::Duration one_way =
      c.node(1).spec().rdma.latency + c.node(2).spec().rdma.latency;
  EXPECT_EQ(remote_done, 2 * one_way);
  EXPECT_EQ(local_done, remote_done);  // owner-local fetch-add is free
  EXPECT_EQ(c.rdma_counter(2, 1), 10u);
}

TEST(OneSidedNet, RemoteWriteUsesHcaPipesNotTheNic) {
  sim::Simulation s;
  net::Cluster c(s, small_cluster(2));
  const std::uint64_t bytes = 64 * 1024 * 1024;

  sim::Time done = 0;
  s.spawn([](sim::Simulation& sm, net::Cluster& cl, std::uint64_t b, sim::Time& d) -> Co<void> {
    co_await cl.remote_write(1, 2, /*offset=*/0, b, "w");
    co_await cl.remote_write(2, 2, /*offset=*/0, b, "local");  // free
    d = sm.now();
  }(s, c, bytes, done));
  s.run();

  // Store-and-forward through initiator tx then target rx, both unloaded.
  EXPECT_EQ(done, c.node(1).rdma_tx().unloaded_time(bytes) +
                      c.node(2).rdma_rx().unloaded_time(bytes));
  EXPECT_EQ(c.node(1).rdma_tx().bytes_moved(), bytes);
  EXPECT_EQ(c.node(2).rdma_rx().bytes_moved(), bytes);
  EXPECT_EQ(c.node(1).egress().bytes_moved(), 0u);  // the 1 GbE NIC idles
  EXPECT_EQ(c.node(2).ingress().bytes_moved(), 0u);
  EXPECT_EQ(c.metrics().counter_value("net.rdma_bytes"), static_cast<double>(bytes));
  EXPECT_EQ(c.metrics().counter_value("net.rdma_writes"), 1.0);
}

TEST(OneSidedNet, FetchAddReservationsYieldDisjointCoveringOffsets) {
  sim::Simulation s;
  net::Cluster c(s, small_cluster(4));

  // The transport's prefix-sum: concurrent senders reserve [offset,
  // offset+size) slices of one receive region by fetch-adding their
  // histogram sizes. The reservations must tile [0, total) exactly.
  const std::vector<std::uint64_t> sizes = {4096, 128, 65536, 1, 7777, 4096, 300, 65536};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;  // (offset, size)
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int src = 1 + static_cast<int>(i % 4);
    s.spawn([](net::Cluster& cl, int from, std::uint64_t size,
               std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) -> Co<void> {
      const std::uint64_t off = co_await cl.remote_fetch_add(from, 3, /*counter=*/11, size);
      out.emplace_back(off, size);
    }(c, src, sizes[i], got));
  }
  s.run();

  ASSERT_EQ(got.size(), sizes.size());
  std::sort(got.begin(), got.end());
  std::uint64_t cursor = 0;
  for (const auto& [off, size] : got) {
    EXPECT_EQ(off, cursor) << "reservations must be disjoint and gap-free";
    cursor += size;
  }
  std::uint64_t total = 0;
  for (std::uint64_t b : sizes) total += b;
  EXPECT_EQ(cursor, total);
  EXPECT_EQ(c.rdma_counter(3, 11), total);  // the region cursor ends at the histogram sum
}

// ---- The one-sided shuffle transport ---------------------------------------

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

std::vector<KV> skewed_rows(int n) {
  std::vector<KV> rows;
  rows.reserve(static_cast<std::size_t>(n));
  std::uint64_t s = 7;
  for (int i = 0; i < n; ++i) {
    rows.push_back(KV{sim::splitmix64(s) % 37, static_cast<std::int64_t>(i)});
  }
  return rows;
}

sh::ShuffleConfig one_sided_config() {
  sh::ShuffleConfig cfg;
  cfg.mode = sh::ShuffleMode::OneSided;
  return cfg;
}

/// A standalone service over a small cluster; partitions are owned
/// round-robin by workers 1..N.
struct Harness {
  explicit Harness(sh::ShuffleConfig cfg, int workers = 4)
      : cluster(simulation, small_cluster(workers)), gdfs(cluster),
        service(simulation, cluster, gdfs, std::move(cfg),
                [workers](int t) { return 1 + t % workers; }) {}

  sim::Simulation simulation;
  net::Cluster cluster;
  dfs::Gdfs gdfs;
  sh::ShuffleService service;
};

TEST(OneSidedShuffle, ExchangeDeliversExactMultisetOverRdmaOnly) {
  Harness h(one_sided_config(), 2);
  auto session = std::make_unique<sh::ShuffleSession>(h.service, 2, "t");
  const std::vector<KV> rows = skewed_rows(300);

  std::vector<KV> taken;
  h.simulation.spawn([](sh::ShuffleSession& s, const std::vector<KV>& in,
                        std::vector<KV>& out) -> Co<void> {
    auto buckets = s.partition(make_batch(in), &kv_desc(), &shuffle_key, nullptr);
    co_await s.send(2, std::move(buckets));  // worker 2 owns partition 1
    co_await s.finish();
    for (int t = 0; t < 2; ++t) {
      auto batches = co_await s.take(t, 1 + t);
      for (const auto& b : batches) {
        for (std::size_t i = 0; i < b.count(); ++i) out.push_back(row_at(b, i));
      }
    }
  }(*session, rows, taken));
  h.simulation.run();

  // Same multiset out as in: the transport moves the buckets, not the data.
  auto key_of = [](const KV& kv) { return std::make_pair(kv.key, kv.value); };
  std::multiset<std::pair<std::uint64_t, std::int64_t>> in_set, out_set;
  for (const KV& kv : rows) in_set.insert(key_of(kv));
  for (const KV& kv : taken) out_set.insert(key_of(kv));
  EXPECT_EQ(in_set, out_set);

  const auto& m = h.cluster.metrics();
  EXPECT_GT(m.counter_value("shuffle.one_sided_histograms"), 0.0);
  EXPECT_GT(m.counter_value("shuffle.one_sided_writes"), 0.0);
  EXPECT_EQ(m.counter_value("shuffle.one_sided_bytes"), m.counter_value("net.rdma_bytes"));
  EXPECT_EQ(m.counter_value("shuffle.blocks"), 0.0);  // the block path never ran
  EXPECT_EQ(m.counter_value("shuffle.bytes"), 0.0);
  EXPECT_EQ(session->network_bytes(), static_cast<std::uint64_t>(
                                          m.counter_value("net.rdma_bytes")));
}

TEST(OneSidedShuffle, CounterBarrierCompletesUnderInjectedFaults) {
  sh::ShuffleConfig cfg = one_sided_config();
  cfg.retry_backoff = sim::millis(10);
  Harness h(cfg, 2);
  auto session = std::make_unique<sh::ShuffleSession>(h.service, 1, "t");
  h.service.inject_transfer_faults(2);

  h.simulation.spawn([](sh::ShuffleSession& s) -> Co<void> {
    auto buckets = s.partition(make_batch(skewed_rows(50)), &kv_desc(), &shuffle_key, nullptr);
    co_await s.send(2, std::move(buckets));  // partition 0 is owned by worker 1
    co_await s.finish();  // the done-counter barrier must still terminate
  }(*session));
  h.simulation.run();

  EXPECT_EQ(h.service.pending_injected_faults(), 0);
  const auto& m = h.cluster.metrics();
  EXPECT_EQ(m.counter_value("shuffle.transfer_faults"), 2.0);
  EXPECT_EQ(m.counter_value("shuffle.transfer_retries"), 2.0);
  EXPECT_EQ(m.counter_value("shuffle.transfer_aborts"), 0.0);
  // Two consecutive faults on the write: backoff of 10 ms then 20 ms.
  EXPECT_GE(h.simulation.now(), sim::millis(30));
}

// ---- End-to-end through the engine -----------------------------------------

TEST(OneSidedShuffle, TracedRunNamesTheThreePhases) {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = 4;
  cfg.dfs.replication = 2;
  cfg.shuffle.mode = sh::ShuffleMode::OneSided;
  cfg.trace = true;  // retain causal spans
  df::Engine engine(cfg);

  std::int64_t total = 0;
  engine.run([&total](df::Engine& eng) -> Co<void> {
    df::Job job(eng, "one-sided-e2e");
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
  EXPECT_EQ(total, 4000LL * 3999 / 2);

  // Every one-sided phase shows up in the causal trace, so the critical-path
  // breakdown can attribute exchange time to histogram / write / barrier.
  std::set<std::string> names;
  const obs::SpanStore& store = engine.cluster().spans();
  for (const obs::CausalSpan& span : store.spans()) names.insert(store.str(span.name));
  EXPECT_TRUE(names.count("shuffle:histogram")) << "histogram phase not traced";
  EXPECT_TRUE(names.count("shuffle:one_sided_write")) << "write phase not traced";
  EXPECT_TRUE(names.count("shuffle:one_sided_barrier")) << "barrier phase not traced";
  EXPECT_TRUE(names.count("net:rdma_tx")) << "HCA pipe spans not traced";
}

}  // namespace
