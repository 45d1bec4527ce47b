// Tests for the tiered, asynchronously-offloaded spill store: enqueue
// semantics (non-blocking fast path, bounded-queue backpressure), the
// memory -> disk -> DFS tier ladder, write-behind consistency, the codec
// accounting, promotion back into the memory tier on re-read, and the
// exactly-once landing hook.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dfs/gdfs.hpp"
#include "spill/spill_store.hpp"

namespace sim = gflink::sim;
namespace net = gflink::net;
namespace dfs = gflink::dfs;
namespace spill = gflink::spill;
namespace obs = gflink::obs;
using sim::Co;
using spill::BlockHandle;
using spill::SpillCodec;
using spill::SpillTier;

namespace {

struct Fixture {
  sim::Simulation s;
  net::Cluster cluster;
  dfs::Gdfs fs;
  spill::SpillStore store;

  explicit Fixture(spill::SpillConfig cfg = {}, int workers = 2)
      : cluster(s, make_cluster_cfg(workers)), fs(cluster), store(s, cluster, fs, cfg) {}

  static net::ClusterConfig make_cluster_cfg(int workers) {
    net::ClusterConfig c;
    c.num_workers = workers;
    return c;
  }

  double counter(const std::string& name, const char* tier) const {
    return cluster.metrics().counter_value(name, {{"tier", tier}});
  }
};

// Offload a block destined for every tier and count landing hooks.
TEST(SpillStore, OffloadReturnsWithoutPayingTierIo) {
  spill::SpillConfig cfg;
  cfg.memory_tier_bytes = 0;  // force the DFS backstop: the priciest write
  cfg.disk_tier_bytes = 0;
  Fixture f(cfg);
  int landed = 0;
  sim::Time at_return = 0;
  BlockHandle handle;
  f.s.spawn([](Fixture& fx, int& n, sim::Time& t, BlockHandle& out) -> Co<void> {
    out = co_await fx.store.offload(1, 64 * 1024, "t", {}, [&n] { ++n; });
    t = fx.s.now();
  }(f, landed, at_return, handle));
  f.s.run();
  // The enqueue itself is free: no queue contention, so no virtual time
  // passes before offload() hands the handle back.
  EXPECT_EQ(at_return, 0u);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->tier, SpillTier::Dfs);
  EXPECT_TRUE(handle->landed);  // the drain worker finished during run()
  EXPECT_EQ(landed, 1);
  EXPECT_EQ(f.counter("spill_offload_blocks_total", "dfs"), 1.0);
  EXPECT_EQ(f.counter("spill_landed_blocks_total", "dfs"), 1.0);
  EXPECT_GT(f.s.now(), 0u);  // the DFS write itself cost time, off-path
}

// A full queue is the only producer-visible stall: with one worker and a
// one-slot queue, the third offload must park until the worker frees a
// slot, and the stall is metered against the block's destination tier.
TEST(SpillStore, BoundedQueueBackpressure) {
  spill::SpillConfig cfg;
  cfg.memory_tier_bytes = 0;
  cfg.disk_tier_bytes = 0;
  cfg.workers_per_node = 1;
  cfg.queue_capacity = 1;
  Fixture f(cfg);
  sim::Time third_enqueued = 0;
  f.s.spawn([](Fixture& fx, sim::Time& t3) -> Co<void> {
    co_await fx.store.offload(1, 64 * 1024, "a", {});
    co_await fx.store.offload(1, 64 * 1024, "b", {});
    co_await fx.store.offload(1, 64 * 1024, "c", {});
    t3 = fx.s.now();
  }(f, third_enqueued));
  f.s.run();
  EXPECT_GT(third_enqueued, 0u);  // parked while the worker wrote block "a"
  EXPECT_GE(f.counter("spill_producer_stalls_total", "dfs"), 1.0);
  EXPECT_GT(f.counter("spill_producer_stall_ns_total", "dfs"), 0.0);
  EXPECT_EQ(f.counter("spill_landed_blocks_total", "dfs"), 3.0);
}

// Blocks walk the ladder cheapest-first, and each tier's reservation uses
// the bytes that tier actually stores (raw in memory, post-codec on disk).
TEST(SpillStore, TierLadderReservesCheapestFit) {
  spill::SpillConfig cfg;
  cfg.codec = SpillCodec::Lz;
  cfg.lz_ratio = 0.5;
  cfg.memory_tier_bytes = 1000;
  cfg.disk_tier_bytes = 600;
  Fixture f(cfg);
  std::vector<BlockHandle> handles;
  f.s.spawn([](Fixture& fx, std::vector<BlockHandle>& out) -> Co<void> {
    out.push_back(co_await fx.store.offload(1, 1000, "m", {}));  // fills memory
    out.push_back(co_await fx.store.offload(1, 1200, "d", {}));  // 600 stored, fills disk
    out.push_back(co_await fx.store.offload(1, 100, "f", {}));   // overflows to DFS
  }(f, handles));
  f.s.run();
  ASSERT_EQ(handles.size(), 3u);
  EXPECT_EQ(handles[0]->tier, SpillTier::Memory);
  EXPECT_EQ(handles[0]->stored_bytes, 1000u);  // memory keeps blocks raw
  EXPECT_EQ(handles[1]->tier, SpillTier::Disk);
  EXPECT_EQ(handles[1]->stored_bytes, 600u);  // codec applies on disk
  EXPECT_EQ(handles[2]->tier, SpillTier::Dfs);
  EXPECT_EQ(f.store.tier_used_bytes(1, SpillTier::Memory), 1000u);
  EXPECT_EQ(f.store.tier_used_bytes(1, SpillTier::Disk), 600u);
  // release() hands each tier's reservation back.
  f.store.release(handles[0]);
  f.store.release(handles[1]);
  f.store.release(handles[2]);
  EXPECT_EQ(f.store.tier_used_bytes(1, SpillTier::Memory), 0u);
  EXPECT_EQ(f.store.tier_used_bytes(1, SpillTier::Disk), 0u);
  EXPECT_EQ(f.store.tier_used_bytes(1, SpillTier::Dfs), 0u);
}

// Write-behind consistency: a fetch that outruns the spill worker waits
// for the block to land instead of reading a torn block.
TEST(SpillStore, FetchWaitsForInFlightBlock) {
  spill::SpillConfig cfg;
  cfg.memory_tier_bytes = 0;
  cfg.disk_tier_bytes = 0;
  Fixture f(cfg);
  bool fetched_after_land = false;
  f.s.spawn([](Fixture& fx, bool& ok) -> Co<void> {
    BlockHandle h = co_await fx.store.offload(1, 256 * 1024, "t", {});
    EXPECT_FALSE(h->landed);  // the worker has not had a chance to run
    co_await fx.store.fetch(h, 1);
    ok = h->landed;
  }(f, fetched_after_land));
  f.s.run();
  EXPECT_TRUE(fetched_after_land);
  EXPECT_GT(f.counter("spill_fetch_wait_ns_total", "dfs"), 0.0);
  EXPECT_EQ(f.counter("spill_tier_hits_total", "dfs"), 1.0);
}

// The codec charges bandwidth-shaped costs and saves deterministic bytes;
// SpillCodec::None stores raw and pays nothing.
TEST(SpillStore, CodecAccounting) {
  spill::SpillConfig lz;
  lz.codec = SpillCodec::Lz;
  lz.lz_ratio = 0.45;
  {
    Fixture f(lz);
    EXPECT_EQ(f.store.stored_size(1000, SpillTier::Memory), 1000u);
    EXPECT_EQ(f.store.stored_size(1000, SpillTier::Disk), 450u);
    EXPECT_EQ(f.store.stored_size(1000, SpillTier::Dfs), 450u);
  }
  spill::SpillConfig none = lz;
  none.codec = SpillCodec::None;
  none.memory_tier_bytes = 0;
  none.disk_tier_bytes = 0;
  lz.memory_tier_bytes = 0;
  lz.disk_tier_bytes = 0;
  Fixture fl(lz);
  Fixture fn(none);
  for (Fixture* f : {&fl, &fn}) {
    f->s.spawn([](Fixture& fx) -> Co<void> {
      BlockHandle h = co_await fx.store.offload(1, 100000, "t", {});
      co_await fx.store.fetch(h, 1);
    }(*f));
    f->s.run();
  }
  EXPECT_EQ(fl.counter("codec_saved_bytes_total", "dfs"), 55000.0);
  EXPECT_GT(fl.counter("codec_compress_ns_total", "dfs"), 0.0);
  EXPECT_GT(fl.counter("codec_decompress_ns_total", "dfs"), 0.0);
  EXPECT_EQ(fn.counter("codec_saved_bytes_total", "dfs"), 0.0);
  EXPECT_EQ(fn.counter("codec_compress_ns_total", "dfs"), 0.0);
  // Compressed DFS blocks move fewer bytes: the LZ run finishes sooner
  // even after paying the codec.
  EXPECT_LT(fl.s.now(), fn.s.now());
}

// A re-read disk block is promoted into the memory tier once room exists,
// so the second fetch is a memory hit — counted, spanned, and reflected
// in the tier accounting.
TEST(SpillStore, FetchPromotesReReadBlockToMemory) {
  spill::SpillConfig cfg;
  cfg.codec = SpillCodec::None;
  cfg.memory_tier_bytes = 1000;
  cfg.disk_tier_bytes = 10000;
  Fixture f(cfg);
  f.cluster.spans().set_retain(true);
  std::vector<BlockHandle> handles;
  f.s.spawn([](Fixture& fx, std::vector<BlockHandle>& out) -> Co<void> {
    out.push_back(co_await fx.store.offload(1, 1000, "fill", {}));  // fills memory
    out.push_back(co_await fx.store.offload(1, 500, "hot", {}));    // lands on disk
  }(f, handles));
  f.s.run();
  ASSERT_EQ(handles.size(), 2u);
  ASSERT_EQ(handles[1]->tier, SpillTier::Disk);
  // Free the memory tier, then re-read the disk block twice.
  f.store.release(handles[0]);
  f.s.spawn([](Fixture& fx, BlockHandle& h) -> Co<void> {
    co_await fx.store.fetch(h, 1);  // disk hit, then promotion
    EXPECT_EQ(h->tier, SpillTier::Memory);
    co_await fx.store.fetch(h, 1);  // served from memory
  }(f, handles[1]));
  f.s.run();
  EXPECT_EQ(f.counter("spill_tier_hits_total", "disk"), 1.0);
  EXPECT_EQ(f.counter("spill_tier_hits_total", "memory"), 1.0);
  EXPECT_EQ(f.counter("spill_promotions_total", "memory"), 1.0);
  EXPECT_EQ(f.store.tier_used_bytes(1, SpillTier::Disk), 0u);
  EXPECT_EQ(f.store.tier_used_bytes(1, SpillTier::Memory), 500u);
  bool saw_promote = false, saw_mem_fetch = false;
  const obs::SpanStore& store = f.cluster.spans();
  for (const obs::CausalSpan& sp : store.spans()) {
    if (store.str(sp.name) == "spill:promote:memory") saw_promote = true;
    if (store.str(sp.name) == "spill:fetch:memory") saw_mem_fetch = true;
  }
  EXPECT_TRUE(saw_promote);
  EXPECT_TRUE(saw_mem_fetch);
}

// The landing hook fires exactly once per block even when a reader is
// already parked on the land trigger.
TEST(SpillStore, LandingHookRunsExactlyOnce) {
  spill::SpillConfig cfg;
  cfg.memory_tier_bytes = 0;
  cfg.disk_tier_bytes = 0;
  Fixture f(cfg);
  int landed = 0;
  f.s.spawn([](Fixture& fx, int& n) -> Co<void> {
    BlockHandle h = co_await fx.store.offload(1, 4096, "t", {}, [&n] { ++n; });
    co_await fx.store.fetch(h, 2);  // remote reader parks on the trigger
    co_await fx.store.fetch(h, 2);  // second read: no second landing
    fx.store.release(h);
  }(f, landed));
  f.s.run();
  EXPECT_EQ(landed, 1);
  EXPECT_EQ(f.counter("spill_landed_blocks_total", "dfs"), 1.0);
}

}  // namespace
