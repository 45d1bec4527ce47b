// Tests for the GDFS distributed file system model.
#include <gtest/gtest.h>

#include <set>

#include "dfs/gdfs.hpp"

namespace sim = gflink::sim;
namespace net = gflink::net;
namespace dfs = gflink::dfs;
using sim::Co;
using sim::Simulation;
using sim::Time;

namespace {

struct Fixture {
  Simulation s;
  net::Cluster cluster;
  dfs::Gdfs fs;

  explicit Fixture(int workers = 4, dfs::GdfsConfig cfg = {})
      : cluster(s, make_cfg(workers)), fs(cluster, cfg) {}

  static net::ClusterConfig make_cfg(int workers) {
    net::ClusterConfig c;
    c.num_workers = workers;
    return c;
  }
};

}  // namespace

TEST(Gdfs, FileSplitsIntoBlocks) {
  dfs::GdfsConfig cfg;
  cfg.block_size = 1 << 20;
  Fixture f(4, cfg);
  const auto& info = f.fs.create_file("/data/a", (5 << 20) + 123);
  EXPECT_EQ(info.blocks.size(), 6u);
  EXPECT_EQ(info.blocks[0].bytes, 1u << 20);
  EXPECT_EQ(info.blocks[5].bytes, 123u);
  EXPECT_EQ(info.size, (5u << 20) + 123u);
  for (const auto& b : info.blocks) {
    EXPECT_EQ(b.replicas.size(), 2u);
    std::set<int> unique(b.replicas.begin(), b.replicas.end());
    EXPECT_EQ(unique.size(), b.replicas.size());
    for (int r : b.replicas) {
      EXPECT_GE(r, 1);
      EXPECT_LE(r, 4);
    }
  }
}

TEST(Gdfs, PrimariesRoundRobinOverWorkers) {
  dfs::GdfsConfig cfg;
  cfg.block_size = 100;
  Fixture f(3, cfg);
  const auto& info = f.fs.create_file("/rr", 600);
  ASSERT_EQ(info.blocks.size(), 6u);
  EXPECT_EQ(info.blocks[0].replicas[0], 1);
  EXPECT_EQ(info.blocks[1].replicas[0], 2);
  EXPECT_EQ(info.blocks[2].replicas[0], 3);
  EXPECT_EQ(info.blocks[3].replicas[0], 1);
}

TEST(Gdfs, StatAndExists) {
  Fixture f;
  EXPECT_FALSE(f.fs.exists("/x"));
  f.fs.create_file("/x", 10);
  EXPECT_TRUE(f.fs.exists("/x"));
  ASSERT_NE(f.fs.stat("/x"), nullptr);
  EXPECT_EQ(f.fs.stat("/x")->size, 10u);
}

TEST(Gdfs, LocalReadSkipsNetwork) {
  dfs::GdfsConfig cfg;
  cfg.block_size = 1 << 20;
  cfg.namenode_latency = 0;
  Fixture f(4, cfg);
  const auto& info = f.fs.create_file("/local", 1 << 20);
  const auto& block = info.blocks[0];
  int local = block.replicas[0];
  f.s.spawn([](dfs::Gdfs& fs, int reader, const dfs::BlockInfo& b) -> Co<void> {
    co_await fs.read_block(reader, b);
  }(f.fs, local, block));
  f.s.run();
  EXPECT_DOUBLE_EQ(f.cluster.metrics().counter_value("dfs.local_reads"), 1.0);
  EXPECT_DOUBLE_EQ(f.cluster.metrics().counter_value("net.bytes"), 0.0);
}

TEST(Gdfs, RemoteReadPaysNetwork) {
  dfs::GdfsConfig cfg;
  cfg.block_size = 1 << 20;
  Fixture f(4, cfg);
  const auto& info = f.fs.create_file("/remote", 1 << 20);
  const auto& block = info.blocks[0];
  int remote = 0;
  for (int w = 1; w <= 4; ++w) {
    if (!dfs::Gdfs::is_local(w, block)) {
      remote = w;
      break;
    }
  }
  ASSERT_NE(remote, 0);
  f.s.spawn([](dfs::Gdfs& fs, int reader, const dfs::BlockInfo& b) -> Co<void> {
    co_await fs.read_block(reader, b);
  }(f.fs, remote, block));
  f.s.run();
  EXPECT_DOUBLE_EQ(f.cluster.metrics().counter_value("dfs.remote_reads"), 1.0);
  EXPECT_DOUBLE_EQ(f.cluster.metrics().counter_value("net.bytes"), static_cast<double>(1 << 20));
}

TEST(Gdfs, ReadTimeMatchesDiskModel) {
  dfs::GdfsConfig cfg;
  cfg.block_size = 150'000'000;  // one block
  cfg.namenode_latency = 0;
  Fixture f(4, cfg);
  // Worker disk: 150 MB/s read, 4 ms access; local read of 150 MB = 1 s + 4 ms.
  const auto& info = f.fs.create_file("/timed", 150'000'000);
  int local = info.blocks[0].replicas[0];
  Time done = -1;
  // The path is taken by value: the coroutine is detached, so a reference
  // parameter would dangle once the spawn full-expression's temporary dies.
  f.s.spawn([](Simulation& sm, dfs::Gdfs& fs, int reader, std::string p,
               Time& d) -> Co<void> {
    co_await fs.read_file(reader, p);
    d = sm.now();
  }(f.s, f.fs, local, "/timed", done));
  f.s.run();
  EXPECT_EQ(done, sim::seconds(1) + sim::millis(4));
}

TEST(Gdfs, WriteReplicatesToAllReplicas) {
  dfs::GdfsConfig cfg;
  cfg.block_size = 1 << 20;
  cfg.replication = 3;
  Fixture f(5, cfg);
  f.s.spawn([](dfs::Gdfs& fs) -> Co<void> { co_await fs.write(1, "/out", 1 << 20); }(f.fs));
  f.s.run();
  const auto* info = f.fs.stat("/out");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->blocks[0].replicas.size(), 3u);
  // Three replica disks were written.
  double total_disk = 0;
  for (int w = 1; w <= 5; ++w) {
    total_disk += static_cast<double>(f.cluster.node(w).disk_write().bytes_moved());
  }
  EXPECT_DOUBLE_EQ(total_disk, 3.0 * (1 << 20));
}

TEST(Gdfs, AppendExtendsFile) {
  dfs::GdfsConfig cfg;
  cfg.block_size = 1 << 20;
  Fixture f(4, cfg);
  f.s.spawn([](dfs::Gdfs& fs) -> Co<void> {
    co_await fs.write(1, "/log", 1 << 20);
    co_await fs.write(2, "/log", 2 << 20);
  }(f.fs));
  f.s.run();
  const auto* info = f.fs.stat("/log");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->size, 3u << 20);
  EXPECT_EQ(info->blocks.size(), 3u);
}

TEST(Gdfs, PlacementIsDeterministic) {
  auto run_once = [] {
    Fixture f(6);
    dfs::GdfsConfig cfg;
    std::vector<int> primaries;
    const auto& info = f.fs.create_file("/det", 10ULL << 26);
    for (const auto& b : info.blocks) {
      for (int r : b.replicas) primaries.push_back(r);
    }
    return primaries;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Gdfs, ParallelBlockReadsUseDistinctDisks) {
  dfs::GdfsConfig cfg;
  cfg.block_size = 150'000'000;
  cfg.namenode_latency = 0;
  cfg.replication = 1;
  Fixture f(3, cfg);
  const auto& info = f.fs.create_file("/par", 450'000'000);  // 3 blocks, one per worker
  Time done = -1;
  f.s.spawn([](Simulation& sm, dfs::Gdfs& fs, const dfs::FileInfo& fi, Time& d) -> Co<void> {
    sim::WaitGroup wg(sm);
    for (const auto& b : fi.blocks) {
      wg.add();
      sm.spawn([](dfs::Gdfs& f2, const dfs::BlockInfo& blk, sim::WaitGroup& w) -> Co<void> {
        co_await f2.read_block(blk.replicas[0], blk);
        w.done();
      }(fs, b, wg));
    }
    co_await wg.wait();
    d = sm.now();
  }(f.s, f.fs, info, done));
  f.s.run();
  // All three locals read in parallel: one block time, not three.
  EXPECT_EQ(done, sim::seconds(1) + sim::millis(4));
}
