// Tests for the cluster topology and network model.
#include <gtest/gtest.h>

#include "net/cluster.hpp"

namespace sim = gflink::sim;
namespace net = gflink::net;
using sim::Co;
using sim::Simulation;
using sim::Time;

namespace {

net::ClusterConfig small_cluster(int workers = 2) {
  net::ClusterConfig cfg;
  cfg.num_workers = workers;
  return cfg;
}

}  // namespace

TEST(Cluster, TopologyAndIds) {
  Simulation s;
  net::Cluster c(s, small_cluster(3));
  EXPECT_EQ(c.num_workers(), 3);
  EXPECT_EQ(c.master().id(), 0);
  EXPECT_EQ(c.worker(0).id(), 1);
  EXPECT_EQ(c.worker(2).id(), 3);
  EXPECT_EQ(&c.node(1), &c.worker(0));
}

TEST(Pipe, UnloadedTimeIsLatencyPlusBandwidth) {
  Simulation s;
  net::Pipe p(s, "p", 100e6, sim::micros(10));  // 100 MB/s, 10 us
  // 1 MB at 100 MB/s = 10 ms (+10 us latency).
  EXPECT_EQ(p.unloaded_time(1'000'000), sim::micros(10) + sim::millis(10));
}

TEST(Pipe, SerializesTransfersFifo) {
  Simulation s;
  net::Pipe p(s, "p", 1e9, 0);  // 1 GB/s, no latency
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    s.spawn([](Simulation& sm, net::Pipe& pipe, std::vector<Time>& d) -> Co<void> {
      co_await pipe.transfer(1'000'000);  // 1 ms each
      d.push_back(sm.now());
    }(s, p, done));
  }
  s.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], sim::millis(1));
  EXPECT_EQ(done[1], sim::millis(2));
  EXPECT_EQ(done[2], sim::millis(3));
  EXPECT_EQ(p.bytes_moved(), 3'000'000u);
  EXPECT_EQ(p.transfers(), 3u);
}

TEST(Cluster, TransferUsesBothNics) {
  Simulation s;
  auto cfg = small_cluster();
  cfg.worker.nic.bandwidth = 100e6;
  cfg.worker.nic.latency = 0;
  net::Cluster c(s, cfg);
  Time done = -1;
  s.spawn([](Simulation& sm, net::Cluster& cl, Time& d) -> Co<void> {
    co_await cl.transfer(1, 2, 100'000'000);  // 100 MB at 100 MB/s
    d = sm.now();
  }(s, c, done));
  s.run();
  // Store-and-forward through egress then ingress: 1 s + 1 s.
  EXPECT_EQ(done, sim::seconds(2));
  EXPECT_DOUBLE_EQ(c.metrics().counter("net.bytes"), 100e6);
}

TEST(Cluster, LocalTransferIsFree) {
  Simulation s;
  net::Cluster c(s, small_cluster());
  Time done = -1;
  s.spawn([](Simulation& sm, net::Cluster& cl, Time& d) -> Co<void> {
    co_await cl.transfer(1, 1, 1'000'000'000);
    d = sm.now();
  }(s, c, done));
  s.run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(c.node(1).egress().bytes_moved(), 0u);
}

TEST(Cluster, ConcurrentTransfersToOneNodeQueueOnIngress) {
  Simulation s;
  auto cfg = small_cluster(3);
  cfg.worker.nic.bandwidth = 100e6;
  cfg.worker.nic.latency = 0;
  net::Cluster c(s, cfg);
  std::vector<Time> done;
  // Workers 1 and 2 both send 100 MB to worker 3.
  for (int src = 1; src <= 2; ++src) {
    s.spawn([](Simulation& sm, net::Cluster& cl, int from, std::vector<Time>& d) -> Co<void> {
      co_await cl.transfer(from, 3, 100'000'000);
      d.push_back(sm.now());
    }(s, c, src, done));
  }
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // Egress legs run in parallel (1 s each); the shared ingress serializes:
  // first finishes at 2 s, second at 3 s.
  EXPECT_EQ(done[0], sim::seconds(2));
  EXPECT_EQ(done[1], sim::seconds(3));
}

TEST(Cluster, MessageLatencyOnly) {
  Simulation s;
  auto cfg = small_cluster();
  cfg.worker.nic.latency = sim::micros(50);
  cfg.master.nic.latency = sim::micros(50);
  net::Cluster c(s, cfg);
  Time done = -1;
  s.spawn([](Simulation& sm, net::Cluster& cl, Time& d) -> Co<void> {
    co_await cl.message(0, 1);
    d = sm.now();
  }(s, c, done));
  s.run();
  EXPECT_EQ(done, sim::micros(100));
}

TEST(Node, RecordTimeRoofline) {
  Simulation s;
  net::NodeSpec spec;
  spec.cpu.effective_flops = 1e9;
  spec.cpu.mem_bandwidth = 1e9;
  spec.cpu.record_overhead = 10;
  net::Node n(s, 7, spec, nullptr);
  // Compute-bound: 1000 flops at 1 GF/s = 1 us.
  EXPECT_EQ(n.record_time(1000.0, 8.0), 10 + 1000);
  // Memory-bound: 4000 bytes at 1 GB/s = 4 us.
  EXPECT_EQ(n.record_time(100.0, 4000.0), 10 + 4000);
}

TEST(Cluster, TracerSeesNicSpans) {
  Simulation s;
  net::Cluster c(s, small_cluster());
  c.spans().set_retain(true);
  s.spawn([](net::Cluster& cl) -> Co<void> {
    co_await cl.transfer(1, 2, 1'000'000, "blockA");
  }(c));
  s.run();
  EXPECT_EQ(c.spans().lane("node1/egress").size(), 1u);
  EXPECT_EQ(c.spans().lane("node2/ingress").size(), 1u);
  EXPECT_EQ(c.spans().str(c.spans().lane("node1/egress")[0].label), "blockA");
}
