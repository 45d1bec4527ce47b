// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// Cluster topology and hardware specifications.
//
// A Cluster is a master node plus N worker nodes, each with a CPU model, a
// NIC, and a disk. These specs are the calibration surface of the whole
// reproduction: the defaults model the paper's testbed (Intel i5-4590,
// 16 GB RAM, 1 GbE, commodity SATA disks; GPUs are attached separately by
// the gpu/core layers).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace gflink::net {

using sim::Duration;
using sim::Time;

/// CPU execution model for dataflow tasks.
///
/// A task processing records through Flink's one-element-a-time iterator
/// chain pays `record_overhead` per record (iterator advance, virtual
/// dispatch, (de)serialization bookkeeping — the JVM-side costs the paper
/// calls out) plus a roofline term: max(flops / effective_gflops, bytes /
/// mem_bandwidth) for the user function itself.
struct CpuSpec {
  int cores = 4;
  double effective_flops = 4.0e9;   // per-core sustained scalar FLOP/s
  double mem_bandwidth = 10.0e9;    // per-core streaming bytes/s
  Duration record_overhead = 25;    // ns per record through the iterator
};

struct NicSpec {
  double bandwidth = 117.0e6;       // bytes/s (1 GbE effective)
  Duration latency = sim::micros(80);
};

/// RDMA-capable HCA, distinct from the commodity Ethernet NIC: one-sided
/// verbs (remote write, remote fetch-add) bypass the remote CPU entirely
/// and run at InfiniBand-class latency/bandwidth. Defaults model FDR-era
/// hardware (56 Gb/s links, ~2 us one-way verb latency).
struct RdmaNicSpec {
  double bandwidth = 6.0e9;         // bytes/s (56 Gb/s FDR effective)
  Duration latency = sim::micros(2);
};

struct DiskSpec {
  double read_bandwidth = 150.0e6;  // bytes/s
  double write_bandwidth = 120.0e6;
  Duration access_latency = sim::millis(4);
};

struct NodeSpec {
  CpuSpec cpu;
  NicSpec nic;
  RdmaNicSpec rdma;
  DiskSpec disk;
};

/// A serially-drained resource (NIC direction, disk): requests queue FIFO
/// and each occupies the pipe for latency + bytes/bandwidth.
class Pipe {
 public:
  Pipe(sim::Simulation& sim, std::string name, double bandwidth, Duration latency,
       obs::SpanStore* spans = nullptr, int node = -1)
      : sim_(&sim),
        name_(std::move(name)),
        bandwidth_(bandwidth),
        latency_(latency),
        mutex_(sim),
        spans_(spans),
        node_(node) {}

  /// Occupy the pipe for the duration of the transfer. When `link` carries
  /// a parent span, the transfer is recorded as a causal child span (from
  /// request to completion, with the time queued behind earlier transfers
  /// as a nested Wait span).
  sim::Co<void> transfer(std::uint64_t bytes, const std::string& label = {},
                         obs::SpanLink link = {}) {
    const Time requested = sim_->now();
    co_await mutex_.lock();
    Time begin = sim_->now();
    queue_wait_ns_ += begin - requested;  // time spent behind earlier transfers
    co_await sim_->delay(latency_ + sim::transfer_time(bytes, bandwidth_));
    bytes_moved_ += bytes;
    ++transfers_;
    busy_ns_ += sim_->now() - begin;
    if (spans_ != nullptr) {
      if (spans_->retain()) spans_->record_lane(lane(), label, begin, sim_->now());
      if (link.parent != 0) {
        const obs::SpanId xfer =
            spans_->open(kind(), link.category, link.parent, requested, lane(), node_);
        if (begin > requested) {
          spans_->record("wait:queue", obs::SpanCategory::Wait, xfer, requested, begin, lane(),
                         node_);
        }
        spans_->close(xfer, sim_->now());
      }
    }
    mutex_.unlock();
  }

  /// Time the pipe would take for `bytes` with no queueing.
  Duration unloaded_time(std::uint64_t bytes) const {
    return latency_ + sim::transfer_time(bytes, bandwidth_);
  }

  const std::string& name() const { return name_; }
  double bandwidth() const { return bandwidth_; }
  std::uint64_t bytes_moved() const { return bytes_moved_; }
  std::uint64_t transfers() const { return transfers_; }
  bool busy() const { return mutex_.locked(); }
  /// Total time the pipe was occupied by transfers.
  Duration busy_time() const { return busy_ns_; }
  /// Total time transfers spent queued behind earlier ones.
  Duration queue_wait() const { return queue_wait_ns_; }
  /// Fraction of [0, horizon] the pipe was busy.
  double utilization(Time horizon) const {
    return horizon > 0 ? static_cast<double>(busy_time()) / static_cast<double>(horizon) : 0.0;
  }

  /// Publish this pipe's totals into a metrics registry, labeled by pipe
  /// name (counters add, so repeated exports accumulate — export once per
  /// run into a fresh or accumulating registry).
  void export_metrics(obs::MetricsRegistry& out) const {
    const obs::Labels l{{"pipe", name_}};
    out.counter(obs::Metric::NetPipeBytes, l).inc(static_cast<double>(bytes_moved_));
    out.counter(obs::Metric::NetPipeTransfers, l).inc(static_cast<double>(transfers_));
    out.counter(obs::Metric::NetPipeBusyNs, l).inc(static_cast<double>(busy_ns_));
    out.counter(obs::Metric::NetPipeQueueWaitNs, l).inc(static_cast<double>(queue_wait_ns_));
  }

 private:
  /// The pipe's trace lane (its name) and the peer-group name its causal
  /// spans share ("net:egress", "net:disk_write", ...). Both are interned
  /// on first use, so building a cluster interns nothing.
  obs::StrId lane() {
    if (lane_.v == 0) lane_ = spans_->intern(name_);
    return lane_;
  }
  obs::StrId kind() {
    if (kind_.v == 0) {
      const auto slash = name_.rfind('/');
      kind_ = spans_->intern("net:" +
                             (slash == std::string::npos ? name_ : name_.substr(slash + 1)));
    }
    return kind_;
  }

  sim::Simulation* sim_;
  std::string name_;
  double bandwidth_;
  Duration latency_;
  sim::Mutex mutex_;  // the simulated resource itself (FIFO occupancy)
  obs::SpanStore* spans_;  // simulation-plane trace store (may be nullptr)
  int node_;               // owning node id for causal spans
  obs::StrId lane_;        // 0 until lane() first runs
  obs::StrId kind_;        // 0 until kind() first runs
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t transfers_ = 0;
  Duration busy_ns_ = 0;
  Duration queue_wait_ns_ = 0;
};

/// One machine in the cluster.
class Node {
 public:
  Node(sim::Simulation& sim, int id, const NodeSpec& spec, obs::SpanStore* spans = nullptr);

  int id() const { return id_; }
  const NodeSpec& spec() const { return spec_; }

  Pipe& egress() { return egress_; }
  Pipe& ingress() { return ingress_; }
  Pipe& rdma_tx() { return rdma_tx_; }
  Pipe& rdma_rx() { return rdma_rx_; }
  Pipe& disk_read() { return disk_read_; }
  Pipe& disk_write() { return disk_write_; }
  const Pipe& egress() const { return egress_; }
  const Pipe& ingress() const { return ingress_; }
  const Pipe& rdma_tx() const { return rdma_tx_; }
  const Pipe& rdma_rx() const { return rdma_rx_; }
  const Pipe& disk_read() const { return disk_read_; }
  const Pipe& disk_write() const { return disk_write_; }

  /// CPU time for one record through an operator chain with the given
  /// per-record work (roofline over flops and bytes) — excluding the pipe
  /// resources above.
  Duration record_time(double flops, double bytes) const;

 private:
  int id_;
  NodeSpec spec_;
  Pipe egress_;
  Pipe ingress_;
  Pipe rdma_tx_;  // one-sided verb initiator side (HCA send engine)
  Pipe rdma_rx_;  // one-sided verb target side (remote HCA, no remote CPU)
  Pipe disk_read_;
  Pipe disk_write_;
};

struct ClusterConfig {
  int num_workers = 10;
  NodeSpec worker;
  NodeSpec master;
  /// Single-machine deployments run the JobManager on the worker host, so
  /// master<->worker traffic is in-memory (the paper's Fig. 7b setup).
  bool colocated_master = false;
};

/// Master (node 0) + workers (nodes 1..num_workers). Also hosts the shared
/// metrics, the trace store and the flight recorder.
class Cluster {
 public:
  Cluster(sim::Simulation& sim, const ClusterConfig& config);

  sim::Simulation& sim() { return *sim_; }
  int num_workers() const { return static_cast<int>(nodes_.size()) - 1; }
  Node& master() { return *nodes_.front(); }
  Node& node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  const Node& node(int id) const { return *nodes_.at(static_cast<std::size_t>(id)); }
  Node& worker(int index) { return *nodes_.at(static_cast<std::size_t>(index) + 1); }

  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::SpanStore& spans() { return spans_; }
  const obs::SpanStore& spans() const { return spans_; }
  obs::FlightRecorder& flight() { return flight_; }
  const obs::FlightRecorder& flight() const { return flight_; }

  /// Publish the cluster's registry plus every node's pipe totals (and the
  /// trace_*/flight_* rollups) into `out` (the run-report capture path).
  void export_metrics(obs::MetricsRegistry& out) const;

  /// Bulk data transfer src -> dst through both NICs (store-and-forward at
  /// the bottleneck rate). Local "transfers" are free. `link` parents the
  /// per-NIC causal spans.
  sim::Co<void> transfer(int src, int dst, std::uint64_t bytes, const std::string& label = {},
                         obs::SpanLink link = {});

  /// Small control message (RPC): latency only, no bandwidth occupation.
  sim::Co<void> message(int src, int dst);

  /// One-sided RDMA-style write of `bytes` from `src` into `dst`'s memory
  /// at `offset` (a registered-region address; modelling-only — the bytes
  /// themselves travel through the shuffle deposit path). Occupies both
  /// HCAs (tx then rx, same deadlock-free order as transfer) but involves
  /// no remote CPU. Local writes are free.
  sim::Co<void> remote_write(int src, int dst, std::uint64_t offset, std::uint64_t bytes,
                             const std::string& label = {}, obs::SpanLink link = {});

  /// One-sided atomic fetch-add on counter `counter` in `dst`'s memory.
  /// Pays one RDMA round trip (request + response latency, no bandwidth);
  /// the read-modify-write itself is atomic — concurrent initiators are
  /// serialized by the target HCA, so the returned pre-add values are
  /// unique reservations. Local fetch-adds are free.
  sim::Co<std::uint64_t> remote_fetch_add(int src, int dst, std::uint64_t counter,
                                          std::uint64_t delta);

  /// Read a remote-atomics counter in `node`'s own memory (the owner
  /// polling local memory is free; remote pollers pay message latency
  /// themselves). Unwritten counters read as zero.
  std::uint64_t rdma_counter(int node, std::uint64_t counter) const;

 private:
  sim::Simulation* sim_;
  bool colocated_master_ = false;
  obs::MetricsRegistry metrics_;
  obs::SpanStore spans_;        // causal spans + lane intervals (simulation-plane)
  obs::FlightRecorder flight_;  // always-on bounded post-mortem rings
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Per-node named fetch-add counters (remote_fetch_add targets).
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> rdma_counters_;
};

}  // namespace gflink::net
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
