// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "net/cluster.hpp"

#include <algorithm>

namespace gflink::net {

Node::Node(sim::Simulation& sim, int id, const NodeSpec& spec, obs::SpanStore* spans)
    : id_(id),
      spec_(spec),
      egress_(sim, "node" + std::to_string(id) + "/egress", spec.nic.bandwidth, spec.nic.latency,
              spans, id),
      ingress_(sim, "node" + std::to_string(id) + "/ingress", spec.nic.bandwidth, spec.nic.latency,
               spans, id),
      rdma_tx_(sim, "node" + std::to_string(id) + "/rdma_tx", spec.rdma.bandwidth,
               spec.rdma.latency, spans, id),
      rdma_rx_(sim, "node" + std::to_string(id) + "/rdma_rx", spec.rdma.bandwidth,
               spec.rdma.latency, spans, id),
      disk_read_(sim, "node" + std::to_string(id) + "/disk_read", spec.disk.read_bandwidth,
                 spec.disk.access_latency, spans, id),
      disk_write_(sim, "node" + std::to_string(id) + "/disk_write", spec.disk.write_bandwidth,
                  spec.disk.access_latency, spans, id) {}

Duration Node::record_time(double flops, double bytes) const {
  double compute_s = flops / spec_.cpu.effective_flops;
  double memory_s = bytes / spec_.cpu.mem_bandwidth;
  auto work = static_cast<Duration>(std::max(compute_s, memory_s) * sim::kSecond);
  return spec_.cpu.record_overhead + work;
}

Cluster::Cluster(sim::Simulation& sim, const ClusterConfig& config)
    : sim_(&sim), colocated_master_(config.colocated_master) {
  GFLINK_CHECK(config.num_workers >= 1);
  GFLINK_CHECK_MSG(!config.colocated_master || config.num_workers == 1,
                   "colocated master requires a single worker");
  spans_.attach_flight_recorder(&flight_);
  nodes_.push_back(std::make_unique<Node>(sim, 0, config.master, &spans_));
  for (int i = 1; i <= config.num_workers; ++i) {
    nodes_.push_back(std::make_unique<Node>(sim, i, config.worker, &spans_));
  }
  rdma_counters_.resize(nodes_.size());
}

void Cluster::export_metrics(obs::MetricsRegistry& out) const {
  out.merge_from(metrics_);
  for (const auto& node : nodes_) {
    node->egress().export_metrics(out);
    node->ingress().export_metrics(out);
    node->rdma_tx().export_metrics(out);
    node->rdma_rx().export_metrics(out);
    node->disk_read().export_metrics(out);
    node->disk_write().export_metrics(out);
  }
  spans_.export_metrics(out);
  flight_.export_metrics(out);
}

sim::Co<void> Cluster::transfer(int src, int dst, std::uint64_t bytes, const std::string& label,
                                obs::SpanLink link) {
  if (src == dst) co_return;  // in-memory, no NIC involvement
  if (colocated_master_ && (src == 0 || dst == 0)) co_return;
  metrics_.inc(obs::Metric::NetBytes, static_cast<double>(bytes));
  metrics_.inc(obs::Metric::NetTransfers);
  // Egress first, then ingress: the acquisition order (always egress before
  // ingress, never the reverse) is deadlock-free by construction.
  co_await node(src).egress().transfer(bytes, label, link);
  co_await node(dst).ingress().transfer(bytes, label, link);
}

sim::Co<void> Cluster::message(int src, int dst) {
  if (src == dst) co_return;
  if (colocated_master_ && (src == 0 || dst == 0)) co_return;
  metrics_.inc(obs::Metric::NetMessages);
  co_await sim_->delay(node(src).spec().nic.latency + node(dst).spec().nic.latency);
}

sim::Co<void> Cluster::remote_write(int src, int dst, std::uint64_t offset, std::uint64_t bytes,
                                    const std::string& label, obs::SpanLink link) {
  (void)offset;  // addressing fidelity only; payload rides the deposit path
  if (src == dst) co_return;  // registered region is local memory
  if (colocated_master_ && (src == 0 || dst == 0)) co_return;
  metrics_.inc(obs::Metric::NetRdmaBytes, static_cast<double>(bytes));
  metrics_.inc(obs::Metric::NetRdmaWrites);
  // Initiator HCA first, then target HCA: same fixed acquisition order as
  // transfer(), deadlock-free by construction. The target's CPU is never
  // involved — only its HCA's DMA engine (rdma_rx) is occupied.
  co_await node(src).rdma_tx().transfer(bytes, label, link);
  co_await node(dst).rdma_rx().transfer(bytes, label, link);
}

sim::Co<std::uint64_t> Cluster::remote_fetch_add(int src, int dst, std::uint64_t counter,
                                                 std::uint64_t delta) {
  auto& slot = rdma_counters_[static_cast<std::size_t>(dst)][counter];
  const bool local = src == dst || (colocated_master_ && (src == 0 || dst == 0));
  if (!local) {
    metrics_.inc(obs::Metric::NetRdmaAtomics);
    // Request leg: initiator latency + target latency.
    co_await sim_->delay(node(src).spec().rdma.latency + node(dst).spec().rdma.latency);
  }
  // The RMW happens atomically at the target HCA: no suspension point
  // between the read and the write, so concurrent initiators observe
  // unique pre-add values (FIFO-serialized by the event queue).
  const std::uint64_t old = slot;
  slot = old + delta;
  if (!local) {
    // Response leg carrying the pre-add value back to the initiator.
    co_await sim_->delay(node(dst).spec().rdma.latency + node(src).spec().rdma.latency);
  }
  co_return old;
}

std::uint64_t Cluster::rdma_counter(int node, std::uint64_t counter) const {
  const auto& counters = rdma_counters_.at(static_cast<std::size_t>(node));
  auto it = counters.find(counter);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace gflink::net
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
