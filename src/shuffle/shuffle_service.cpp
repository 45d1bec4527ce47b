#include "shuffle/shuffle_service.hpp"

#include <algorithm>

namespace gflink::shuffle {

const char* shuffle_mode_name(ShuffleMode mode) {
  switch (mode) {
    case ShuffleMode::Barrier: return "barrier";
    case ShuffleMode::Pipelined: return "pipelined";
    case ShuffleMode::OneSided: return "one_sided";
  }
  return "unknown";
}

bool parse_shuffle_mode(const std::string& text, ShuffleMode* out) {
  if (text == "barrier") {
    *out = ShuffleMode::Barrier;
  } else if (text == "pipelined") {
    *out = ShuffleMode::Pipelined;
  } else if (text == "one_sided") {
    *out = ShuffleMode::OneSided;
  } else {
    return false;
  }
  return true;
}

// ---- ShuffleService --------------------------------------------------------

ShuffleService::ShuffleService(sim::Simulation& sim, net::Cluster& cluster, dfs::Gdfs& dfs,
                               ShuffleConfig config, OwnerFn owner)
    : sim_(&sim), cluster_(&cluster), dfs_(&dfs), config_(std::move(config)),
      owner_(std::move(owner)),
      spill_store_(std::make_unique<spill::SpillStore>(sim, cluster, dfs, config_.spill)),
      resident_(static_cast<std::size_t>(cluster.num_workers()) + 1, 0) {
  GFLINK_CHECK(config_.credits_per_partition >= 1);
  GFLINK_CHECK(config_.max_retries >= 0);
}

obs::StrId ShuffleService::shuffle_lane(int node) {
  const auto n = static_cast<std::size_t>(node);
  if (n >= shuffle_lanes_.size()) shuffle_lanes_.resize(n + 1);
  obs::StrId& id = shuffle_lanes_[n];
  if (id.v == 0) id = cluster_->spans().intern("node" + std::to_string(node) + "/shuffle");
  return id;
}

std::uint64_t ShuffleService::resident_bytes(int worker) const {
  return resident_.at(static_cast<std::size_t>(worker));
}

void ShuffleService::add_resident(int worker, std::uint64_t bytes) {
  resident_.at(static_cast<std::size_t>(worker)) += bytes;
}

void ShuffleService::sub_resident(int worker, std::uint64_t bytes) {
  auto& r = resident_.at(static_cast<std::size_t>(worker));
  GFLINK_CHECK_MSG(r >= bytes, "exchange resident-byte accounting went negative");
  r -= bytes;
}

void ShuffleService::block_started() {
  ++in_flight_;
  max_in_flight_ = std::max(max_in_flight_, in_flight_);
}

void ShuffleService::block_finished() { --in_flight_; }

bool ShuffleService::consume_injected_fault() {
  if (injected_faults_ <= 0) return false;
  --injected_faults_;
  return true;
}

sim::Co<bool> ShuffleService::transfer_block(int src, int dst, std::uint64_t bytes,
                                             const std::string& label, obs::SpanLink link) {
  obs::MetricsRegistry& m = metrics();
  for (int attempt = 0;; ++attempt) {
    if (consume_injected_fault()) {
      m.inc(obs::Metric::ShuffleTransferFaults);
      // A fault trips the flight recorder: the surrounding spans in the
      // per-node rings are what a post-mortem needs.
      cluster_->flight().note_fault(sim_->now(), src, "shuffle_transfer_fault",
                                    label + " block to node" + std::to_string(dst));
      if (attempt >= config_.max_retries) {
        m.inc(obs::Metric::ShuffleTransferAborts);
        cluster_->flight().note_event(sim_->now(), src, "shuffle_transfer_abort",
                                      label + " retry budget exhausted");
        co_return false;
      }
      m.inc(obs::Metric::ShuffleTransferRetries);
      // Exponential backoff, capped so the shift cannot overflow.
      const int shift = std::min(attempt, 10);
      co_await sim_->delay(config_.retry_backoff << shift);
      continue;
    }
    co_await cluster_->transfer(src, dst, bytes, label, link);
    co_return true;
  }
}

sim::Co<bool> ShuffleService::one_sided_write(int src, int dst, std::uint64_t offset,
                                              std::uint64_t bytes, const std::string& label,
                                              obs::SpanLink link) {
  obs::MetricsRegistry& m = metrics();
  for (int attempt = 0;; ++attempt) {
    if (consume_injected_fault()) {
      m.inc(obs::Metric::ShuffleTransferFaults);
      cluster_->flight().note_fault(sim_->now(), src, "shuffle_transfer_fault",
                                    label + " one-sided write to node" + std::to_string(dst));
      if (attempt >= config_.max_retries) {
        m.inc(obs::Metric::ShuffleTransferAborts);
        cluster_->flight().note_event(sim_->now(), src, "shuffle_transfer_abort",
                                      label + " retry budget exhausted");
        co_return false;
      }
      m.inc(obs::Metric::ShuffleTransferRetries);
      const int shift = std::min(attempt, 10);
      co_await sim_->delay(config_.retry_backoff << shift);
      continue;
    }
    co_await cluster_->remote_write(src, dst, offset, bytes, label, link);
    co_return true;
  }
}

// ---- Bucketer ---------------------------------------------------------------

Bucketer::Bucketer(int partitions, const mem::StructDesc* out_desc, const KeyFn* key,
                   const CombineFn* combiner)
    : key_(key), combiner_(combiner) {
  GFLINK_CHECK(partitions >= 1);
  GFLINK_CHECK_MSG(combiner == nullptr || key != nullptr, "a combiner needs a key");
  buckets_.reserve(static_cast<std::size_t>(partitions));
  for (int t = 0; t < partitions; ++t) buckets_.emplace_back(out_desc);
  if (combiner_ != nullptr) index_.resize(static_cast<std::size_t>(partitions));
}

void Bucketer::reserve_keys(std::size_t keys) {
  for (auto& index : index_) index.reserve(keys);
}

std::vector<mem::RecordBatch> Bucketer::take() {
  index_ = {};
  return std::move(buckets_);
}

// ---- ShuffleSession --------------------------------------------------------

ShuffleSession::ShuffleSession(ShuffleService& service, int out_partitions, std::string label,
                               obs::SpanId parent)
    : service_(&service), out_partitions_(out_partitions), label_(std::move(label)),
      id_(service.next_session_id_++) {
  GFLINK_CHECK(out_partitions_ >= 1);
  buckets_.resize(static_cast<std::size_t>(out_partitions_));
  credits_.reserve(static_cast<std::size_t>(out_partitions_));
  for (int t = 0; t < out_partitions_; ++t) {
    credits_.push_back(std::make_unique<sim::Semaphore>(
        service_->sim(), service_->config().credits_per_partition));
  }
  span_ = service_->cluster().spans().open("shuffle:" + label_, obs::SpanCategory::Shuffle,
                                           parent, service_->sim().now(), "master/shuffle", 0);
  service_->metrics().inc(obs::Metric::ShuffleSessions);
}

ShuffleSession::~ShuffleSession() {
  GFLINK_CHECK_MSG(in_flight_sends_ == 0, "shuffle session destroyed with in-flight sends");
}

std::vector<mem::RecordBatch> ShuffleSession::partition(const mem::RecordBatch& in,
                                                        const mem::StructDesc* out_desc,
                                                        const KeyFn& key,
                                                        const CombineFn* combiner) const {
  Bucketer bucketer(out_partitions_, out_desc, &key, combiner);
  for (std::size_t i = 0; i < in.count(); ++i) bucketer.add(in.record_ptr(i));
  return bucketer.take();
}

sim::Co<void> ShuffleSession::send(int src_worker, std::vector<mem::RecordBatch> buckets) {
  GFLINK_CHECK(static_cast<int>(buckets.size()) == out_partitions_);
  if (service_->config().mode == ShuffleMode::OneSided) {
    co_await send_one_sided(src_worker, std::move(buckets));
    co_return;
  }
  for (int t = 0; t < out_partitions_; ++t) {
    auto& bucket = buckets[static_cast<std::size_t>(t)];
    if (bucket.empty()) continue;
    ++in_flight_sends_;
    if (service_->config().mode == ShuffleMode::Pipelined) {
      // Detach the bucket send: the caller's task slot frees while the NIC
      // drains, and sends toward distinct receivers overlap each other.
      service_->sim().spawn([](ShuffleSession& s, int src, int target,
                               mem::RecordBatch b) -> sim::Co<void> {
        co_await s.send_bucket(src, target, std::move(b));
      }(*this, src_worker, t, std::move(bucket)));
    } else {
      co_await send_bucket(src_worker, t, std::move(bucket));
    }
  }
}

void ShuffleSession::deposit_local(int t, mem::RecordBatch bucket) {
  buckets_[static_cast<std::size_t>(t)].push_back(Deposit(std::move(bucket)));
}

sim::Co<void> ShuffleSession::send_bucket(int src, int t, mem::RecordBatch bucket) {
  const int dst = service_->owner_of(t);
  const std::uint64_t bytes = bucket.byte_size();
  obs::MetricsRegistry& m = service_->metrics();
  const sim::Time begin = service_->sim().now();
  bool ok = true;
  if (dst != src && bytes > 0) {
    network_bytes_ += bytes;
    obs::SpanStore& sp = service_->cluster().spans();
    // Parented to the session span (not the sending task): pipelined sends
    // outlive their task, but the session span stays open until finish().
    const obs::SpanId send_span =
        sp.open("shuffle:send", obs::SpanCategory::Shuffle, span_, begin,
                service_->shuffle_lane(src), src);
    const std::uint64_t block = std::max<std::uint64_t>(1, service_->config().block_bytes);
    sim::Semaphore& credit = *credits_[static_cast<std::size_t>(t)];
    if (service_->config().mode == ShuffleMode::Pipelined) {
      // Blocks of the bucket overlap each other (a block's egress runs
      // while its predecessor drains the receiver's ingress), bounded by
      // the credit window.
      sim::WaitGroup blocks_done(service_->sim());
      for (std::uint64_t off = 0; off < bytes; off += block) {
        const std::uint64_t n = std::min(block, bytes - off);
        if (!credit.try_acquire()) {
          m.inc(obs::Metric::ShuffleCreditStalls);
          const sim::Time stall = service_->sim().now();
          co_await credit.acquire();
          if (service_->sim().now() > stall) {
            sp.record("wait:credit", obs::SpanCategory::Wait, send_span, stall,
                      service_->sim().now(), service_->shuffle_lane(src), src);
          }
        }
        service_->block_started();
        blocks_done.add();
        service_->sim().spawn([](ShuffleSession& s, sim::Semaphore& cr, int from, int to,
                                 std::uint64_t nbytes, obs::SpanLink lk, bool& all_ok,
                                 sim::WaitGroup& join) -> sim::Co<void> {
          const bool sent = co_await s.service_->transfer_block(from, to, nbytes, s.label_, lk);
          s.service_->block_finished();
          cr.release();
          if (sent) {
            s.service_->metrics().inc(obs::Metric::ShuffleBlocks);
            s.service_->metrics().inc(obs::Metric::ShuffleBytes, static_cast<double>(nbytes));
          } else {
            all_ok = false;
          }
          join.done();
        }(*this, credit, src, dst, n,
          obs::SpanLink{send_span, obs::SpanCategory::Shuffle}, ok, blocks_done));
      }
      co_await blocks_done.wait();
    } else {
      // Barrier mode: the sending task holds its slot and ships blocks
      // back-to-back (the pre-ShuffleService behaviour).
      std::uint64_t remaining = bytes;
      while (remaining > 0 && ok) {
        const std::uint64_t n = std::min(block, remaining);
        if (!credit.try_acquire()) {
          m.inc(obs::Metric::ShuffleCreditStalls);
          const sim::Time stall = service_->sim().now();
          co_await credit.acquire();
          if (service_->sim().now() > stall) {
            sp.record("wait:credit", obs::SpanCategory::Wait, send_span, stall,
                      service_->sim().now(), service_->shuffle_lane(src), src);
          }
        }
        service_->block_started();
        ok = co_await service_->transfer_block(src, dst, n, label_,
                                               {send_span, obs::SpanCategory::Shuffle});
        service_->block_finished();
        credit.release();
        if (ok) {
          m.inc(obs::Metric::ShuffleBlocks);
          m.inc(obs::Metric::ShuffleBytes, static_cast<double>(n));
          remaining -= n;
        }
      }
    }
    sp.close(send_span, service_->sim().now());
    if (sp.retain()) {
      sp.record_lane(service_->shuffle_lane(src), label_ + " p" + std::to_string(t), begin,
                     service_->sim().now());
    }
  }
  if (ok) {
    co_await deposit(t, dst, std::move(bucket));
  } else {
    ++aborted_blocks_;  // finish() turns this into a loud failure
  }
  if (--in_flight_sends_ == 0 && drained_) drained_->fire();
}

sim::Co<void> ShuffleSession::send_one_sided(int src, std::vector<mem::RecordBatch> buckets) {
  net::Cluster& cluster = service_->cluster();
  obs::SpanStore& sp = cluster.spans();
  obs::MetricsRegistry& m = service_->metrics();
  if (one_sided_.empty()) {
    one_sided_.resize(static_cast<std::size_t>(cluster.num_workers()) + 1);
  }
  // Histogram phase: announce this sender's per-partition sizes to every
  // destination it targets (one control message each), then reserve a
  // disjoint slice of each destination's receive region with a remote
  // fetch-add on the region cursor — the arrival-order prefix sum over all
  // senders' histograms. The reservations fix expected_writes before any
  // write can retire, so the counts the finish() barrier polls against are
  // exact.
  const sim::Time hist_begin = service_->sim().now();
  obs::SpanId hist_span = 0;
  std::vector<std::uint64_t> offsets(buckets.size(), 0);
  std::vector<char> announced(one_sided_.size(), 0);
  for (int t = 0; t < out_partitions_; ++t) {
    const auto& bucket = buckets[static_cast<std::size_t>(t)];
    const int dst = service_->owner_of(t);
    // Must mirror one_sided_bucket's network condition exactly: every
    // announced write signals the done counter exactly once.
    if (bucket.byte_size() == 0 || dst == src) continue;
    if (hist_span == 0) {
      hist_span = sp.open("shuffle:histogram", obs::SpanCategory::Shuffle, span_, hist_begin,
                          service_->shuffle_lane(src), src);
    }
    if (!announced[static_cast<std::size_t>(dst)]) {
      announced[static_cast<std::size_t>(dst)] = 1;
      m.inc(obs::Metric::ShuffleOneSidedHistograms);
      co_await cluster.message(src, dst);
    }
    const std::uint64_t bytes = bucket.byte_size();
    offsets[static_cast<std::size_t>(t)] =
        co_await cluster.remote_fetch_add(src, dst, region_counter(), bytes);
    auto& peer = one_sided_[static_cast<std::size_t>(dst)];
    ++peer.expected_writes;
    peer.announced_bytes += bytes;
  }
  if (hist_span != 0) sp.close(hist_span, service_->sim().now());
  // Write phase: detached bulk writes straight into the reserved offsets —
  // no credits, no per-block ACKs; the task slot frees while the HCAs
  // drain. Local buckets skip the network inside one_sided_bucket.
  for (int t = 0; t < out_partitions_; ++t) {
    auto& bucket = buckets[static_cast<std::size_t>(t)];
    if (bucket.empty()) continue;
    ++in_flight_sends_;
    service_->sim().spawn([](ShuffleSession& s, int from, int target, std::uint64_t off,
                             mem::RecordBatch b) -> sim::Co<void> {
      co_await s.one_sided_bucket(from, target, off, std::move(b));
    }(*this, src, t, offsets[static_cast<std::size_t>(t)], std::move(bucket)));
  }
}

sim::Co<void> ShuffleSession::one_sided_bucket(int src, int t, std::uint64_t offset,
                                               mem::RecordBatch bucket) {
  const int dst = service_->owner_of(t);
  const std::uint64_t bytes = bucket.byte_size();
  obs::MetricsRegistry& m = service_->metrics();
  const sim::Time begin = service_->sim().now();
  bool ok = true;
  if (dst != src && bytes > 0) {
    network_bytes_ += bytes;
    obs::SpanStore& sp = service_->cluster().spans();
    const obs::SpanId write_span =
        sp.open("shuffle:one_sided_write", obs::SpanCategory::Shuffle, span_, begin,
                service_->shuffle_lane(src), src);
    service_->block_started();
    ok = co_await service_->one_sided_write(src, dst, offset, bytes, label_,
                                            {write_span, obs::SpanCategory::Shuffle});
    service_->block_finished();
    if (ok) {
      m.inc(obs::Metric::ShuffleOneSidedWrites);
      m.inc(obs::Metric::ShuffleOneSidedBytes, static_cast<double>(bytes));
    }
    // Completion signal: bump the destination's done counter whether the
    // write landed or aborted — the barrier counts retired attempts (an
    // abort is reported loudly by finish(); a barrier that never resolves
    // would hang it instead).
    co_await service_->cluster().remote_fetch_add(src, dst, done_counter(), 1);
    sp.close(write_span, service_->sim().now());
    if (sp.retain()) {
      sp.record_lane(service_->shuffle_lane(src), label_ + " p" + std::to_string(t), begin,
                     service_->sim().now());
    }
  }
  if (ok) {
    co_await deposit(t, dst, std::move(bucket));
  } else {
    ++aborted_blocks_;  // finish() turns this into a loud failure
  }
  if (--in_flight_sends_ == 0 && drained_) drained_->fire();
}

sim::Co<void> ShuffleSession::one_sided_barrier() {
  net::Cluster& cluster = service_->cluster();
  const sim::Time begin = service_->sim().now();
  for (std::size_t n = 0; n < one_sided_.size(); ++n) {
    const OneSidedDst& peer = one_sided_[n];
    if (peer.expected_writes == 0) continue;
    const int dst = static_cast<int>(n);
    // Each receiver polls its own completion counter — local memory reads
    // are free, so the cost is purely the wait for outstanding writes.
    const sim::Duration poll =
        std::max<sim::Duration>(1, cluster.node(dst).spec().rdma.latency);
    while (cluster.rdma_counter(dst, done_counter()) < peer.expected_writes) {
      co_await service_->sim().delay(poll);
    }
    GFLINK_CHECK_MSG(cluster.rdma_counter(dst, region_counter()) == peer.announced_bytes,
                     "one-sided receive-region cursor disagrees with the announced histograms");
    const sim::Time end = service_->sim().now();
    if (end > begin) {
      cluster.spans().record("shuffle:one_sided_barrier", obs::SpanCategory::Wait, span_, begin,
                             end, service_->shuffle_lane(dst), dst);
    }
  }
}

sim::Co<void> ShuffleSession::deposit(int t, int dst, mem::RecordBatch bucket) {
  const ShuffleConfig& cfg = service_->config();
  const std::uint64_t bytes = bucket.byte_size();
  Deposit d(std::move(bucket));
  if (cfg.spill_enabled && bytes > 0 &&
      service_->resident_bytes(dst) + bytes > cfg.receiver_budget_bytes) {
    d.spilled = true;
    // Landed-side accounting shared by both spill paths: the shuffle.spill_*
    // counters and the session's spilled-byte total are bumped exactly once,
    // when the block lands on its tier — worker-side on the async path,
    // never at enqueue (the double-count hazard a detached offload invites).
    // The hook captures the service (outlives every session) and a shared
    // accounting cell, not `this`, so a worker landing a block after its
    // session died never dereferences freed session state.
    auto acct = spill_acct_;
    auto* service = service_;
    std::function<void()> on_landed = [service, acct, bytes] {
      service->metrics().inc(obs::Metric::ShuffleSpillBytes, static_cast<double>(bytes));
      *acct += bytes;
    };
    if (cfg.spill_async) {
      // Asynchronous offload (the default): hand the bucket to dst's spill
      // workers and keep going — the depositing coroutine stalls only on
      // queue backpressure, never on tier I/O. take() awaits the landing.
      d.spill_block = co_await service_->spill_store().offload(
          dst, bytes, label_, {span_, obs::SpanCategory::Spill}, std::move(on_landed));
    } else {
      // Synchronous ablation baseline: compress inline and hold the
      // depositing coroutine through the full DFS round trip.
      d.spill_path = cfg.spill_dir + "/s" + std::to_string(id_) + "-p" + std::to_string(t) +
                     "-" + std::to_string(next_spill_seq_++);
      const std::uint64_t stored =
          co_await service_->spill_store().compress(dst, bytes, spill::SpillTier::Dfs);
      co_await service_->dfs().write(dst, d.spill_path, stored,
                                     {span_, obs::SpanCategory::Spill});
      on_landed();
    }
  } else {
    service_->add_resident(dst, bytes);
    d.counted_resident = true;
  }
  buckets_[static_cast<std::size_t>(t)].push_back(std::move(d));
}

sim::Co<void> ShuffleSession::finish() {
  // One-sided mode first waits on the fetch-add completion counters (the
  // transport's own barrier), then falls through to the drain trigger that
  // covers the deposit/spill tail of each write coroutine.
  if (service_->config().mode == ShuffleMode::OneSided) co_await one_sided_barrier();
  // No suspension point between the check and the trigger creation, so no
  // send can retire in between.
  if (in_flight_sends_ > 0) {
    drained_ = std::make_unique<sim::Trigger>(service_->sim());
    co_await drained_->wait();
  }
  service_->cluster().spans().close(span_, service_->sim().now());
  span_ = 0;
  GFLINK_CHECK_MSG(aborted_blocks_ == 0, "shuffle block transfer permanently failed after retries");
}

sim::Co<std::vector<mem::RecordBatch>> ShuffleSession::take(int t, int reader,
                                                            obs::SpanLink link) {
  auto& deposited = buckets_[static_cast<std::size_t>(t)];
  std::vector<mem::RecordBatch> out;
  out.reserve(deposited.size());
  for (Deposit& d : deposited) {
    const std::uint64_t bytes = d.batch.byte_size();
    if (d.spilled) {
      service_->metrics().inc(obs::Metric::ShuffleUnspillBytes, static_cast<double>(bytes));
      if (d.spill_block) {
        // Async path: the fetch waits for the block to land if the worker
        // is still writing it (write-behind consistency), pays the tier
        // read + decompression, and promotes a re-read disk/DFS block
        // back into the memory tier.
        co_await service_->spill_store().fetch(d.spill_block, reader, link);
        service_->spill_store().release(d.spill_block);
      } else {
        // Sync path: the block went straight to the DFS, compressed.
        co_await service_->dfs().read_file(reader, d.spill_path, link);
        co_await service_->spill_store().decompress(reader, bytes, spill::SpillTier::Dfs);
      }
    } else if (d.counted_resident) {
      service_->sub_resident(service_->owner_of(t), bytes);
    }
    out.push_back(std::move(d.batch));
  }
  deposited.clear();
  co_return out;
}

}  // namespace gflink::shuffle
