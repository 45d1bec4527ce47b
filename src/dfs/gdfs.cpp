// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "dfs/gdfs.hpp"

#include <algorithm>

namespace gflink::dfs {

Gdfs::Gdfs(net::Cluster& cluster, const GdfsConfig& config)
    : cluster_(&cluster), config_(config), rng_(config.placement_seed) {
  GFLINK_CHECK(config_.replication >= 1);
  GFLINK_CHECK_MSG(config_.replication <= cluster.num_workers(),
                   "replication exceeds worker count");
}

std::vector<int> Gdfs::place_block() {
  const int workers = cluster_->num_workers();
  std::vector<int> replicas;
  int primary = 1 + next_primary_;  // worker ids start at 1
  next_primary_ = (next_primary_ + 1) % workers;
  replicas.push_back(primary);
  while (static_cast<int>(replicas.size()) < config_.replication) {
    int candidate = 1 + static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(workers)));
    if (std::find(replicas.begin(), replicas.end(), candidate) == replicas.end()) {
      replicas.push_back(candidate);
    }
  }
  return replicas;
}

const FileInfo& Gdfs::create_file(const std::string& path, std::uint64_t size) {
  GFLINK_CHECK_MSG(files_.find(path) == files_.end(), "file exists: " + path);
  FileInfo f;
  f.path = path;
  f.id = next_file_id_++;
  f.size = size;
  f.block_size = config_.block_size;
  std::uint64_t remaining = size;
  int index = 0;
  while (remaining > 0) {
    BlockInfo b;
    b.file_id = f.id;
    b.index = index++;
    b.bytes = std::min(remaining, config_.block_size);
    b.replicas = place_block();
    remaining -= b.bytes;
    f.blocks.push_back(std::move(b));
  }
  auto [it, inserted] = files_.emplace(path, std::move(f));
  GFLINK_CHECK(inserted);
  return it->second;
}

const FileInfo* Gdfs::stat(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

bool Gdfs::is_local(int node, const BlockInfo& block) {
  return std::find(block.replicas.begin(), block.replicas.end(), node) != block.replicas.end();
}

int Gdfs::preferred_replica(int reader, const BlockInfo& block) const {
  if (is_local(reader, block) && node_alive(reader)) return reader;
  GFLINK_CHECK(!block.replicas.empty());
  for (int replica : block.replicas) {
    if (node_alive(replica)) return replica;
  }
  // All replicas down: fall back to the primary (the read will be charged;
  // a real system would error — we model the timeout as a normal read).
  return block.replicas.front();
}

sim::Co<void> Gdfs::read_block(int reader, const BlockInfo& block, obs::SpanLink link) {
  auto& metrics = cluster_->metrics();
  int source = preferred_replica(reader, block);
  metrics.inc(obs::Metric::DfsBlocksRead);
  metrics.inc(obs::Metric::DfsBytesRead, static_cast<double>(block.bytes));
  if (source == reader) {
    metrics.inc(obs::Metric::DfsLocalReads);
  } else {
    metrics.inc(obs::Metric::DfsRemoteReads);
  }
  co_await cluster_->node(source).disk_read().transfer(block.bytes, "dfs-read", link);
  if (source != reader) {
    co_await cluster_->transfer(source, reader, block.bytes, "dfs-read", link);
  }
}

sim::Co<void> Gdfs::read_file(int reader, const std::string& path, obs::SpanLink link) {
  const FileInfo* f = stat(path);
  GFLINK_CHECK_MSG(f != nullptr, "no such file: " + path);
  co_await cluster_->sim().delay(config_.namenode_latency);
  for (const auto& b : f->blocks) {
    co_await read_block(reader, b, link);
  }
}

sim::Co<void> Gdfs::write(int writer, const std::string& path, std::uint64_t bytes,
                          obs::SpanLink link) {
  co_await cluster_->sim().delay(config_.namenode_latency);
  // Metadata phase. Snapshot the newly appended spans BY VALUE: concurrent
  // appends to the same file may reallocate `blocks` while this coroutine
  // is suspended mid-transfer.
  struct Span {
    std::vector<int> replicas;
    std::uint64_t bytes;
  };
  std::vector<Span> spans;
  auto it = files_.find(path);
  if (it == files_.end()) {
    // Creating charges metadata latency only; block placement is immediate.
    create_file(path, bytes);
    it = files_.find(path);
  } else {
    // Append: extend metadata.
    FileInfo& f = it->second;
    std::uint64_t remaining = bytes;
    int index = static_cast<int>(f.blocks.size());
    while (remaining > 0) {
      BlockInfo b;
      b.file_id = f.id;
      b.index = index++;
      b.bytes = std::min(remaining, config_.block_size);
      b.replicas = place_block();
      remaining -= b.bytes;
      f.blocks.push_back(std::move(b));
    }
    f.size += bytes;
  }
  const FileInfo& f = it->second;
  std::uint64_t remaining = bytes;
  for (auto rit = f.blocks.rbegin(); rit != f.blocks.rend() && remaining > 0; ++rit) {
    const std::uint64_t span = std::min<std::uint64_t>(rit->bytes, remaining);
    remaining -= span;
    spans.push_back(Span{rit->replicas, span});
  }
  auto& metrics = cluster_->metrics();
  metrics.inc(obs::Metric::DfsBytesWritten, static_cast<double>(bytes));
  // Serial replica writes: for each block in turn, the writer sends it to
  // the first replica (network if remote), which writes it to disk before
  // it goes on to the next replica. No two hops overlap, unlike HDFS's
  // packet-streamed pipeline.
  for (const Span& s : spans) {
    int prev = writer;
    for (int replica : s.replicas) {
      if (replica != prev) {
        co_await cluster_->transfer(prev, replica, s.bytes, "dfs-write", link);
      }
      co_await cluster_->node(replica).disk_write().transfer(s.bytes, "dfs-write", link);
      prev = replica;
    }
  }
}

}  // namespace gflink::dfs
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
