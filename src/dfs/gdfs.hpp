// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// GDFS: an HDFS-like distributed file system model.
//
// Files are split into fixed-size blocks, each replicated on `replication`
// worker nodes. Reads prefer a local replica (data locality — the property
// Flink's scheduler exploits); remote reads pay the replica's disk plus a
// network transfer. Writes go down the replica chain one hop at a time:
// HDFS overlaps the hops by streaming packets, this model does not.
//
// GDFS stores no payload bytes: datasets are regenerated deterministically
// by sources. The file system charges virtual I/O time for the byte counts
// it is told about, which is all the evaluation needs (the paper's TIO term
// in Eq. 1).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/cluster.hpp"
#include "sim/random.hpp"

namespace gflink::dfs {

struct BlockInfo {
  std::uint64_t file_id = 0;
  int index = 0;
  std::uint64_t bytes = 0;
  std::vector<int> replicas;  // node ids; replicas.front() is the primary
};

struct FileInfo {
  std::string path;
  std::uint64_t id = 0;
  std::uint64_t size = 0;
  std::uint64_t block_size = 0;
  std::vector<BlockInfo> blocks;
};

struct GdfsConfig {
  std::uint64_t block_size = 64ULL << 20;  // 64 MB
  int replication = 2;
  std::uint64_t placement_seed = 17;
  sim::Duration namenode_latency = sim::micros(200);
};

class Gdfs {
 public:
  Gdfs(net::Cluster& cluster, const GdfsConfig& config = {});

  /// Create a file of `size` bytes; blocks are placed round-robin (primary)
  /// with additional replicas drawn deterministically. Metadata only. The
  /// returned reference is node-stable: later creates never invalidate it.
  const FileInfo& create_file(const std::string& path, std::uint64_t size);

  /// Look up file metadata; nullptr if absent. The pointer is node-stable,
  /// but the FileInfo's block list may grow under a concurrent append —
  /// iterate it only while no writer is active on the same path.
  const FileInfo* stat(const std::string& path) const;

  bool exists(const std::string& path) const { return stat(path) != nullptr; }

  /// True if `node` holds a replica of `block`.
  static bool is_local(int node, const BlockInfo& block);

  /// The replica `reader` should fetch from: itself when local, otherwise
  /// the first *live* replica (replication is what lets reads route around
  /// datanode failures).
  int preferred_replica(int reader, const BlockInfo& block) const;

  /// Install a liveness oracle (the engine's worker-failure state). When
  /// unset every node is assumed alive.
  void set_liveness(std::function<bool(int)> alive) { alive_ = std::move(alive); }

  bool node_alive(int node) const { return !alive_ || alive_(node); }

  /// Read one block into memory at `reader`: replica disk + (if remote) a
  /// network transfer. `link` parents the disk/NIC causal spans.
  sim::Co<void> read_block(int reader, const BlockInfo& block, obs::SpanLink link = {});

  /// Read a whole file serially at one node (used by single-reader
  /// drivers; parallel readers issue per-block reads themselves).
  sim::Co<void> read_file(int reader, const std::string& path, obs::SpanLink link = {});

  /// Append `bytes` to a (possibly new) file from `writer`. Each block is
  /// written hop by hop down its replica chain, and the blocks one after
  /// another: at each replica, a transfer from the previous holder (if
  /// remote), then its disk write. `link` parents the disk/NIC causal spans.
  sim::Co<void> write(int writer, const std::string& path, std::uint64_t bytes,
                      obs::SpanLink link = {});

  net::Cluster& cluster() { return *cluster_; }

 private:
  std::vector<int> place_block();

  net::Cluster* cluster_;
  GdfsConfig config_;
  std::function<bool(int)> alive_;
  sim::Rng rng_;
  std::map<std::string, FileInfo> files_;
  std::uint64_t next_file_id_ = 1;
  int next_primary_ = 0;  // round-robin cursor over workers
};

}  // namespace gflink::dfs
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
