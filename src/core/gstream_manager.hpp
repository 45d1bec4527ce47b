// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// GStreamManager: GFlink's producer-consumer execution engine for GPUs
// (paper §5, Fig. 4).
//
// Components, matching the paper:
//  * GWork Scheduler — Algorithm 5.1 (locality-aware scheduling): route a
//    submitted GWork to an idle stream of the GPU holding its cached
//    inputs; else to the bulk with the most idle streams; else enqueue it
//    in the GWork Pool (locality queue, or the shortest queue).
//  * GWork Pool — one FIFO queue per GPU.
//  * GStream Pool — stream workers grouped into per-GPU "bulks". Each
//    stream is driven by a coroutine (the paper's per-stream thread) that
//    executes the three-stage pipeline H2D -> kernel -> D2H. When a stream
//    finishes it steals more work via Algorithm 5.2 (own queue first, then
//    the longest queue); after `idle_timeout` without work the thread is
//    freed (and respawned when work arrives again).
//
// Scheduling-policy ablations (DESIGN.md): LocalityAware (the paper),
// RoundRobin and Random baselines.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gmemory_manager.hpp"
#include "core/gwork.hpp"
#include "gpu/api.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace gflink::core {

enum class SchedulingPolicy : std::uint8_t { LocalityAware, RoundRobin, Random };

struct GStreamConfig {
  int streams_per_gpu = 4;
  sim::Duration idle_timeout = sim::millis(20);
  SchedulingPolicy policy = SchedulingPolicy::LocalityAware;

  // ---- Intra-GWork chunked transfer/compute pipeline ----
  /// Split chunkable GWorks into element-aligned chunks of roughly this
  /// many bytes and pipeline H2D(i+1) ‖ kernel(i) ‖ D2H(i-1) through a
  /// device staging ring. 0 disables chunking (monolithic three-stage
  /// execution for every GWork).
  std::uint64_t chunk_bytes = 1 << 20;
  /// Staging-ring depth (chunks resident on the device at once). 3 covers
  /// the classic triple-buffering: one chunk per pipeline stage.
  int staging_slots = 3;
  /// When a monolithic GWork cannot place its buffers even after cache
  /// eviction (concurrent streams hold the device), it releases everything
  /// it grabbed and retries after this backoff instead of aborting. Holding
  /// nothing while waiting keeps the scheme deadlock-free.
  sim::Duration oom_retry_backoff = sim::micros(100);
};

class GStreamManager {
 public:
  /// `registry` (optional) receives the hot-path
  /// distributions: queue depth at enqueue and GWork submit->done latency.
  /// `spans` (optional) records each GWork's causal spans — gwork plus
  /// per-stage H2D/kernel/D2H children, monolithic or per chunk — parented
  /// to GWork::span; `node_id` tags them with the hosting worker.
  GStreamManager(sim::Simulation& sim, std::vector<gpu::CudaWrapper*> wrappers,
                 GMemoryManager& memory, const GStreamConfig& config,
                 obs::MetricsRegistry* registry = nullptr, obs::SpanStore* spans = nullptr,
                 int node_id = -1);

  /// Submit one GWork (Algorithm 5.1). Creates work->done, routes the work,
  /// and returns immediately; await work->done->wait() for completion.
  void submit(const GWorkPtr& work);

  /// Submit and await completion (the common producer pattern).
  sim::Co<void> run(const GWorkPtr& work) {
    submit(work);
    co_await work->done->wait();
  }

  int num_gpus() const { return static_cast<int>(wrappers_.size()); }
  int streams_per_gpu() const { return config_.streams_per_gpu; }

  /// Per-tenant GWork priority (JobService multi-tenancy): queued GWork of
  /// a higher-priority tenant pops before lower-priority work, FIFO within
  /// one priority. Applied at submit time to work whose GWork::tenant
  /// matches; 0 (the default) keeps plain FIFO.
  void set_tenant_priority(const std::string& tenant, int priority) {
    tenant_priority_[tenant] = priority;
  }
  int tenant_priority(const std::string& tenant) const {
    auto it = tenant_priority_.find(tenant);
    return it == tenant_priority_.end() ? 0 : it->second;
  }

  // Statistics for load-balance and stealing tests.
  std::uint64_t steals() const { return steals_; }
  /// Times a queued GWork popped ahead of the queue front because its
  /// tenant priority was higher (FIFO order bypassed).
  std::uint64_t priority_bypasses() const { return priority_bypasses_; }
  std::uint64_t freed_streams() const { return freed_count_; }
  std::size_t queue_depth(int gpu) const {
    return pool_.at(static_cast<std::size_t>(gpu)).size();
  }
  /// GWork executed through the chunked pipeline / total chunks issued /
  /// chunk-eligible GWork that fell back to monolithic execution because
  /// the staging ring, or the buffers placed beside it, did not fit.
  std::uint64_t chunked_works() const { return chunked_works_; }
  std::uint64_t chunks_total() const { return chunks_total_; }
  std::uint64_t chunk_fallbacks() const { return chunk_fallbacks_; }
  /// Times a monolithic placement released its buffers and backed off
  /// because concurrent streams held the device (see oom_retry_backoff).
  std::uint64_t oom_retries() const { return oom_retries_; }

  /// Publish scheduler counters (executions per GPU, steals, locality
  /// hits/misses, per-stage busy time) into `out`.
  void export_metrics(obs::MetricsRegistry& out) const;

 private:
  struct StreamWorker {
    int gpu = 0;
    bool idle = false;
    bool freed = true;  // not yet started
    std::uint64_t idle_generation = 0;
    std::unique_ptr<sim::Channel<GWorkPtr>> inbox;
  };

  /// Algorithm 5.1's stream selection (given the locality-preferred GPU).
  StreamWorker* select_stream(int preferred_gpu);
  StreamWorker* idle_stream_in_bulk(int gpu);
  int bulk_with_most_idle() const;
  int shortest_queue() const;

  /// Algorithm 5.2: steal from own queue, else from the longest one.
  GWorkPtr steal(int gpu);

  /// Pop the highest-priority GWork from `q` (FIFO within one priority;
  /// plain FIFO when all priorities are equal).
  GWorkPtr pop_best(std::deque<GWorkPtr>& q);

  /// Stream thread body: execute, steal, park with timeout, free.
  sim::Co<void> worker_loop(StreamWorker* w);
  void ensure_alive(int gpu);

  /// The three-stage pipeline for one GWork on one stream.
  sim::Co<void> execute(StreamWorker* w, const GWorkPtr& work);

  /// Chunk geometry for the intra-GWork pipeline, derived up front so the
  /// staging ring can be sized before any transfer or cache interaction.
  struct ChunkPlan {
    std::size_t items_per_chunk = 0;
    std::size_t num_chunks = 0;
    /// Per-item bytes of the ring-resident buffers: every splittable output
    /// plus every *uncached* splittable input (cached inputs live in the
    /// cache region, indivisible buffers in full-size allocations).
    std::uint64_t ring_item_bytes = 0;
  };

  /// True (and `plan` filled) when `work` is eligible for chunked
  /// execution under the current configuration.
  bool chunk_plan(const GWork& work, ChunkPlan& plan) const;

  /// Chunked execution: H2D(chunk i+1) ‖ kernel(chunk i) ‖ D2H(chunk i-1)
  /// through a device staging ring. Returns false (having changed nothing)
  /// when the ring cannot be reserved or the buffers beside it do not fit;
  /// the caller falls back to execute()'s monolithic path. `gspan` is the
  /// enclosing gwork causal span.
  sim::Co<bool> execute_chunked(StreamWorker* w, const GWorkPtr& work, const gpu::Kernel& kernel,
                                const ChunkPlan& plan, obs::SpanId gspan);

  /// The device memory one GWork holds on its GPU while it runs: transient
  /// buffers, and the cache entries it pinned (hits it found, fills it
  /// inserted). Both executors build it with place()/allocate() and hand it
  /// back with undo() (placement failed) or release() (the GWork is done).
  struct Placement {
    Placement(int on_device, std::uint64_t of_job) : device(on_device), job(of_job) {}
    int device;
    std::uint64_t job;
    std::vector<gpu::DevicePtr> temporaries;
    std::vector<std::uint64_t> hits;
    std::vector<std::uint64_t> fills;
  };
  /// One placed input: its device address (0 = the device had no room) and
  /// whether it was a cache hit, already resident, so no H2D is due.
  struct Placed {
    gpu::DevicePtr ptr = 0;
    bool hit = false;
  };

  /// Place one input on the device: a cache hit or fill when it is
  /// cacheable (an undersized hit is unpinned and refilled), else, or when
  /// the region declines it, a transient buffer.
  sim::Co<Placed> place(gpu::CudaWrapper& api, const GBuffer& in, Placement& held);
  /// A transient buffer of `bytes`, tried again once after evicting the
  /// job's unpinned cache entries; 0 when the device still has no room.
  sim::Co<gpu::DevicePtr> allocate(gpu::CudaWrapper& api, Placement& held, std::uint64_t bytes);
  /// Give back a failed placement: free the temporaries, drop the fills (no
  /// data reached them) and unpin the hits, leaving `held` empty.
  sim::Co<void> undo(gpu::CudaWrapper& api, Placement& held);
  /// Give back a finished GWork's holdings: free the temporaries and unpin
  /// every entry, hits and fills (the fills stay cached).
  sim::Co<void> release(gpu::CudaWrapper& api, Placement& held);

  /// Lane causal spans of GPU `gpu` render on ("node3/gpu1"), and the
  /// "gwork:<kernel>" span name. Both are interned on first use, so building
  /// a manager interns nothing and a GWork builds no strings. The lane is
  /// 0 when the manager records no spans.
  obs::StrId gpu_lane(int gpu);
  obs::StrId gwork_name(const std::string& execute_name);

  /// Completion bookkeeping shared by the mapped and pipelined paths.
  void finish(const GWorkPtr& work);

  sim::Simulation* sim_;
  std::vector<gpu::CudaWrapper*> wrappers_;
  GMemoryManager* memory_;
  GStreamConfig config_;
  obs::SpanStore* spans_ = nullptr;  // simulation-plane, like the scheduler state
  int node_id_ = -1;
  std::vector<obs::StrId> gpu_lanes_;  // by GPU; 0 until gpu_lane() first runs
  std::unordered_map<std::string, obs::StrId> gwork_names_;  // by execute_name
  sim::Rng rng_{0xC0FFEE};
  int round_robin_cursor_ = 0;

  // Scheduler structure (queues, bulks, worker state) is simulation-thread
  // state, mutated only between suspension points of the stream coroutines
  // (docs/ARCHITECTURE.md, "Single-threaded by construction").
  std::vector<std::deque<GWorkPtr>> pool_;  // GWork Pool: FIFO per GPU
  std::vector<std::vector<std::unique_ptr<StreamWorker>>> bulks_;
  // Tenant priority table (JobService): simulation-plane like the queues.
  std::unordered_map<std::string, int> tenant_priority_;

  std::uint64_t steals_ = 0;
  std::uint64_t priority_bypasses_ = 0;
  std::uint64_t freed_count_ = 0;
  std::uint64_t locality_hits_ = 0;
  std::uint64_t locality_misses_ = 0;
  std::uint64_t chunked_works_ = 0;
  std::uint64_t chunks_total_ = 0;
  std::uint64_t chunk_fallbacks_ = 0;
  std::uint64_t oom_retries_ = 0;
  sim::Duration stage_h2d_ns_ = 0;
  sim::Duration stage_kernel_ns_ = 0;
  sim::Duration stage_d2h_ns_ = 0;

  // Hot-path distribution sinks (owned by the registry; null when no
  // registry was attached).
  sim::Histogram* queue_depth_hist_ = nullptr;
  sim::Histogram* latency_hist_ = nullptr;
};

}  // namespace gflink::core
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
