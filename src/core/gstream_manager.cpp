// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "core/gstream_manager.hpp"

#include <algorithm>
#include <cstring>

namespace gflink::core {

namespace {

/// One GWork buffer as seen by the chunked pipeline.
struct ChunkBuf {
  mem::HBuffer* host = nullptr;
  std::uint64_t bytes = 0;   // full buffer size
  std::uint64_t stride = 0;  // per-item bytes; 0 = indivisible (bound whole)
  /// Full-size device allocation (cache slot, aux buffer, or temporary).
  /// 0 = ring resident: each chunk lives at ring_offset within its slot.
  gpu::DevicePtr device_base = 0;
  std::uint64_t ring_offset = 0;
  bool is_output = false;
  bool h2d = false;          // chunk-wise H2D required (uncached or cache-fill)
  bool upfront_h2d = false;  // indivisible: one whole transfer before the pipeline
  bool prefill_shadow = false;  // cache fill: make the entry's bytes coherent now
};

/// Shared state of one chunked execution; owned by execute_chunked's frame,
/// which outlives every chunk coroutine (it joins them via the WaitGroup).
struct ChunkCtx {
  sim::Simulation* sim = nullptr;
  gpu::CudaWrapper* api = nullptr;
  const gpu::Kernel* kernel = nullptr;
  GWork* work = nullptr;
  std::size_t items_per_chunk = 0;
  gpu::DevicePtr ring_base = 0;
  std::uint64_t slot_stride = 0;  // bytes per ring slot
  std::vector<ChunkBuf> buffers;  // binding order: inputs then outputs
  sim::Channel<int>* free_slots = nullptr;
  sim::WaitGroup* wg = nullptr;
  std::string label;
  sim::Duration h2d_ns = 0;
  sim::Duration kernel_ns = 0;
  sim::Duration d2h_ns = 0;
  // Causal tracing (null/0 when the manager has no span store attached).
  obs::SpanStore* spans = nullptr;
  obs::SpanId gspan = 0;
  std::string lane;
  int node = -1;
};

/// One chunk's pass through the three stages. Backpressure comes from the
/// free-slot channel: at most `staging_slots` chunks are in flight, so chunk
/// i+1's H2D overlaps chunk i's kernel overlaps chunk i-1's D2H (the copy
/// engines and the compute engine are independent FIFO resources).
sim::Co<void> run_chunk(ChunkCtx& ctx, std::size_t c) {
  const auto slot = co_await ctx.free_slots->recv();
  GFLINK_CHECK(slot.has_value());
  const std::size_t first = c * ctx.items_per_chunk;
  const std::size_t n = std::min(ctx.items_per_chunk, ctx.work->size - first);
  const gpu::DevicePtr slot_base =
      ctx.ring_base + static_cast<gpu::DevicePtr>(*slot) * ctx.slot_stride;

  std::vector<gpu::GpuDevice::BufferBinding> bindings;
  bindings.reserve(ctx.buffers.size());
  const sim::Time h2d_begin = ctx.sim->now();
  for (const ChunkBuf& b : ctx.buffers) {
    gpu::DevicePtr dptr = 0;
    std::uint64_t len = 0;
    if (b.stride == 0) {
      dptr = b.device_base;  // indivisible: transferred upfront, bound whole
      len = b.bytes;
    } else {
      const std::uint64_t off = static_cast<std::uint64_t>(first) * b.stride;
      dptr = b.device_base != 0 ? b.device_base + off : slot_base + b.ring_offset;
      len = static_cast<std::uint64_t>(n) * b.stride;
    }
    if (b.h2d) {
      co_await ctx.api->memcpy_h2d(dptr, *b.host, static_cast<std::size_t>(first) * b.stride,
                                   len, ctx.label);
    }
    bindings.push_back({dptr, len});
  }

  const sim::Time kernel_begin = ctx.sim->now();
  ctx.h2d_ns += kernel_begin - h2d_begin;
  if (ctx.spans != nullptr && kernel_begin > h2d_begin) {
    ctx.spans->record("h2d", obs::SpanCategory::H2D, ctx.gspan, h2d_begin, kernel_begin,
                      ctx.lane, ctx.node);
  }
  co_await ctx.api->launch_kernel(*ctx.kernel, bindings, n, ctx.work->layout,
                                  ctx.work->block_size, /*grid_size=*/0, ctx.work->params.get(),
                                  ctx.label);

  const sim::Time d2h_begin = ctx.sim->now();
  ctx.kernel_ns += d2h_begin - kernel_begin;
  if (ctx.spans != nullptr && d2h_begin > kernel_begin) {
    ctx.spans->record("kernel", obs::SpanCategory::Kernel, ctx.gspan, kernel_begin, d2h_begin,
                      ctx.lane, ctx.node);
  }
  for (std::size_t i = 0; i < ctx.buffers.size(); ++i) {
    const ChunkBuf& b = ctx.buffers[i];
    if (!b.is_output) continue;
    co_await ctx.api->memcpy_d2h(*b.host, static_cast<std::size_t>(first) * b.stride,
                                 bindings[i].ptr, bindings[i].len, ctx.label);
  }
  ctx.d2h_ns += ctx.sim->now() - d2h_begin;
  if (ctx.spans != nullptr && ctx.sim->now() > d2h_begin) {
    ctx.spans->record("d2h", obs::SpanCategory::D2H, ctx.gspan, d2h_begin, ctx.sim->now(),
                      ctx.lane, ctx.node);
  }

  const bool returned = ctx.free_slots->try_send(*slot);
  GFLINK_CHECK(returned);
  ctx.wg->done();
}

}  // namespace

GStreamManager::GStreamManager(sim::Simulation& sim, std::vector<gpu::CudaWrapper*> wrappers,
                               GMemoryManager& memory, const GStreamConfig& config,
                               obs::MetricsRegistry* registry, obs::SpanStore* spans,
                               int node_id)
    : sim_(&sim), wrappers_(std::move(wrappers)), memory_(&memory), config_(config),
      spans_(spans), node_id_(node_id) {
  GFLINK_CHECK(!wrappers_.empty());
  GFLINK_CHECK(config_.streams_per_gpu >= 1);
  if (registry != nullptr) {
    queue_depth_hist_ = &registry->histogram(obs::Metric::GstreamQueueDepth);
    latency_hist_ = &registry->histogram(obs::Metric::GworkLatencyNs);
  }
  pool_.resize(wrappers_.size());
  executed_.assign(wrappers_.size(), 0);
  bulks_.resize(wrappers_.size());
  for (std::size_t g = 0; g < wrappers_.size(); ++g) {
    for (int s = 0; s < config_.streams_per_gpu; ++s) {
      auto w = std::make_unique<StreamWorker>();
      w->gpu = static_cast<int>(g);
      w->stream_id = s;
      w->inbox = std::make_unique<sim::Channel<GWorkPtr>>(sim, 1);
      // The GStream Pool starts with live stream threads (paper Fig. 4);
      // they idle-timeout into the freed state and are revived on demand.
      w->freed = false;
      bulks_[g].push_back(std::move(w));
      // gflint: allow(C3): the manager owns its StreamWorkers and is itself
      // owned by the GpuManager for the whole simulation; worker_loop frames
      // never outlive `this`.
      sim_->spawn(worker_loop(bulks_[g].back().get()));
    }
  }
}

GStreamManager::StreamWorker* GStreamManager::idle_stream_in_bulk(int gpu) {
  for (auto& w : bulks_.at(static_cast<std::size_t>(gpu))) {
    if (w->idle && !w->freed) return w.get();
  }
  return nullptr;
}

int GStreamManager::bulk_with_most_idle() const {
  int best = -1, best_count = 0;
  for (std::size_t g = 0; g < bulks_.size(); ++g) {
    int count = 0;
    for (const auto& w : bulks_[g]) {
      if (w->idle && !w->freed) ++count;
    }
    if (count > best_count) {
      best_count = count;
      best = static_cast<int>(g);
    }
  }
  return best;
}

int GStreamManager::shortest_queue() const {
  int best = 0;
  std::size_t best_depth = pool_[0].size();
  for (std::size_t g = 1; g < pool_.size(); ++g) {
    if (pool_[g].size() < best_depth) {
      best_depth = pool_[g].size();
      best = static_cast<int>(g);
    }
  }
  return best;
}

GStreamManager::StreamWorker* GStreamManager::select_stream(int preferred_gpu) {
  // Algorithm 5.1, lines 2-10.
  if (preferred_gpu >= 0) {
    if (StreamWorker* w = idle_stream_in_bulk(preferred_gpu)) return w;
    const int most_idle = bulk_with_most_idle();
    if (most_idle >= 0) {
      ++cross_bulk_;
      return idle_stream_in_bulk(most_idle);
    }
    return nullptr;
  }
  const int most_idle = bulk_with_most_idle();
  return most_idle >= 0 ? idle_stream_in_bulk(most_idle) : nullptr;
}

void GStreamManager::submit(const GWorkPtr& work) {
  GFLINK_CHECK_MSG(work->done == nullptr, "GWork submitted twice");
  work->done = std::make_shared<sim::Trigger>(*sim_);
  work->submitted_at = sim_->now();
  work->priority = tenant_priority(work->tenant);
  // Record what Algorithm 5.1's probe would prefer regardless of the active
  // policy, so the locality hit/miss metric is comparable across ablations.
  work->preferred_gpu = memory_->best_device_for(*work);

  int preferred = -1;
  switch (config_.policy) {
    case SchedulingPolicy::LocalityAware:
      preferred = work->preferred_gpu;
      break;
    case SchedulingPolicy::RoundRobin:
      preferred = round_robin_cursor_;
      round_robin_cursor_ = (round_robin_cursor_ + 1) % num_gpus();
      break;
    case SchedulingPolicy::Random:
      preferred = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(num_gpus())));
      break;
  }

  if (StreamWorker* w = select_stream(preferred)) {
    w->idle = false;
    ++w->idle_generation;  // invalidate any pending idle-timeout
    const bool sent = w->inbox->try_send(work);
    GFLINK_CHECK(sent);
    return;
  }

  // Algorithm 5.1, lines 11-18: no idle stream anywhere — queue the work.
  const int queue = preferred >= 0 ? preferred : shortest_queue();
  pool_[static_cast<std::size_t>(queue)].push_back(work);
  if (queue_depth_hist_ != nullptr) {
    queue_depth_hist_->add(static_cast<double>(pool_[static_cast<std::size_t>(queue)].size()));
  }
  ensure_alive(queue);
}

GWorkPtr GStreamManager::pop_best(std::deque<GWorkPtr>& q) {
  auto best = q.begin();
  for (auto it = std::next(q.begin()); it != q.end(); ++it) {
    if ((*it)->priority > (*best)->priority) best = it;  // FIFO within one priority
  }
  if (best != q.begin()) ++priority_bypasses_;
  GWorkPtr w = *best;
  q.erase(best);
  return w;
}

GWorkPtr GStreamManager::steal(int gpu) {
  // Algorithm 5.2 (pop order is tenant-priority-aware, FIFO within one
  // priority; with no tenant priorities configured this is plain FIFO).
  auto& own = pool_[static_cast<std::size_t>(gpu)];
  if (!own.empty()) return pop_best(own);
  std::size_t longest = 0, depth = 0;
  for (std::size_t g = 0; g < pool_.size(); ++g) {
    if (pool_[g].size() > depth) {
      depth = pool_[g].size();
      longest = g;
    }
  }
  if (depth == 0) return nullptr;
  GWorkPtr w = pop_best(pool_[longest]);
  ++steals_;
  w->was_stolen = true;
  return w;
}

void GStreamManager::ensure_alive(int gpu) {
  for (auto& w : bulks_.at(static_cast<std::size_t>(gpu))) {
    if (w->freed) {
      w->freed = false;
      w->idle = false;
      // gflint: allow(C3): revived worker frame is bounded by the manager's
      // lifetime, same as the pool-construction spawn above.
      sim_->spawn(worker_loop(w.get()));
      return;  // one revived stream will drain the queue (and steal more)
    }
  }
}

sim::Co<void> GStreamManager::worker_loop(StreamWorker* w) {
  while (true) {
    // Drain work: own queue first, then steal (Algorithm 5.2).
    while (GWorkPtr work = steal(w->gpu)) {
      co_await execute(w, work);
    }
    // Nothing queued: park until the scheduler assigns work directly, or
    // the idle timeout frees this stream's thread (paper §5.3).
    w->idle = true;
    const std::uint64_t my_generation = ++w->idle_generation;
    sim_->schedule_in(config_.idle_timeout, [this, w, my_generation] {
      if (w->idle && !w->freed && w->idle_generation == my_generation) {
        w->inbox->try_send(nullptr);  // timeout sentinel
      }
    });
    auto assigned = co_await w->inbox->recv();
    if (!assigned.has_value() || *assigned == nullptr) {
      // Timed out: free the thread.
      w->idle = false;
      w->freed = true;
      ++freed_count_;
      co_return;
    }
    w->idle = false;
    co_await execute(w, *assigned);
  }
}

std::string GStreamManager::gpu_lane(int gpu) const {
  return (node_id_ >= 0 ? "node" + std::to_string(node_id_) + "/" : std::string()) + "gpu" +
         std::to_string(gpu);
}

bool GStreamManager::chunk_plan(const GWork& work, ChunkPlan& plan) const {
  if (!work.chunkable || work.use_mapped_memory) return false;
  if (work.grid_size != 0) return false;  // explicit grid covers the whole GWork
  if (work.size < 2 || work.outputs.empty()) return false;
  const std::uint64_t chunk_bytes = work.chunk_bytes != 0 ? work.chunk_bytes : config_.chunk_bytes;
  if (chunk_bytes == 0 || config_.staging_slots < 2) return false;

  std::uint64_t per_item = 0;
  plan.ring_item_bytes = 0;
  for (const auto& in : work.inputs) {
    if (in.item_stride == 0) continue;
    if (in.item_stride * work.size != in.bytes) return false;  // misdeclared stride
    per_item += in.item_stride;
    if (!in.cache) plan.ring_item_bytes += in.item_stride;
  }
  for (const auto& out : work.outputs) {
    // Chunkable work needs element-aligned outputs: an indivisible output
    // (block-level reduction) depends on the whole input.
    if (out.item_stride == 0 || out.item_stride * work.size != out.bytes) return false;
    per_item += out.item_stride;
    plan.ring_item_bytes += out.item_stride;
  }
  if (per_item == 0) return false;

  plan.items_per_chunk = std::max<std::size_t>(1, static_cast<std::size_t>(chunk_bytes / per_item));
  if (plan.items_per_chunk >= work.size) return false;  // single chunk: use monolithic
  plan.num_chunks = (work.size + plan.items_per_chunk - 1) / plan.items_per_chunk;
  return true;
}

sim::Co<bool> GStreamManager::execute_chunked(StreamWorker* w, const GWorkPtr& work,
                                              const ChunkPlan& plan, obs::SpanId gspan) {
  gpu::CudaWrapper& api = *wrappers_.at(static_cast<std::size_t>(w->gpu));
  const int gpu_index = w->gpu;
  const std::string label = work->execute_name;
  const sim::Time stage1_begin = sim_->now();

  // Reserve the staging ring before touching the cache or moving any bytes,
  // so a failed reservation falls back with no side effects (and, crucially,
  // without having pre-paid transfers the monolithic path would re-run).
  const std::size_t depth =
      std::min(static_cast<std::size_t>(config_.staging_slots), plan.num_chunks);
  const std::uint64_t slot_stride = plan.ring_item_bytes * plan.items_per_chunk;
  co_await sim_->delay(api.jni_overhead() + api.stub().overheads().malloc_cost);
  const gpu::DevicePtr ring =
      memory_->reserve_staging(gpu_index, work->job_id, slot_stride * depth);
  if (ring == 0) {
    stage_h2d_ns_ += sim_->now() - stage1_begin;
    co_return false;
  }

  ChunkCtx ctx;
  ctx.sim = sim_;
  ctx.api = &api;
  ctx.kernel = &gpu::KernelRegistry::global().lookup(work->execute_name);
  ctx.work = work.get();
  ctx.items_per_chunk = plan.items_per_chunk;
  ctx.ring_base = ring;
  ctx.slot_stride = slot_stride;
  ctx.label = label;
  ctx.spans = spans_;
  ctx.gspan = gspan;
  ctx.lane = gpu_lane(gpu_index);
  ctx.node = node_id_;

  std::vector<gpu::DevicePtr> temporaries;
  std::vector<std::uint64_t> pinned_keys;    // hits + fills: unpinned at teardown
  std::vector<std::uint64_t> inserted_keys;  // fills only: erased on abort

  // Placement pass — allocations only, no data movement yet, so an OOM can
  // abort cleanly into the monolithic fallback (cache untouched, nothing
  // pre-paid). Indivisible inputs (aux/broadcast) get full-size device
  // buffers; splittable ones either fill a cache slot chunk-by-chunk or
  // ride the staging ring.
  bool placed = true;
  for (auto& in : work->inputs) {
    ChunkBuf b;
    b.host = in.host.get();
    b.bytes = in.bytes;
    b.stride = in.item_stride;
    bool cache_hit = false;
    bool cache_fill = false;
    if (in.cache) {
      auto hit = memory_->lookup_pinned(gpu_index, work->job_id, in.cache_key);
      if (hit && hit->bytes >= in.bytes) {
        b.device_base = hit->ptr;
        cache_hit = true;  // the paper's avoided PCIe transfer
        pinned_keys.push_back(in.cache_key);
      } else {
        if (hit) memory_->unpin(gpu_index, work->job_id, in.cache_key);  // undersized hit
        if (auto slot = memory_->insert(gpu_index, work->job_id, in.cache_key, in.bytes)) {
          b.device_base = slot->ptr;
          cache_fill = true;
          pinned_keys.push_back(in.cache_key);
          inserted_keys.push_back(in.cache_key);
        }
      }
    }
    if (b.device_base == 0 && (b.stride == 0 || in.cache)) {
      // Indivisible uncached input, or a cacheable one the region declined:
      // full-size transient allocation. (Uncached *splittable* inputs ride
      // the staging ring and need no allocation here.)
      gpu::DevicePtr dptr = co_await api.cuda_malloc(in.bytes);
      if (dptr == 0 && memory_->evict_for_space(gpu_index, work->job_id, in.bytes)) {
        dptr = co_await api.cuda_malloc(in.bytes);
      }
      if (dptr == 0) {
        placed = false;  // ring + full-size buffers exceed the device
        break;
      }
      temporaries.push_back(dptr);
      b.device_base = dptr;
    }
    if (!cache_hit) {
      b.upfront_h2d = b.stride == 0;
      b.h2d = b.stride != 0;  // chunk-wise H2D (into ring, cache slot, or temporary)
      b.prefill_shadow = cache_fill && b.stride != 0;
    }
    ctx.buffers.push_back(b);
  }
  if (!placed) {
    for (gpu::DevicePtr t : temporaries) {
      co_await api.cuda_free(t);
    }
    for (std::uint64_t key : inserted_keys) {
      memory_->erase(gpu_index, work->job_id, key);  // releases this pin too
    }
    for (std::uint64_t key : pinned_keys) {
      if (std::find(inserted_keys.begin(), inserted_keys.end(), key) == inserted_keys.end()) {
        memory_->unpin(gpu_index, work->job_id, key);
      }
    }
    co_await sim_->delay(api.jni_overhead() + api.stub().overheads().free_cost);
    memory_->release_staging(gpu_index, ring);
    stage_h2d_ns_ += sim_->now() - stage1_begin;
    co_return false;
  }

  // Transfer pass: now that every placement is secured, move the upfront
  // data.
  for (ChunkBuf& b : ctx.buffers) {
    if (b.upfront_h2d) {
      // Indivisible (aux/broadcast): one whole transfer before the
      // pipeline starts; every chunk kernel binds the full buffer.
      co_await api.memcpy_h2d(b.device_base, *b.host, 0, b.bytes, label);
    } else if (b.prefill_shadow) {
      // The entry is visible to concurrent streams from the moment
      // insert() returned; make its real bytes coherent now — the chunk
      // DMAs below model the transfer *time* and rewrite the same bytes.
      std::memcpy(api.device().memory().shadow(b.device_base, b.bytes), b.host->data(), b.bytes);
    }
  }
  for (auto& out : work->outputs) {
    ChunkBuf b;
    b.host = out.host.get();
    b.bytes = out.bytes;
    b.stride = out.item_stride;
    b.is_output = true;
    ctx.buffers.push_back(b);
  }

  // Ring sub-layout: consecutive per-buffer lanes inside each slot.
  std::uint64_t lane = 0;
  for (ChunkBuf& b : ctx.buffers) {
    if (b.device_base != 0 || b.stride == 0) continue;
    b.ring_offset = lane;
    lane += b.stride * plan.items_per_chunk;
  }
  GFLINK_CHECK(lane <= slot_stride);
  stage_h2d_ns_ += sim_->now() - stage1_begin;

  // The pipeline: one coroutine per chunk, admitted by the free-slot channel
  // (depth = staging slots). Engine mutexes are FIFO, so chunks proceed in
  // issue order through each stage.
  sim::Channel<int> free_slots(*sim_, depth);
  sim::WaitGroup wg(*sim_);
  ctx.free_slots = &free_slots;
  ctx.wg = &wg;
  for (std::size_t s = 0; s < depth; ++s) {
    const bool ok = free_slots.try_send(static_cast<int>(s));
    GFLINK_CHECK(ok);
  }
  wg.add(static_cast<int>(plan.num_chunks));
  for (std::size_t c = 0; c < plan.num_chunks; ++c) {
    sim_->spawn(run_chunk(ctx, c));
  }
  co_await wg.wait();
  stage_h2d_ns_ += ctx.h2d_ns;
  stage_kernel_ns_ += ctx.kernel_ns;
  stage_d2h_ns_ += ctx.d2h_ns;

  const sim::Time teardown_begin = sim_->now();
  co_await sim_->delay(api.jni_overhead() + api.stub().overheads().free_cost);
  memory_->release_staging(gpu_index, ring);
  for (gpu::DevicePtr t : temporaries) {
    co_await api.cuda_free(t);
  }
  for (std::uint64_t key : pinned_keys) {
    memory_->unpin(gpu_index, work->job_id, key);
  }
  stage_d2h_ns_ += sim_->now() - teardown_begin;

  ++chunked_works_;
  chunks_total_ += plan.num_chunks;
  work->executed_chunks = plan.num_chunks;
  if (spans_ != nullptr) {
    spans_->annotate(gspan, "chunks", std::to_string(plan.num_chunks));
    spans_->annotate(gspan, "cache_hits",
                     std::to_string(pinned_keys.size() - inserted_keys.size()));
    spans_->annotate(gspan, "cache_misses", std::to_string(inserted_keys.size()));
  }
  finish(work, gpu_index);
  co_return true;
}

sim::Co<void> GStreamManager::execute(StreamWorker* w, const GWorkPtr& work) {
  gpu::CudaWrapper& api = *wrappers_.at(static_cast<std::size_t>(w->gpu));
  const int gpu_index = w->gpu;
  work->executed_on_gpu = gpu_index;
  work->executed_on_stream = w->stream_id;

  obs::SpanId gspan = 0;
  if (spans_ != nullptr) {
    gspan = spans_->open("gwork:" + work->execute_name, obs::SpanCategory::Control, work->span,
                        sim_->now(), gpu_lane(gpu_index), node_id_);
  }

  if (ChunkPlan plan; chunk_plan(*work, plan)) {
    if (co_await execute_chunked(w, work, plan, gspan)) {
      if (spans_ != nullptr) spans_->close(gspan, sim_->now());
      co_return;
    }
    ++chunk_fallbacks_;  // ring unavailable: monolithic fallback below
    if (spans_ != nullptr) spans_->annotate(gspan, "chunk_fallback", "staging ring unavailable");
  }

  if (work->use_mapped_memory) {
    // Zero-copy path: bind the host buffers directly; the kernel streams
    // them across PCIe (§4.1.2). No allocations, no copy engines.
    GFLINK_CHECK_MSG(!work->inputs.empty(), "mapped GWork needs buffers");
    std::vector<std::span<std::byte>> spans;
    spans.reserve(work->inputs.size() + work->outputs.size());
    for (auto& in : work->inputs) {
      GFLINK_CHECK_MSG(!in.cache, "mapped memory and GPU caching are exclusive");
      spans.emplace_back(in.host->data(), in.bytes);
    }
    for (auto& out : work->outputs) {
      spans.emplace_back(out.host->data(), out.bytes);
    }
    const gpu::Kernel& kernel = gpu::KernelRegistry::global().lookup(work->execute_name);
    const sim::Time kernel_begin = sim_->now();
    co_await api.device().launch_mapped(kernel, std::move(spans), work->size, work->layout,
                                        work->execute_name);
    stage_kernel_ns_ += sim_->now() - kernel_begin;
    if (spans_ != nullptr) {
      spans_->record("kernel", obs::SpanCategory::Kernel, gspan, kernel_begin, sim_->now(),
                     gpu_lane(gpu_index), node_id_);
      spans_->annotate(gspan, "mapped_memory", "1");
      spans_->close(gspan, sim_->now());
    }
    finish(work, gpu_index);
    co_return;
  }

  const std::string label = work->execute_name;
  const sim::Time stage1_begin = sim_->now();
  std::vector<gpu::GpuDevice::BufferBinding> bindings;
  bindings.reserve(work->inputs.size() + work->outputs.size());
  std::vector<gpu::DevicePtr> temporaries;
  std::vector<std::uint64_t> pinned_keys;    // cache entries in use by this GWork
  std::vector<std::uint64_t> inserted_keys;  // subset of pinned_keys we created
  std::vector<bool> input_needs_transfer;    // parallel to work->inputs

  // Stage 1a: place every buffer (inputs honouring the GPU cache, then
  // outputs) before moving any data. Cached entries are pinned for the
  // duration of the GWork so a concurrent stream cannot evict (and the
  // allocator reuse) device memory we are still reading. If placement
  // fails even after cache eviction — concurrent streams hold the rest of
  // the device — release everything we grabbed and retry after a backoff:
  // holding nothing while waiting means no hold-and-wait, so streams can
  // never deadlock on each other, and the work proceeds once the device
  // drains.
  int oom_backoffs = 0;
  for (int attempt = 0;; ++attempt) {
    bool placed = true;
    for (auto& in : work->inputs) {
      gpu::DevicePtr dptr = 0;
      bool need_transfer = true;
      if (in.cache) {
        auto hit = memory_->lookup_pinned(gpu_index, work->job_id, in.cache_key);
        if (hit && hit->bytes >= in.bytes) {
          dptr = hit->ptr;
          pinned_keys.push_back(in.cache_key);
          need_transfer = false;  // the paper's avoided PCIe transfer
        } else {
          if (hit) memory_->unpin(gpu_index, work->job_id, in.cache_key);  // undersized hit
          if (auto slot = memory_->insert(gpu_index, work->job_id, in.cache_key, in.bytes)) {
            dptr = slot->ptr;  // region allocation: no cudaMalloc on the hot path
            pinned_keys.push_back(in.cache_key);
            inserted_keys.push_back(in.cache_key);
          }
        }
      }
      if (dptr == 0) {
        dptr = co_await api.cuda_malloc(in.bytes);
        if (dptr == 0 && memory_->evict_for_space(gpu_index, work->job_id, in.bytes)) {
          dptr = co_await api.cuda_malloc(in.bytes);  // retry after cache relief
        }
        if (dptr == 0) {
          placed = false;
          break;
        }
        temporaries.push_back(dptr);
      }
      bindings.push_back({dptr, in.bytes});
      input_needs_transfer.push_back(need_transfer);
    }
    if (placed) {
      // Output allocations (released automatically after D2H).
      for (auto& out : work->outputs) {
        gpu::DevicePtr dptr = co_await api.cuda_malloc(out.bytes);
        if (dptr == 0 && memory_->evict_for_space(gpu_index, work->job_id, out.bytes)) {
          dptr = co_await api.cuda_malloc(out.bytes);
        }
        if (dptr == 0) {
          placed = false;
          break;
        }
        temporaries.push_back(dptr);
        bindings.push_back({dptr, out.bytes});
      }
    }
    if (placed) break;

    // Undo this attempt completely before sleeping.
    for (gpu::DevicePtr t : temporaries) {
      co_await api.cuda_free(t);
    }
    temporaries.clear();
    for (std::uint64_t key : inserted_keys) {
      memory_->erase(gpu_index, work->job_id, key);
    }
    for (std::uint64_t key : pinned_keys) {
      if (std::find(inserted_keys.begin(), inserted_keys.end(), key) == inserted_keys.end()) {
        memory_->unpin(gpu_index, work->job_id, key);
      }
    }
    pinned_keys.clear();
    inserted_keys.clear();
    bindings.clear();
    input_needs_transfer.clear();
    GFLINK_CHECK_MSG(attempt < 1000, "device OOM: GWork buffers never fit");
    ++oom_retries_;
    ++oom_backoffs;
    // Exponential growth (capped at 1024x): the base is a config-scale
    // latency, but how long until concurrent works release their buffers
    // is set by transfer/kernel durations, which the scale knob does not
    // shrink the same way — growing the backoff adapts to either regime.
    co_await sim_->delay(config_.oom_retry_backoff << std::min(attempt, 10));
  }

  // Stage 1b: H2D input transfers into the placed buffers.
  for (std::size_t i = 0; i < work->inputs.size(); ++i) {
    if (!input_needs_transfer[i]) continue;
    auto& in = work->inputs[i];
    co_await api.memcpy_h2d(bindings[i].ptr, *in.host, 0, in.bytes, label);
  }

  // Stage 2: kernel execution.
  const sim::Time stage2_begin = sim_->now();
  stage_h2d_ns_ += stage2_begin - stage1_begin;
  co_await api.launch_kernel(work->execute_name, bindings, work->size, work->layout,
                             work->block_size, work->grid_size, work->params.get(), label);

  // Stage 3: D2H result transfers.
  const sim::Time stage3_begin = sim_->now();
  stage_kernel_ns_ += stage3_begin - stage2_begin;
  std::size_t binding_index = work->inputs.size();
  for (auto& out : work->outputs) {
    co_await api.memcpy_d2h(*out.host, 0, bindings[binding_index].ptr, out.bytes, label);
    ++binding_index;
  }

  for (gpu::DevicePtr t : temporaries) {
    co_await api.cuda_free(t);
  }
  for (std::uint64_t key : pinned_keys) {
    memory_->unpin(gpu_index, work->job_id, key);
  }
  stage_d2h_ns_ += sim_->now() - stage3_begin;

  if (spans_ != nullptr) {
    const std::string lane = gpu_lane(gpu_index);
    if (stage2_begin > stage1_begin) {
      spans_->record("h2d", obs::SpanCategory::H2D, gspan, stage1_begin, stage2_begin, lane,
                     node_id_);
    }
    if (stage3_begin > stage2_begin) {
      spans_->record("kernel", obs::SpanCategory::Kernel, gspan, stage2_begin, stage3_begin,
                     lane, node_id_);
    }
    if (sim_->now() > stage3_begin) {
      spans_->record("d2h", obs::SpanCategory::D2H, gspan, stage3_begin, sim_->now(), lane,
                     node_id_);
    }
    spans_->annotate(gspan, "cache_hits",
                     std::to_string(pinned_keys.size() - inserted_keys.size()));
    spans_->annotate(gspan, "cache_misses", std::to_string(inserted_keys.size()));
    if (oom_backoffs > 0) {
      spans_->annotate(gspan, "oom_retries", std::to_string(oom_backoffs));
    }
    spans_->close(gspan, sim_->now());
  }

  finish(work, gpu_index);
}

void GStreamManager::finish(const GWorkPtr& work, int gpu_index) {
  ++executed_[static_cast<std::size_t>(gpu_index)];
  work->finished_at = sim_->now();
  if (work->preferred_gpu >= 0) {
    if (work->executed_on_gpu == work->preferred_gpu) {
      ++locality_hits_;
    } else {
      ++locality_misses_;
    }
  }
  if (latency_hist_ != nullptr) {
    latency_hist_->add(static_cast<double>(work->finished_at - work->submitted_at));
  }
  work->done->fire();
}

void GStreamManager::export_metrics(obs::MetricsRegistry& out) const {
  for (std::size_t g = 0; g < executed_.size(); ++g) {
    out.counter(obs::Metric::GstreamExecuted, {{"gpu", std::to_string(g)}})
        .inc(static_cast<double>(executed_[g]));
  }
  out.counter(obs::Metric::GstreamSteals).inc(static_cast<double>(steals_));
  out.counter(obs::Metric::GstreamPriorityBypass).inc(static_cast<double>(priority_bypasses_));
  out.counter(obs::Metric::GstreamCrossBulk).inc(static_cast<double>(cross_bulk_));
  out.counter(obs::Metric::GstreamFreedStreams).inc(static_cast<double>(freed_count_));
  out.counter(obs::Metric::GstreamLocalityHits).inc(static_cast<double>(locality_hits_));
  out.counter(obs::Metric::GstreamLocalityMisses).inc(static_cast<double>(locality_misses_));
  out.counter(obs::Metric::GstreamChunkedWorks).inc(static_cast<double>(chunked_works_));
  out.counter(obs::Metric::GstreamChunks).inc(static_cast<double>(chunks_total_));
  out.counter(obs::Metric::GstreamChunkFallbacks).inc(static_cast<double>(chunk_fallbacks_));
  out.counter(obs::Metric::GstreamOomRetries).inc(static_cast<double>(oom_retries_));
  out.counter(obs::Metric::GpuStageBusyNs, {{"stage", "h2d"}})
      .inc(static_cast<double>(stage_h2d_ns_));
  out.counter(obs::Metric::GpuStageBusyNs, {{"stage", "kernel"}})
      .inc(static_cast<double>(stage_kernel_ns_));
  out.counter(obs::Metric::GpuStageBusyNs, {{"stage", "d2h"}})
      .inc(static_cast<double>(stage_d2h_ns_));
}

}  // namespace gflink::core
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
