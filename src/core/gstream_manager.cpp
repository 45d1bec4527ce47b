// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "core/gstream_manager.hpp"

#include <algorithm>

namespace gflink::core {

namespace {

/// One GWork buffer as seen by the chunked pipeline. Inputs are bound as
/// their host bytes (the kernel reads them in place); their device
/// placement only models capacity. Outputs ride the staging ring.
struct ChunkBuf {
  mem::HBuffer* host = nullptr;
  std::uint64_t bytes = 0;   // full buffer size
  std::uint64_t stride = 0;  // per-item bytes; 0 = indivisible (bound whole)
  /// Full-size device allocation (cache slot, aux buffer, or temporary).
  /// 0 = ring resident: each chunk lives at ring_offset within its slot.
  gpu::DevicePtr device_base = 0;
  std::uint64_t ring_offset = 0;
  bool is_output = false;
  bool h2d = false;          // chunk-wise H2D charged (uncached or cache-fill)
  bool upfront_h2d = false;  // indivisible: one whole transfer before the pipeline
};

/// Where one GWork's stage spans go: children of its gwork span, on its
/// GPU's lane. `store` is null when the manager records no spans.
struct StageSpans {
  obs::SpanStore* store = nullptr;
  obs::SpanId gspan = 0;
  obs::StrId lane;
  int node = -1;
};

/// Record one stage [begin, end) of a GWork, named after its category; an
/// empty stage records nothing. Every h2d/kernel/d2h span is built here:
/// per chunk by run_chunk, and once per GWork by the monolithic and mapped
/// paths.
void record_stage(const StageSpans& to, obs::SpanCategory stage, sim::Time begin,
                  sim::Time end) {
  if (to.store == nullptr || end <= begin) return;
  const char* name = stage == obs::SpanCategory::H2D      ? "h2d"
                     : stage == obs::SpanCategory::Kernel ? "kernel"
                                                          : "d2h";
  to.store->record(name, stage, to.gspan, begin, end, to.lane, to.node);
}

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
  sim::Duration h2d_ns = 0;
  sim::Duration kernel_ns = 0;
  sim::Duration d2h_ns = 0;
  StageSpans stages;
};

/// One chunk's pass through the three stages. Backpressure comes from the
/// free-slot channel: at most `staging_slots` chunks are in flight, so chunk
/// i+1's H2D overlaps chunk i's kernel overlaps chunk i-1's D2H (the copy
/// engines and the compute engine are independent FIFO resources).
sim::Co<void> run_chunk(ChunkCtx& ctx, std::size_t c) {
  const int slot = co_await ctx.free_slots->recv();
  const std::size_t first = c * ctx.items_per_chunk;
  const std::size_t n = std::min(ctx.items_per_chunk, ctx.work->size - first);
  const gpu::DevicePtr slot_base =
      ctx.ring_base + static_cast<gpu::DevicePtr>(slot) * ctx.slot_stride;
  const std::string& label = ctx.work->execute_name;

  std::vector<gpu::GpuDevice::BufferBinding> bindings;
  bindings.reserve(ctx.buffers.size());
  const sim::Time h2d_begin = ctx.sim->now();
  for (const ChunkBuf& b : ctx.buffers) {
    // This chunk's items, or the whole buffer when indivisible (transferred
    // upfront).
    const std::uint64_t off = static_cast<std::uint64_t>(first) * b.stride;
    const std::uint64_t len = b.stride == 0 ? b.bytes : static_cast<std::uint64_t>(n) * b.stride;
    if (b.is_output) {
      bindings.push_back({slot_base + b.ring_offset, len});
      continue;
    }
    if (b.h2d) co_await ctx.api->charge_h2d(*b.host, off, len, label);
    bindings.push_back({0, len, b.host->data() + off});
  }

  const sim::Time kernel_begin = ctx.sim->now();
  ctx.h2d_ns += kernel_begin - h2d_begin;
  record_stage(ctx.stages, obs::SpanCategory::H2D, h2d_begin, kernel_begin);
  co_await ctx.api->launch_kernel(*ctx.kernel, bindings, n, ctx.work->layout,
                                  ctx.work->block_size, /*grid_size=*/0, label);

  const sim::Time d2h_begin = ctx.sim->now();
  ctx.kernel_ns += d2h_begin - kernel_begin;
  record_stage(ctx.stages, obs::SpanCategory::Kernel, kernel_begin, d2h_begin);
  for (std::size_t i = 0; i < ctx.buffers.size(); ++i) {
    const ChunkBuf& b = ctx.buffers[i];
    if (!b.is_output) continue;
    co_await ctx.api->memcpy_d2h(*b.host, static_cast<std::size_t>(first) * b.stride,
                                 bindings[i].ptr, bindings[i].len, label);
  }
  ctx.d2h_ns += ctx.sim->now() - d2h_begin;
  record_stage(ctx.stages, obs::SpanCategory::D2H, d2h_begin, ctx.sim->now());

  const bool returned = ctx.free_slots->try_send(slot);
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
  gpu_lanes_.resize(wrappers_.size());
  bulks_.resize(wrappers_.size());
  for (std::size_t g = 0; g < wrappers_.size(); ++g) {
    for (int s = 0; s < config_.streams_per_gpu; ++s) {
      auto w = std::make_unique<StreamWorker>();
      w->gpu = static_cast<int>(g);
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
    GWorkPtr assigned = co_await w->inbox->recv();
    if (assigned == nullptr) {
      // Timed out: free the thread.
      w->idle = false;
      w->freed = true;
      ++freed_count_;
      co_return;
    }
    w->idle = false;
    co_await execute(w, assigned);
  }
}

obs::StrId GStreamManager::gpu_lane(int gpu) {
  if (spans_ == nullptr) return {};
  obs::StrId& id = gpu_lanes_[static_cast<std::size_t>(gpu)];
  if (id.v == 0) {
    id = spans_->intern((node_id_ >= 0 ? "node" + std::to_string(node_id_) + "/" : std::string()) +
                        "gpu" + std::to_string(gpu));
  }
  return id;
}

obs::StrId GStreamManager::gwork_name(const std::string& execute_name) {
  auto [it, fresh] = gwork_names_.try_emplace(execute_name);
  if (fresh) it->second = spans_->intern("gwork:" + execute_name);
  return it->second;
}

bool GStreamManager::chunk_plan(const GWork& work, ChunkPlan& plan) const {
  if (!work.chunkable || work.use_mapped_memory) return false;
  if (work.grid_size != 0) return false;  // explicit grid covers the whole GWork
  if (work.size < 2 || work.outputs.empty()) return false;
  if (config_.chunk_bytes == 0 || config_.staging_slots < 2) return false;

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

  plan.items_per_chunk =
      std::max<std::size_t>(1, static_cast<std::size_t>(config_.chunk_bytes / per_item));
  if (plan.items_per_chunk >= work.size) return false;  // single chunk: use monolithic
  plan.num_chunks = (work.size + plan.items_per_chunk - 1) / plan.items_per_chunk;
  return true;
}

sim::Co<GStreamManager::Placed> GStreamManager::place(gpu::CudaWrapper& api, const GBuffer& in,
                                                      Placement& held) {
  if (in.cache) {
    auto hit = memory_->lookup_pinned(held.device, held.job, in.cache_key);
    if (hit && hit->bytes >= in.bytes) {
      held.hits.push_back(in.cache_key);
      co_return Placed{hit->ptr, true};  // the paper's avoided PCIe transfer
    }
    if (hit) memory_->unpin(held.device, held.job, in.cache_key);  // undersized hit
    if (auto slot = memory_->insert(held.device, held.job, in.cache_key, in.bytes)) {
      held.fills.push_back(in.cache_key);
      co_return Placed{slot->ptr, false};  // region allocation: no cudaMalloc on the hot path
    }
  }
  co_return Placed{co_await allocate(api, held, in.bytes), false};
}

sim::Co<gpu::DevicePtr> GStreamManager::allocate(gpu::CudaWrapper& api, Placement& held,
                                                 std::uint64_t bytes) {
  gpu::DevicePtr ptr = co_await api.cuda_malloc(bytes);
  if (ptr == 0 && memory_->evict_for_space(held.device, held.job, bytes)) {
    ptr = co_await api.cuda_malloc(bytes);  // retry after cache relief
  }
  if (ptr != 0) held.temporaries.push_back(ptr);
  co_return ptr;
}

sim::Co<void> GStreamManager::undo(gpu::CudaWrapper& api, Placement& held) {
  for (gpu::DevicePtr t : held.temporaries) {
    co_await api.cuda_free(t);
  }
  // Hits first: a fill this GWork also hit (one key named twice) is then
  // pinned only by the fill, and its erase drops it.
  for (std::uint64_t key : held.hits) {
    memory_->unpin(held.device, held.job, key);
  }
  for (std::uint64_t key : held.fills) {
    memory_->erase(held.device, held.job, key);  // releases this pin too
  }
  held.temporaries.clear();
  held.fills.clear();
  held.hits.clear();
}

sim::Co<void> GStreamManager::release(gpu::CudaWrapper& api, Placement& held) {
  for (gpu::DevicePtr t : held.temporaries) {
    co_await api.cuda_free(t);
  }
  for (std::uint64_t key : held.hits) {
    memory_->unpin(held.device, held.job, key);
  }
  for (std::uint64_t key : held.fills) {
    memory_->unpin(held.device, held.job, key);
  }
}

sim::Co<bool> GStreamManager::execute_chunked(StreamWorker* w, const GWorkPtr& work,
                                              const gpu::Kernel& kernel, const ChunkPlan& plan,
                                              obs::SpanId gspan) {
  gpu::CudaWrapper& api = *wrappers_.at(static_cast<std::size_t>(w->gpu));
  const int gpu_index = w->gpu;
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
  ctx.kernel = &kernel;
  ctx.work = work.get();
  ctx.items_per_chunk = plan.items_per_chunk;
  ctx.ring_base = ring;
  ctx.slot_stride = slot_stride;
  ctx.stages = {spans_, gspan, gpu_lane(gpu_index), node_id_};

  // Placement pass — allocations only, no data movement yet, so an OOM can
  // abort cleanly into the monolithic fallback (cache untouched, nothing
  // pre-paid). Indivisible inputs (aux/broadcast) get full-size device
  // buffers; splittable ones either fill a cache slot chunk-by-chunk or,
  // uncached, ride the staging ring and need no buffer of their own.
  Placement held(gpu_index, work->job_id);
  bool placed = true;
  for (auto& in : work->inputs) {
    ChunkBuf b;
    b.host = in.host.get();
    b.bytes = in.bytes;
    b.stride = in.item_stride;
    bool cache_hit = false;
    if (in.cache || b.stride == 0) {
      const Placed p = co_await place(api, in, held);
      if (p.ptr == 0) {
        placed = false;  // ring + full-size buffers exceed the device
        break;
      }
      b.device_base = p.ptr;
      cache_hit = p.hit;
    }
    if (!cache_hit) {
      b.upfront_h2d = b.stride == 0;
      b.h2d = b.stride != 0;  // chunk-wise H2D (into ring, cache slot, or temporary)
    }
    ctx.buffers.push_back(b);
  }
  if (!placed) {
    co_await undo(api, held);
    co_await sim_->delay(api.jni_overhead() + api.stub().overheads().free_cost);
    memory_->release_staging(gpu_index, ring);
    stage_h2d_ns_ += sim_->now() - stage1_begin;
    co_return false;
  }

  // Transfer pass: now that every placement is secured, charge the upfront
  // transfers. Indivisible (aux/broadcast) inputs move whole before the
  // pipeline starts; every chunk kernel binds the full buffer.
  for (const ChunkBuf& b : ctx.buffers) {
    if (b.upfront_h2d) co_await api.charge_h2d(*b.host, 0, b.bytes, work->execute_name);
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
  co_await release(api, held);
  stage_d2h_ns_ += sim_->now() - teardown_begin;

  ++chunked_works_;
  chunks_total_ += plan.num_chunks;
  work->executed_chunks = plan.num_chunks;
  if (spans_ != nullptr) {
    spans_->annotate(gspan, "chunks", std::to_string(plan.num_chunks));
    spans_->annotate(gspan, "cache_hits", std::to_string(held.hits.size()));
    spans_->annotate(gspan, "cache_misses", std::to_string(held.fills.size()));
  }
  finish(work);
  co_return true;
}

sim::Co<void> GStreamManager::execute(StreamWorker* w, const GWorkPtr& work) {
  gpu::CudaWrapper& api = *wrappers_.at(static_cast<std::size_t>(w->gpu));
  const int gpu_index = w->gpu;
  work->executed_on_gpu = gpu_index;
  const gpu::Kernel& kernel = gpu::KernelRegistry::global().lookup(work->execute_name);

  obs::SpanId gspan = 0;
  if (spans_ != nullptr) {
    const obs::StrId name = gwork_name(work->execute_name);  // interned before the lane
    gspan = spans_->open(name, obs::SpanCategory::Control, work->span, sim_->now(),
                         gpu_lane(gpu_index), node_id_);
  }
  const StageSpans stages{spans_, gspan, gpu_lane(gpu_index), node_id_};

  if (ChunkPlan plan; chunk_plan(*work, plan)) {
    if (co_await execute_chunked(w, work, kernel, plan, gspan)) {
      if (spans_ != nullptr) spans_->close(gspan, sim_->now());
      co_return;
    }
    ++chunk_fallbacks_;  // no room for the ring or its buffers: monolithic fallback below
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
    const sim::Time kernel_begin = sim_->now();
    co_await api.device().launch_mapped(kernel, std::move(spans), work->size, work->layout,
                                        work->execute_name);
    stage_kernel_ns_ += sim_->now() - kernel_begin;
    record_stage(stages, obs::SpanCategory::Kernel, kernel_begin, sim_->now());
    if (spans_ != nullptr) {
      spans_->annotate(gspan, "mapped_memory", "1");
      spans_->close(gspan, sim_->now());
    }
    finish(work);
    co_return;
  }

  const sim::Time stage1_begin = sim_->now();
  std::vector<gpu::GpuDevice::BufferBinding> bindings;
  bindings.reserve(work->inputs.size() + work->outputs.size());
  std::vector<bool> input_needs_transfer;  // parallel to work->inputs
  Placement held(gpu_index, work->job_id);

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
      const Placed p = co_await place(api, in, held);
      if (p.ptr == 0) {
        placed = false;
        break;
      }
      // The kernel reads the GWork's own host bytes in place; the device
      // placement above models capacity and the cache.
      bindings.push_back({p.ptr, in.bytes, in.host->data()});
      input_needs_transfer.push_back(!p.hit);
    }
    if (placed) {
      // Output allocations (released automatically after D2H).
      for (auto& out : work->outputs) {
        const gpu::DevicePtr dptr = co_await allocate(api, held, out.bytes);
        if (dptr == 0) {
          placed = false;
          break;
        }
        bindings.push_back({dptr, out.bytes});
      }
    }
    if (placed) break;

    // Undo this attempt completely before sleeping.
    co_await undo(api, held);
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

  // Stage 1b: H2D input transfers into the placed buffers (charged, not
  // copied: the kernel reads the inputs in place).
  for (std::size_t i = 0; i < work->inputs.size(); ++i) {
    if (!input_needs_transfer[i]) continue;
    const auto& in = work->inputs[i];
    co_await api.charge_h2d(*in.host, 0, in.bytes, work->execute_name);
  }

  // Stage 2: kernel execution.
  const sim::Time stage2_begin = sim_->now();
  stage_h2d_ns_ += stage2_begin - stage1_begin;
  co_await api.launch_kernel(kernel, bindings, work->size, work->layout, work->block_size,
                             work->grid_size, work->execute_name);

  // Stage 3: D2H result transfers.
  const sim::Time stage3_begin = sim_->now();
  stage_kernel_ns_ += stage3_begin - stage2_begin;
  std::size_t binding_index = work->inputs.size();
  for (auto& out : work->outputs) {
    co_await api.memcpy_d2h(*out.host, 0, bindings[binding_index].ptr, out.bytes,
                            work->execute_name);
    ++binding_index;
  }
  co_await release(api, held);
  stage_d2h_ns_ += sim_->now() - stage3_begin;

  record_stage(stages, obs::SpanCategory::H2D, stage1_begin, stage2_begin);
  record_stage(stages, obs::SpanCategory::Kernel, stage2_begin, stage3_begin);
  record_stage(stages, obs::SpanCategory::D2H, stage3_begin, sim_->now());
  if (spans_ != nullptr) {
    spans_->annotate(gspan, "cache_hits", std::to_string(held.hits.size()));
    spans_->annotate(gspan, "cache_misses", std::to_string(held.fills.size()));
    if (oom_backoffs > 0) {
      spans_->annotate(gspan, "oom_retries", std::to_string(oom_backoffs));
    }
    spans_->close(gspan, sim_->now());
  }

  finish(work);
}

void GStreamManager::finish(const GWorkPtr& work) {
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
  out.counter(obs::Metric::GstreamSteals).inc(static_cast<double>(steals_));
  out.counter(obs::Metric::GstreamLocalityHits).inc(static_cast<double>(locality_hits_));
  out.counter(obs::Metric::GstreamLocalityMisses).inc(static_cast<double>(locality_misses_));
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
