// GWork: GFlink's abstraction for one unit of GPU computation (paper
// §3.5.3 and Algorithm 3.1).
//
// A GPU-based mapper/reducer assembles a GWork — kernel name (the PTX
// function's executeName), input/output buffers, launch geometry, cache
// flags — and submits it to the worker's GStreamManager. The producer then
// awaits the `done` trigger; a stream worker consumes the GWork through the
// three-stage pipeline (H2D, kernel, D2H).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mem/buffer.hpp"
#include "mem/gstruct.hpp"
#include "sim/sync.hpp"

namespace gflink::core {

/// One host buffer bound to a GWork. Cached inputs participate in the GPU
/// cache scheme: on a hit the H2D transfer (and allocation) is skipped.
struct GBuffer {
  mem::HBufferPtr host;
  std::uint64_t bytes = 0;
  bool cache = false;
  /// Cache key: by default the (partition id, block id) pair, packed.
  std::uint64_t cache_key = 0;
  /// Whether this buffer's cached bytes count for Algorithm 5.1's locality
  /// probe. Data blocks do; broadcast/auxiliary buffers (replicated on
  /// every device anyway) do not — they would otherwise glue all work to
  /// whichever device cached them first.
  bool counts_for_locality = true;
  /// Bytes this buffer contributes per kernel item. Non-zero marks the
  /// buffer splittable: item i occupies [i*item_stride, (i+1)*item_stride),
  /// so the chunked pipeline can transfer it in element-aligned chunks
  /// (records are never split). 0 = indivisible (broadcast/aux buffers,
  /// block-level reducer outputs): transferred whole, before the first
  /// chunk kernel.
  std::uint64_t item_stride = 0;
};

/// Pack the paper's default cache key: partition ID + block ID (plus a
/// namespace so different datasets of one job do not collide).
constexpr std::uint64_t make_cache_key(std::uint32_t name_space, std::uint32_t partition,
                                       std::uint32_t block) {
  return (static_cast<std::uint64_t>(name_space) << 48) |
         (static_cast<std::uint64_t>(partition) << 24) | block;
}

struct GWork {
  std::string execute_name;  // CUDA function name looked up in the registry
  std::string ptx_path;      // carried for fidelity with the paper's API

  std::vector<GBuffer> inputs;
  std::vector<GBuffer> outputs;

  std::size_t size = 0;  // number of items the kernel covers
  int block_size = 256;
  int grid_size = 0;  // 0 = derived from size/block_size

  std::uint64_t job_id = 0;  // scopes the GPU cache region
  /// Tenant that owns the producing job (empty = the default tenant).
  /// Drives the per-tenant GWork priority in the GStream Pool and the
  /// per-tenant cache-quota accounting in GMemoryManager.
  std::string tenant;
  /// Dispatch priority within the GWork Pool (higher pops first, FIFO
  /// within one priority). Filled by the scheduler from the tenant's
  /// configured priority at submit time; 0 = default.
  int priority = 0;
  mem::Layout layout = mem::Layout::SoA;

  /// Execute over device-mapped host memory (paper §4.1.2): no explicit
  /// H2D/D2H transfers and no copy-engine use; the kernel streams the host
  /// buffers over PCIe. Useful on single-copy-engine boards. Mutually
  /// exclusive with input caching.
  bool use_mapped_memory = false;

  /// The kernel is element-wise: output items for chunk [a, b) depend only
  /// on input items [a, b) (plus indivisible aux buffers, which may be
  /// indexed absolutely). Such GWorks are eligible for the intra-GWork
  /// chunked pipeline: H2D(chunk i+1) ‖ kernel(chunk i) ‖ D2H(chunk i-1)
  /// through the device staging ring. Block-level reducers (KMeans partial
  /// sums, gradients, per-block combines) must leave this false — their
  /// output depends on the whole block.
  bool chunkable = false;

  /// Causal parent for the GWork's spans (usually the producing task's
  /// span; 0 = untraced). Plain id, not a pointer: the span may close
  /// before detached pipeline stages retire.
  std::uint64_t span = 0;

  /// Fired by the stream worker once outputs are back in host memory.
  std::shared_ptr<sim::Trigger> done;

  // ---- filled in by the runtime (diagnostics) ----
  sim::Time submitted_at = 0;
  sim::Time finished_at = 0;
  int executed_on_gpu = -1;
  /// Chunks the pipeline split this GWork into (1 = monolithic execution).
  std::size_t executed_chunks = 1;
  /// Device Algorithm 5.1's locality probe preferred at submit time (-1
  /// when nothing was cached anywhere); compared against executed_on_gpu
  /// for the scheduler's locality hit/miss metric.
  int preferred_gpu = -1;
};

using GWorkPtr = std::shared_ptr<GWork>;

}  // namespace gflink::core
