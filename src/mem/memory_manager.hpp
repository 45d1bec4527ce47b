// Flink-style paged memory management for one worker.
//
// Flink manages its memory as fixed-size pages ("memory segments"); GFlink
// inherits this and additionally sizes GPU blocks to one page so that a
// block can be DMA'd without straddling page boundaries (paper §5.1). The
// page budget gives natural backpressure: tasks that want more memory wait
// until previous batches are released.
#pragma once

#include <cstddef>

#include "mem/buffer.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace gflink::mem {

class MemoryManager {
 public:
  static constexpr std::size_t kDefaultPageSize = 32 * 1024;

  MemoryManager(sim::Simulation& sim, std::size_t page_size, std::size_t total_pages)
      : page_size_(page_size), total_pages_(total_pages), pages_(sim, total_pages) {}

  std::size_t page_size() const { return page_size_; }
  std::size_t total_pages() const { return total_pages_; }
  std::size_t pages_available() const { return static_cast<std::size_t>(pages_.available()); }

  std::size_t pages_for(std::size_t bytes) const {
    return (bytes + page_size_ - 1) / page_size_;
  }

  /// Allocate an off-heap buffer, waiting for page budget if necessary.
  /// The buffer returns its pages to the pool when the last reference drops.
  sim::Co<HBufferPtr> allocate(std::size_t bytes, bool off_heap = true) {
    const std::size_t pages = pages_for(bytes);
    co_await pages_.acquire(static_cast<std::int64_t>(pages));
    co_return wrap(new HBuffer(bytes, addresses_.allocate(bytes), off_heap), pages);
  }

  /// A pinned off-heap view of `bytes` bytes at `data` that owns no bytes
  /// but is charged pages_for(budget) pages, waiting for them like
  /// allocate(budget) would; they return when the last reference drops.
  /// This is how a GPU block binds a partition's own pages without a copy.
  /// The caller keeps `data` alive and in place while the view lives.
  sim::Co<HBufferPtr> view(std::byte* data, std::size_t bytes, std::size_t budget) {
    const std::size_t pages = pages_for(budget);
    co_await pages_.acquire(static_cast<std::int64_t>(pages));
    co_return wrap(new HBuffer(data, bytes, addresses_.allocate(budget)), pages);
  }

  /// Non-blocking allocation: nullptr if the budget does not cover it now.
  HBufferPtr try_allocate(std::size_t bytes, bool off_heap = true) {
    const std::size_t pages = pages_for(bytes);
    if (!pages_.try_acquire(static_cast<std::int64_t>(pages))) return nullptr;
    return wrap(new HBuffer(bytes, addresses_.allocate(bytes), off_heap), pages);
  }

  /// Allocation that ignores the page budget — used for tiny metadata
  /// buffers where modelling backpressure adds nothing.
  HBufferPtr allocate_unbudgeted(std::size_t bytes, bool off_heap = true) {
    auto buf = std::make_shared<HBuffer>(bytes, addresses_.allocate(bytes), off_heap);
    if (off_heap) buf->set_pinned(true);
    return buf;
  }

 private:
  HBufferPtr wrap(HBuffer* raw, std::size_t pages) {
    // Off-heap segments are allocated page-locked (Flink's off-heap memory
    // is malloc'd outside the GC heap; GFlink registers it with the driver
    // at allocation so DMA always runs at full PCIe bandwidth instead of
    // paying the pageable-copy penalty).
    if (raw->off_heap()) raw->set_pinned(true);
    // Custom deleter returns the page budget; MemoryManager must outlive
    // all buffers it vends (owned by the worker, which owns the tasks).
    return HBufferPtr(raw, [this, pages](HBuffer* p) {
      delete p;
      pages_.release(static_cast<std::int64_t>(pages));
    });
  }

  std::size_t page_size_;
  std::size_t total_pages_;
  sim::Semaphore pages_;
  AddressSpace addresses_;
};

}  // namespace gflink::mem
