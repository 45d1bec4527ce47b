// Off-heap buffers (the paper's HBuffer / Java direct buffers).
//
// GFlink stores record bytes in off-heap memory so the GPU DMA engine can
// read them at a stable virtual address without JVM garbage-collection
// interference and without the JVM-heap -> native-memory staging copy.
// We model both worlds: off-heap buffers DMA directly; heap buffers (used
// only by the "naive" baseline in the communication ablation) pay an extra
// staging copy at main-memory bandwidth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/util.hpp"

namespace gflink::mem {

/// Simulated virtual address allocator: returns unique, page-aligned,
/// monotonically increasing addresses. Addresses exist so the GPU layer and
/// the cache hash tables can key buffers the way the real system keys
/// direct-buffer addresses.
class AddressSpace {
 public:
  explicit AddressSpace(std::uint64_t base = 0x7f00'0000'0000ULL) : next_(base) {}

  std::uint64_t allocate(std::size_t bytes) {
    constexpr std::uint64_t kAlign = 4096;
    std::uint64_t addr = next_;
    next_ += (bytes + kAlign - 1) / kAlign * kAlign;
    return addr;
  }

 private:
  std::uint64_t next_;
};

/// A contiguous byte buffer with a simulated virtual address. It either
/// owns its bytes or is a view of bytes someone else owns (a record batch's
/// pages bound to a GPU block without a copy).
class HBuffer {
 public:
  /// An owning buffer of `size` zeroed bytes.
  HBuffer(std::size_t size, std::uint64_t address, bool off_heap = true)
      : storage_(size), data_(storage_.data()), size_(size), address_(address),
        off_heap_(off_heap) {}

  /// A non-owning off-heap view of `size` bytes at `data`. The owner of
  /// those bytes must keep them alive, and in place, while the view lives.
  HBuffer(std::byte* data, std::size_t size, std::uint64_t address)
      : data_(data), size_(size), address_(address), off_heap_(true) {}

  HBuffer(const HBuffer&) = delete;
  HBuffer& operator=(const HBuffer&) = delete;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::uint64_t address() const { return address_; }

  /// Off-heap buffers can be DMA'd directly; heap buffers need staging.
  bool off_heap() const { return off_heap_; }

  /// Page-locked (cudaHostRegister'd) buffers are eligible for async copies
  /// and reach full PCIe bandwidth; pageable ones pay a staging penalty.
  bool pinned() const { return pinned_; }
  void set_pinned(bool pinned) { pinned_ = pinned; }

  /// Copy helpers with bounds checks.
  void write(std::size_t offset, const void* src, std::size_t n) {
    GFLINK_CHECK(offset + n <= size_);
    std::memcpy(data_ + offset, src, n);
  }
  void read(std::size_t offset, void* dst, std::size_t n) const {
    GFLINK_CHECK(offset + n <= size_);
    std::memcpy(dst, data_ + offset, n);
  }

 private:
  std::vector<std::byte> storage_;  // empty for a view
  std::byte* data_;
  std::size_t size_;
  std::uint64_t address_;
  bool off_heap_;
  bool pinned_ = false;
};

using HBufferPtr = std::shared_ptr<HBuffer>;

}  // namespace gflink::mem
