#include "gpu/device_memory.hpp"

namespace gflink::gpu {

namespace {
// Reserve address 0 so DevicePtr 0 can mean "null".
constexpr std::uint64_t kBase = 256;
// Keep allocations aligned the way cudaMalloc does.
constexpr std::uint64_t kAlign = 256;

std::uint64_t align_up(std::uint64_t x) { return (x + kAlign - 1) / kAlign * kAlign; }
}  // namespace

DeviceMemory::DeviceMemory(std::uint64_t capacity) : capacity_(capacity) {
  free_list_[kBase] = capacity;
}

bool DeviceMemory::can_allocate(std::uint64_t bytes) const {
  const std::uint64_t need = align_up(bytes);
  for (const auto& [base, size] : free_list_) {
    if (size >= need) return true;
  }
  return false;
}

DevicePtr DeviceMemory::allocate(std::uint64_t bytes) {
  GFLINK_CHECK(bytes > 0);
  const std::uint64_t need = align_up(bytes);
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->second >= need) {
      DevicePtr ptr = it->first;
      std::uint64_t hole = it->second;
      free_list_.erase(it);
      if (hole > need) free_list_[ptr + need] = hole - need;
      allocations_.emplace(ptr, Allocation{need, bytes, {}});
      allocated_ += need;
      return ptr;
    }
  }
  return 0;  // OOM
}

void DeviceMemory::free(DevicePtr ptr) {
  auto it = allocations_.find(ptr);
  GFLINK_CHECK_MSG(it != allocations_.end(), "free of unknown device pointer");
  std::uint64_t size = it->second.size;
  shadow_bytes_ -= it->second.bytes.size();
  allocations_.erase(it);
  allocated_ -= size;

  // Insert into the free list and coalesce with neighbours.
  auto [fit, ok] = free_list_.emplace(ptr, size);
  GFLINK_CHECK(ok);
  // Merge with successor.
  auto next = std::next(fit);
  if (next != free_list_.end() && fit->first + fit->second == next->first) {
    fit->second += next->second;
    free_list_.erase(next);
  }
  // Merge with predecessor.
  if (fit != free_list_.begin()) {
    auto prev = std::prev(fit);
    if (prev->first + prev->second == fit->first) {
      prev->second += fit->second;
      free_list_.erase(fit);
    }
  }
}

std::uint64_t DeviceMemory::allocation_size(DevicePtr ptr) const {
  auto it = allocations_.find(ptr);
  GFLINK_CHECK_MSG(it != allocations_.end(), "unknown device pointer");
  return it->second.size;
}

std::byte* DeviceMemory::shadow(DevicePtr ptr, std::uint64_t len) {
  auto it = allocations_.upper_bound(ptr);
  GFLINK_CHECK_MSG(it != allocations_.begin(), "device pointer outside any allocation");
  --it;
  Allocation& alloc = it->second;
  GFLINK_CHECK_MSG(ptr >= it->first && ptr + len <= it->first + alloc.requested,
                   "device access out of allocation bounds");
  if (alloc.bytes.empty()) {
    alloc.bytes.assign(alloc.requested, std::byte{0});
    shadow_bytes_ += alloc.requested;
  }
  return alloc.bytes.data() + (ptr - it->first);
}

}  // namespace gflink::gpu
