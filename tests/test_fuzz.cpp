// Randomized property tests across the substrates. All RNG is the
// deterministic xoshiro from sim/random.hpp, so "random" here means
// pseudo-random and perfectly reproducible.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "core/gmemory_manager.hpp"
#include "gpu/device.hpp"
#include "gpu/device_memory.hpp"
#include "mem/gstruct.hpp"
#include "mem/record_batch.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace gpu = gflink::gpu;
namespace core = gflink::core;
using sim::Co;
using sim::Simulation;

// ---- GStruct / RecordBatch fuzz ----------------------------------------------

namespace {

mem::FieldType random_type(sim::Rng& rng) {
  constexpr mem::FieldType kTypes[] = {
      mem::FieldType::U8,  mem::FieldType::I8,  mem::FieldType::U16, mem::FieldType::I16,
      mem::FieldType::U32, mem::FieldType::I32, mem::FieldType::U64, mem::FieldType::I64,
      mem::FieldType::F32, mem::FieldType::F64};
  return kTypes[rng.next_below(10)];
}

mem::StructDesc random_desc(sim::Rng& rng) {
  constexpr std::size_t kCaps[] = {1, 2, 4, 8, 16};
  mem::StructDescBuilder builder("Fuzz", kCaps[rng.next_below(5)]);
  const int fields = 1 + static_cast<int>(rng.next_below(7));
  for (int f = 0; f < fields; ++f) {
    const std::size_t array_len = 1 + rng.next_below(5);
    std::string name = "f";
    name += std::to_string(f);
    builder.field(name, random_type(rng), array_len);
  }
  return builder.build();
}

}  // namespace

class LayoutFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LayoutFuzz, RandomDescriptorsRoundTripAllLayouts) {
  sim::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const mem::StructDesc desc = random_desc(rng);
  const std::size_t count = 1 + rng.next_below(50);

  // Fill an AoS batch with random bytes via the accessor API (per element,
  // so padding stays zero and equality is meaningful).
  mem::RecordBatch aos(&desc, count, mem::Layout::AoS);
  for (std::size_t fi = 0; fi < desc.field_count(); ++fi) {
    const auto& f = desc.field(fi);
    for (std::size_t r = 0; r < count; ++r) {
      for (std::size_t e = 0; e < f.array_len; ++e) {
        switch (mem::field_size(f.type)) {
          case 1: aos.set<std::uint8_t>(fi, r, static_cast<std::uint8_t>(rng.next_u64()), e); break;
          case 2: aos.set<std::uint16_t>(fi, r, static_cast<std::uint16_t>(rng.next_u64()), e); break;
          case 4: aos.set<std::uint32_t>(fi, r, static_cast<std::uint32_t>(rng.next_u64()), e); break;
          default: aos.set<std::uint64_t>(fi, r, rng.next_u64(), e); break;
        }
      }
    }
  }
  for (mem::Layout target : {mem::Layout::SoA, mem::Layout::AoP}) {
    auto transformed = aos.to_layout(target);
    auto back = transformed.to_layout(mem::Layout::AoS);
    ASSERT_EQ(back.count(), aos.count());
    EXPECT_EQ(back.bytes(), aos.bytes()) << "layout " << mem::layout_name(target);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutFuzz, ::testing::Range(0, 24));

// ---- DeviceMemory allocator fuzz ----------------------------------------------

class AllocatorFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorFuzz, RandomAllocFreeKeepsInvariants) {
  sim::Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  constexpr std::uint64_t kCapacity = 1 << 20;
  gpu::DeviceMemory memory(kCapacity);
  struct Live {
    gpu::DevicePtr ptr;
    std::uint64_t bytes;
  };
  std::vector<Live> live;
  std::uint64_t accounted = 0;

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.next_below(100) < 60) {
      const std::uint64_t bytes = 1 + rng.next_below(32 * 1024);
      gpu::DevicePtr p = memory.allocate(bytes);
      if (p != 0) {
        // No overlap with any live allocation.
        const std::uint64_t aligned = (bytes + 255) / 256 * 256;
        for (const auto& l : live) {
          const std::uint64_t l_aligned = (l.bytes + 255) / 256 * 256;
          EXPECT_TRUE(p + aligned <= l.ptr || l.ptr + l_aligned <= p)
              << "overlapping allocations";
        }
        // Shadow is writable over the whole requested range.
        memory.shadow(p, bytes)[bytes - 1] = std::byte{0x5A};
        live.push_back({p, bytes});
        accounted += aligned;
      } else {
        // OOM must imply the request genuinely cannot be an easy fit.
        EXPECT_GT(accounted + bytes, kCapacity / 4);
      }
    } else {
      const std::size_t victim = rng.next_below(live.size());
      const std::uint64_t aligned = (live[victim].bytes + 255) / 256 * 256;
      memory.free(live[victim].ptr);
      accounted -= aligned;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    EXPECT_EQ(memory.allocated(), accounted);
    EXPECT_EQ(memory.allocation_count(), live.size());
  }
  for (const auto& l : live) memory.free(l.ptr);
  EXPECT_EQ(memory.allocated(), 0u);
  // After freeing everything, the full capacity must be allocatable again
  // (free-list coalescing worked).
  EXPECT_NE(memory.allocate(kCapacity - 4096), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz, ::testing::Range(0, 8));

// ---- GMemoryManager (GPU cache) fuzz --------------------------------------------

class CacheFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CacheFuzz, RandomCacheTrafficKeepsInvariants) {
  sim::Rng rng(3000 + static_cast<std::uint64_t>(GetParam()));
  Simulation s;
  gpu::DeviceSpec spec;
  spec.device_memory = 1 << 22;
  gpu::GpuDevice d0(s, "g0", spec), d1(s, "g1", spec);
  constexpr std::uint64_t kRegion = 1 << 18;
  const auto policy =
      GetParam() % 2 == 0 ? core::CachePolicy::Fifo : core::CachePolicy::NoEvict;
  core::GMemoryManager cache({&d0, &d1}, kRegion, policy);

  gpu::GpuDevice* devs[] = {&d0, &d1};

  // Reference model: per (device, job) -> set of keys believed cached.
  std::map<std::pair<int, std::uint64_t>, std::set<std::uint64_t>> model;
  std::vector<std::tuple<int, std::uint64_t, std::uint64_t>> pinned;  // (dev, job, key)
  // At most one staging ring is held at a time, across cache traffic.
  std::optional<std::pair<int, gpu::DevicePtr>> ring;

  for (int step = 0; step < 3000; ++step) {
    const int device = static_cast<int>(rng.next_below(2));
    const std::uint64_t job = 1 + rng.next_below(3);
    const std::uint64_t key = rng.next_below(40);
    const std::uint64_t bytes = 256 * (1 + rng.next_below(64));
    // Pressure-sized requests (256 KB .. 4 MB, up to the whole device).
    const std::uint64_t big = (1 + rng.next_below(16)) << 18;
    switch (rng.next_below(8)) {
      case 0:
      case 1: {  // insert (pinned) then unpin immediately
        auto slot = cache.insert(device, job, key, bytes);
        if (slot) {
          cache.unpin(device, job, key);
          model[{device, job}].insert(key);
        }
        break;
      }
      case 2: {  // lookup: a hit must be a modeled key... but eviction may
                 // have removed modeled keys, so only the reverse holds:
                 // a key the cache reports must once have been inserted.
        auto hit = cache.lookup(device, job, key);
        if (hit) {
          const bool modeled = model[{device, job}].count(key) > 0;
          EXPECT_TRUE(modeled);
        }
        break;
      }
      case 3: {  // pin a key if present
        auto hit = cache.lookup_pinned(device, job, key);
        if (hit) pinned.emplace_back(device, job, key);
        break;
      }
      case 4: {  // unpin something
        if (!pinned.empty()) {
          auto [pd, pj, pk] = pinned.back();
          pinned.pop_back();
          cache.unpin(pd, pj, pk);
        }
        break;
      }
      case 5: {  // erase: drop a held pin; the entry goes once no pin is left
        if (!pinned.empty()) {
          auto [pd, pj, pk] = pinned.back();
          pinned.pop_back();
          if (cache.erase(pd, pj, pk)) {
            model[{pd, pj}].erase(pk);
            EXPECT_FALSE(cache.lookup(pd, pj, pk).has_value());
          }
        } else if (cache.insert(device, job, key, bytes)) {
          // The inserter's pin is the only one, so the undo always lands.
          EXPECT_TRUE(cache.erase(device, job, key));
          model[{device, job}].erase(key);
        }
        break;
      }
      case 6: {  // evict_for_space: true means the request now fits
        if (cache.evict_for_space(device, job, big)) {
          EXPECT_TRUE(devs[device]->memory().can_allocate(big));
        }
        break;
      }
      case 7: {  // staging ring: reserve one, or release the one held
        if (ring) {
          const int rd = ring->first;
          cache.release_staging(rd, ring->second);
          ring.reset();
          EXPECT_EQ(cache.staging_bytes(rd), 0u);
        } else if (gpu::DevicePtr p = cache.reserve_staging(device, job, big)) {
          EXPECT_GE(cache.staging_bytes(device), big);
          ring.emplace(device, p);
        } else {
          EXPECT_EQ(cache.staging_bytes(device), 0u);
        }
        break;
      }
    }
    // Invariant: the region accounting never exceeds its capacity.
    for (int dev = 0; dev < 2; ++dev) {
      for (std::uint64_t j = 1; j <= 3; ++j) {
        EXPECT_LE(cache.cached_bytes(dev, j), kRegion);
      }
    }
  }
  // Cleanup releases all device memory.
  if (ring) {
    cache.release_staging(ring->first, ring->second);
    EXPECT_EQ(cache.staging_bytes(ring->first), 0u);
  }
  while (!pinned.empty()) {
    auto [pd, pj, pk] = pinned.back();
    pinned.pop_back();
    cache.unpin(pd, pj, pk);
  }
  for (std::uint64_t j = 1; j <= 3; ++j) cache.release_job(j);
  EXPECT_EQ(d0.memory().allocated(), 0u);
  EXPECT_EQ(d1.memory().allocated(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz, ::testing::Range(0, 8));

// ---- Synchronization-primitive stress -------------------------------------------

class SyncStress : public ::testing::TestWithParam<int> {};

TEST_P(SyncStress, SemaphoreNeverOversubscribed) {
  sim::Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  Simulation s;
  const std::int64_t capacity = 1 + static_cast<std::int64_t>(rng.next_below(4));
  sim::Semaphore sem(s, capacity);
  auto in_use = std::make_shared<std::int64_t>(0);
  auto peak = std::make_shared<std::int64_t>(0);
  int finished = 0;
  for (int i = 0; i < 60; ++i) {
    const std::int64_t want = 1 + static_cast<std::int64_t>(rng.next_below(
                                      static_cast<std::uint64_t>(capacity)));
    const auto hold = static_cast<sim::Duration>(1 + rng.next_below(500));
    const auto start = static_cast<sim::Duration>(rng.next_below(2000));
    s.spawn([](Simulation& sm, sim::Semaphore& se, std::shared_ptr<std::int64_t> use,
               std::shared_ptr<std::int64_t> pk, std::int64_t n, sim::Duration st,
               sim::Duration hd, int& done) -> Co<void> {
      co_await sm.delay(st);
      co_await se.acquire(n);
      *use += n;
      *pk = std::max(*pk, *use);
      co_await sm.delay(hd);
      *use -= n;
      se.release(n);
      ++done;
    }(s, sem, in_use, peak, want, start, hold, finished));
  }
  s.run();
  EXPECT_EQ(finished, 60);
  EXPECT_LE(*peak, capacity);
  EXPECT_EQ(sem.available(), capacity);
  EXPECT_EQ(s.live_processes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyncStress, ::testing::Range(0, 10));
