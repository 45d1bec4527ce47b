// Host-plane concurrency stress tests.
//
// The simulation plane is single-threaded by design, but the host-plane
// structures (metrics registry, device allocator, GPU cache manager, GDFS
// namenode metadata, device overlap accounting) are documented as
// thread-safe and guarded by core::Mutex / relaxed atomics (see
// docs/ARCHITECTURE.md, "Concurrency invariants & lock hierarchy"). These
// tests hammer each of them from real std::threads so the TSan CI
// configuration has actual cross-thread interleavings to check — a
// data race here is invisible to the single-threaded functional suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/gmemory_manager.hpp"
#include "dfs/gdfs.hpp"
#include "gpu/device.hpp"
#include "gpu/device_memory.hpp"
#include "gpu/device_spec.hpp"
#include "net/cluster.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace core = gflink::core;
namespace dfs = gflink::dfs;
namespace gpu = gflink::gpu;
namespace net = gflink::net;
namespace obs = gflink::obs;
namespace sim = gflink::sim;

namespace {

constexpr int kThreads = 8;
constexpr int kIters = 2000;

gpu::DeviceSpec stress_spec() {
  gpu::DeviceSpec s;
  s.name = "stress";
  s.peak_flops = 1e12;
  s.kernel_efficiency = 0.5;
  s.mem_bandwidth = 100e9;
  s.device_memory = 8 << 20;
  s.copy_engines = 2;
  s.pcie_bandwidth = 1e9;
  s.pcie_latency = 0;
  s.kernel_launch_overhead = 0;
  return s;
}

void run_threads(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();
}

}  // namespace

TEST(Threading, MetricsRegistrySharedCounters) {
  obs::MetricsRegistry registry;
  // All threads bump the same few counters — both through a cached
  // reference (atomic inc) and through the keyed get-or-create path
  // (registry mutex), plus per-thread gauges.
  run_threads([&](int t) {
    obs::Counter& direct = registry.counter("stress.direct");
    for (int i = 0; i < kIters; ++i) {
      direct.inc();
      registry.inc("stress.keyed");
      registry.counter("stress.labelled", {{"t", std::to_string(t % 4)}}).inc();
      registry.gauge("stress.gauge", {{"t", std::to_string(t)}}).set(i);
    }
  });
  EXPECT_DOUBLE_EQ(registry.counter("stress.direct").value(), kThreads * kIters);
  EXPECT_DOUBLE_EQ(registry.counter("stress.keyed").value(), kThreads * kIters);
  double labelled = 0;
  for (int t = 0; t < 4; ++t) {
    labelled += registry.counter("stress.labelled", {{"t", std::to_string(t)}}).value();
  }
  EXPECT_DOUBLE_EQ(labelled, kThreads * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(registry.gauge("stress.gauge", {{"t", std::to_string(t)}}).value(),
                     kIters - 1);
  }
}

TEST(Threading, MetricsRegistryConcurrentCreation) {
  obs::MetricsRegistry registry;
  // Every thread creates a disjoint set of names while others are creating
  // theirs — exercises map rehashing under the registry mutex.
  run_threads([&](int t) {
    for (int i = 0; i < 200; ++i) {
      registry.counter("create." + std::to_string(t) + "." + std::to_string(i)).inc();
    }
  });
  EXPECT_EQ(registry.counters().size(), static_cast<std::size_t>(kThreads) * 200);
}

TEST(Threading, DeviceMemoryAllocFree) {
  gpu::DeviceMemory memory(16 << 20);
  std::atomic<std::uint64_t> failures{0};
  run_threads([&](int t) {
    std::vector<gpu::DevicePtr> held;
    for (int i = 0; i < kIters; ++i) {
      gpu::DevicePtr p = memory.allocate(1024 + 512 * (t % 4));
      if (p == 0) {
        failures.fetch_add(1, std::memory_order_relaxed);
      } else {
        held.push_back(p);
      }
      if (held.size() >= 8 || (p == 0 && !held.empty())) {
        memory.free(held.back());
        held.pop_back();
      }
    }
    for (gpu::DevicePtr p : held) memory.free(p);
  });
  // Everything allocated was freed; the free list must have coalesced back
  // to a usable state.
  EXPECT_EQ(memory.allocated(), 0u);
  EXPECT_NE(memory.allocate(1 << 20), 0u);
}

TEST(Threading, GMemoryManagerCacheOperations) {
  sim::Simulation simulation;
  gpu::GpuDevice dev0(simulation, "gpu0", stress_spec());
  gpu::GpuDevice dev1(simulation, "gpu1", stress_spec());
  core::GMemoryManager manager({&dev0, &dev1}, 2 << 20, core::CachePolicy::Fifo);
  // Threads share two jobs and overlapping keys across both devices:
  // insert/lookup_pinned/unpin/erase race with evict_for_space and the
  // staging ring (which evicts cache entries under pressure).
  run_threads([&](int t) {
    const int device = t % 2;
    const std::uint64_t job = 1 + static_cast<std::uint64_t>(t % 2);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(i % 16);
      if (auto hit = manager.lookup_pinned(device, job, key)) {
        manager.unpin(device, job, key);
      } else if (auto entry = manager.insert(device, job, key, 64 << 10)) {
        if (i % 7 == 0) {
          manager.erase(device, job, key);
        } else {
          manager.unpin(device, job, key);
        }
      }
      if (i % 11 == 0) {
        manager.evict_for_space(device, job, 256 << 10);
      }
      if (i % 13 == 0) {
        if (gpu::DevicePtr ring = manager.reserve_staging(device, job, 128 << 10)) {
          manager.release_staging(device, ring);
        }
      }
    }
  });
  for (int device = 0; device < 2; ++device) {
    EXPECT_LE(manager.region_used(device), manager.region_capacity() * 2);
    EXPECT_EQ(manager.staging_bytes(device), 0u);
  }
  EXPECT_GT(manager.hits() + manager.misses(), 0u);
  manager.release_job(1);
  manager.release_job(2);
  EXPECT_EQ(manager.region_used(0), 0u);
  EXPECT_EQ(manager.region_used(1), 0u);
}

TEST(Threading, GdfsMetadataOperations) {
  sim::Simulation simulation;
  net::ClusterConfig config;
  config.num_workers = 4;
  net::Cluster cluster(simulation, config);
  dfs::Gdfs gdfs(cluster);
  // Concurrent namenode traffic: each thread creates its own files while
  // stat-ing everyone else's (the metadata map rehashes underneath).
  run_threads([&](int t) {
    for (int i = 0; i < 200; ++i) {
      gdfs.create_file("/stress/" + std::to_string(t) + "/" + std::to_string(i), 1 << 20);
      gdfs.stat("/stress/" + std::to_string((t + 1) % kThreads) + "/" + std::to_string(i));
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 200; ++i) {
      const dfs::FileInfo* f = gdfs.stat("/stress/" + std::to_string(t) + "/" + std::to_string(i));
      ASSERT_NE(f, nullptr);
      EXPECT_FALSE(f->blocks.empty());
    }
  }
}

TEST(Threading, DeviceOverlapAccounting) {
  sim::Simulation simulation;
  gpu::GpuDevice dev(simulation, "gpu0", stress_spec());
  // The production contention: the sim thread marks engine transitions
  // while host-plane readers (metric export) take the overlap snapshot.
  // One marker thread plays the sim thread; the rest read concurrently.
  // With virtual time frozen the accumulated overlap must stay zero.
  std::atomic<bool> done{false};
  std::thread marker([&] {
    for (int i = 0; i < kIters; ++i) {
      dev.mark_engine(true, +1);
      dev.mark_engine(false, +1);
      dev.mark_engine(false, -1);
      dev.mark_engine(true, -1);
    }
    done.store(true, std::memory_order_release);
  });
  run_threads([&](int) {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_GE(dev.copy_compute_overlap(), 0);
      EXPECT_GE(dev.overlap_efficiency(), 0.0);
    }
  });
  marker.join();
  EXPECT_EQ(dev.copy_compute_overlap(), 0);
}

TEST(Threading, FlightRecorderConcurrentWritersWrapTheRings) {
  // Small capacity so every ring wraps many times while the writers race.
  obs::FlightRecorder flight(16);
  obs::SpanStore store;  // names the ring spans; interned before the race
  const obs::StrId stress_span = store.intern("stress_span");
  std::atomic<std::uint64_t> span_id{1};
  run_threads([&](int t) {
    for (int i = 0; i < kIters; ++i) {
      // Events and spans interleave across a handful of shared nodes, so
      // threads contend on the *same* rings, not private ones.
      const int node = i % 4;
      flight.note_event(i, node, "stress_event", "t" + std::to_string(t));
      obs::CausalSpan span;
      span.id = span_id.fetch_add(1, std::memory_order_relaxed);
      span.node = node;
      span.name = stress_span;
      span.begin = i;
      span.end = i + 1;
      flight.on_span_closed(store, span);
    }
  });
  EXPECT_EQ(flight.events_seen(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(flight.faults(), 0u);
  // Dump correctness after heavy wraparound: every ring is bounded by the
  // capacity and the totals survived intact.
  const obs::Json dump = flight.to_json();
  const std::string text = dump.dump();
  EXPECT_NE(text.find("\"gflink.flight_dump/v1\""), std::string::npos);
  EXPECT_NE(text.find("stress_event"), std::string::npos);
  EXPECT_NE(text.find("stress_span"), std::string::npos);
}

TEST(Threading, FlightRecorderConcurrentFaultsElectOneDumper) {
  obs::FlightRecorder flight(8);
  const std::string path = "flight_threads_dump.json";
  std::remove(path.c_str());
  flight.set_dump_path(path);
  run_threads([&](int t) {
    for (int i = 0; i < 200; ++i) {
      flight.note_fault(i, t % 4, "stress_fault", std::to_string(i));
    }
  });
  EXPECT_EQ(flight.faults(), static_cast<std::uint64_t>(kThreads) * 200);
  // Exactly one of the racing first faults wrote the auto-dump.
  EXPECT_EQ(flight.dumps(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"gflink.flight_dump/v1\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Threading, FlightRecorderReadersRaceWriters) {
  obs::FlightRecorder flight(32);
  obs::MetricsRegistry registry;
  std::atomic<bool> done{false};
  // Half the threads write, half snapshot (to_json / export_metrics /
  // dump_now) — the host-plane contention TSan needs to see.
  std::thread writer([&] {
    for (int i = 0; i < kIters; ++i) {
      flight.note_event(i, i % 8, "race_event", "");
      if (i % 64 == 0) flight.clear();
    }
    done.store(true, std::memory_order_release);
  });
  run_threads([&](int t) {
    while (!done.load(std::memory_order_acquire)) {
      if (t % 2 == 0) {
        (void)flight.to_json();
      } else {
        flight.export_metrics(registry);
      }
    }
  });
  writer.join();
  EXPECT_GE(registry.counter_value("flight_events_total"), 0.0);
}
