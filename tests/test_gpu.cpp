// Tests for the GPU device simulator: memory allocator, DMA engines,
// kernel execution, overlap behaviour, and the two host API layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gpu/api.hpp"
#include "gpu/device.hpp"
#include "gpu/device_memory.hpp"
#include "gpu/device_spec.hpp"
#include "gpu/kernel.hpp"
#include "mem/buffer.hpp"

namespace obs = gflink::obs;
namespace sim = gflink::sim;
namespace gpu = gflink::gpu;
namespace mem = gflink::mem;
using gpu::DevicePtr;
using sim::Co;
using sim::Simulation;
using sim::Time;

namespace {

gpu::DeviceSpec test_spec() {
  gpu::DeviceSpec s;
  s.name = "test";
  s.peak_flops = 1e12;
  s.kernel_efficiency = 0.5;  // 500 GFLOP/s sustained
  s.mem_bandwidth = 100e9;
  s.device_memory = 64 << 20;
  s.copy_engines = 2;
  s.pcie_bandwidth = 1e9;  // 1 GB/s: easy arithmetic
  s.pcie_latency = 0;
  s.kernel_launch_overhead = 0;
  s.layout_efficiency[0] = 0.5;
  s.layout_efficiency[1] = 1.0;
  s.layout_efficiency[2] = 1.0;
  return s;
}

// A kernel that doubles u32 values in buffer 0: 1 flop and 8 bytes per item.
gpu::Kernel double_kernel() {
  gpu::Kernel k;
  k.name = "test_double";
  k.cost = {1.0, 8.0, 0.0};
  k.fn = [](gpu::KernelLaunch& launch) {
    auto* vals = reinterpret_cast<std::uint32_t*>(launch.buffers[0].data());
    for (std::size_t i = 0; i < launch.items; ++i) vals[i] *= 2;
  };
  return k;
}

}  // namespace

TEST(DeviceMemory, AllocateFreeReuse) {
  gpu::DeviceMemory m(4096);
  auto a = m.allocate(1000);
  auto b = m.allocate(1000);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(m.allocation_count(), 2u);
  EXPECT_EQ(m.allocated(), 2048u);  // 1000 rounds to 1024
  m.free(a);
  auto c = m.allocate(512);
  EXPECT_EQ(c, a);  // first fit reuses the hole
  m.free(b);
  m.free(c);
  EXPECT_EQ(m.allocated(), 0u);
}

TEST(DeviceMemory, OomReturnsNull) {
  gpu::DeviceMemory m(2048);
  auto a = m.allocate(1024);
  auto b = m.allocate(1024);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_EQ(m.allocate(1), 0u);
  m.free(a);
  EXPECT_NE(m.allocate(512), 0u);
}

TEST(DeviceMemory, CoalescingMergesNeighbours) {
  gpu::DeviceMemory m(4096);
  auto a = m.allocate(1024);
  auto b = m.allocate(1024);
  auto c = m.allocate(1024);
  auto d = m.allocate(1024);
  (void)d;
  m.free(b);
  m.free(c);  // must merge with b's hole
  auto big = m.allocate(2048);
  EXPECT_EQ(big, b);
  (void)a;
}

TEST(DeviceMemory, ShadowIsReadableAndBoundsChecked) {
  gpu::DeviceMemory m(4096);
  auto a = m.allocate(128);
  std::byte* s = m.shadow(a, 128);
  s[0] = std::byte{42};
  EXPECT_EQ(m.shadow(a, 1)[0], std::byte{42});
  // Interior pointer resolves into the same allocation.
  EXPECT_EQ(m.shadow(a + 64, 64), s + 64);
}

TEST(DeviceMemory, ShadowsAreCreatedOnFirstTouch) {
  // Allocation reserves address space only: the full C2050 capacity holds
  // no host bytes.
  const std::uint64_t capacity = gpu::DeviceSpec::c2050().device_memory;
  gpu::DeviceMemory m(capacity);
  const auto big = m.allocate(capacity - 4096);
  const auto small = m.allocate(1000);
  ASSERT_NE(big, 0u);
  ASSERT_NE(small, 0u);
  EXPECT_EQ(m.shadow_bytes(), 0u);

  // The first touch creates the whole requested range, zeroed and
  // contiguous, whichever interior range it asks for.
  const std::byte* tail = m.shadow(small + 600, 400);
  EXPECT_EQ(m.shadow_bytes(), 1000u);
  const std::byte* head = m.shadow(small, 1000);
  EXPECT_EQ(head + 600, tail);
  EXPECT_TRUE(std::all_of(head, head + 1000, [](std::byte b) { return b == std::byte{0}; }));
  EXPECT_EQ(m.shadow_bytes(), 1000u);

  m.free(small);
  EXPECT_EQ(m.shadow_bytes(), 0u);
  m.free(big);
  EXPECT_EQ(m.allocated(), 0u);
}

TEST(KernelCost, RooflineComputeVsMemoryBound) {
  auto spec = test_spec();
  gpu::Kernel k;
  k.name = "k";
  k.fn = [](gpu::KernelLaunch&) {};
  // Compute bound: 5000 flops/item, 1M items at 500 GF/s = 10 ms.
  k.cost = {5000.0, 1.0, 0.0};
  EXPECT_EQ(gpu::kernel_duration(k, spec, 1'000'000, mem::Layout::SoA), sim::millis(10));
  // Memory bound: 1 flop/item, 1000 bytes/item, 1M items at 100 GB/s = 10 ms.
  k.cost = {1.0, 1000.0, 0.0};
  EXPECT_EQ(gpu::kernel_duration(k, spec, 1'000'000, mem::Layout::SoA), sim::millis(10));
  // AoS layout halves effective bandwidth -> 20 ms.
  EXPECT_EQ(gpu::kernel_duration(k, spec, 1'000'000, mem::Layout::AoS), sim::millis(20));
}

TEST(KernelCost, LaunchOverheadDominatesTinyLaunches) {
  auto spec = test_spec();
  spec.kernel_launch_overhead = sim::micros(7);
  gpu::Kernel k;
  k.name = "k";
  k.fn = [](gpu::KernelLaunch&) {};
  k.cost = {1.0, 4.0, 0.0};
  // The roofline term for one item is sub-nanosecond; only the launch
  // overhead remains.
  EXPECT_EQ(gpu::kernel_duration(k, spec, 1, mem::Layout::SoA), sim::micros(7));
}

TEST(KernelRegistry, RegisterAndLookup) {
  gpu::KernelRegistry r;
  r.register_kernel(double_kernel());
  EXPECT_TRUE(r.contains("test_double"));
  EXPECT_FALSE(r.contains("missing"));
  EXPECT_EQ(r.lookup("test_double").cost.flops_per_item, 1.0);
}

TEST(GpuDevice, H2dKernelD2hRoundTripComputesCorrectly) {
  Simulation s;
  gpu::GpuDevice dev(s, "gpu0", test_spec());
  mem::AddressSpace as;
  mem::HBuffer host(1024, as.allocate(1024));
  host.set_pinned(true);
  auto* vals = reinterpret_cast<std::uint32_t*>(host.data());
  for (std::uint32_t i = 0; i < 256; ++i) vals[i] = i;

  auto k = double_kernel();
  s.spawn([](gpu::GpuDevice& d, mem::HBuffer& h, const gpu::Kernel& kern) -> Co<void> {
    DevicePtr p = d.memory().allocate(1024);
    co_await d.copy_h2d(h, 0, p, 1024);
    std::vector<gpu::GpuDevice::BufferBinding> bind{{p, 1024}};
    co_await d.launch(kern, bind, 256, mem::Layout::SoA);
    co_await d.copy_d2h(p, h, 0, 1024);
    d.memory().free(p);
  }(dev, host, k));
  s.run();

  for (std::uint32_t i = 0; i < 256; ++i) EXPECT_EQ(vals[i], 2 * i);
  EXPECT_EQ(dev.bytes_h2d(), 1024u);
  EXPECT_EQ(dev.bytes_d2h(), 1024u);
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(GpuDevice, ChargedH2dCostsACopyButMovesNoBytes) {
  // charge_h2d is copy_h2d without the destination write: same engine
  // time, byte counter and lane interval, and the kernel then reads the
  // host bytes in place through a host binding.
  struct Run {
    Time end = 0;
    std::uint64_t shadow_after_h2d = 0;
  };
  const auto run = [](bool charge) {
    Simulation s;
    obs::SpanStore trace;
    trace.set_retain(true);
    gpu::GpuDevice dev(s, "gpu0", test_spec(), &trace);
    mem::AddressSpace as;
    mem::HBuffer host(1024, as.allocate(1024));
    host.set_pinned(true);
    auto* vals = reinterpret_cast<std::uint32_t*>(host.data());
    for (std::uint32_t i = 0; i < 256; ++i) vals[i] = i;
    auto k = double_kernel();
    Run r;
    s.spawn([](gpu::GpuDevice& d, mem::HBuffer& h, const gpu::Kernel& kern, bool charged,
               Run& out) -> Co<void> {
      const DevicePtr p = d.memory().allocate(1024);
      if (charged) {
        co_await d.charge_h2d(h, 0, 1024);
      } else {
        co_await d.copy_h2d(h, 0, p, 1024);
      }
      out.shadow_after_h2d = d.memory().shadow_bytes();
      std::vector<gpu::GpuDevice::BufferBinding> bind{{p, 1024, charged ? h.data() : nullptr}};
      co_await d.launch(kern, bind, 256, mem::Layout::SoA);
      d.memory().free(p);
    }(dev, host, k, charge, r));
    s.run();
    r.end = s.now();
    EXPECT_EQ(dev.bytes_h2d(), 1024u);
    EXPECT_EQ(dev.h2d_busy(), dev.dma_time(1024, /*pinned=*/true));
    EXPECT_EQ(trace.lane_intervals().size(), 2u);  // one H2D, one kernel
    // The in-place kernel doubled the host bytes; the copied one its shadow.
    EXPECT_EQ(vals[255], charge ? 510u : 255u);
    return r;
  };
  const Run copied = run(false);
  const Run charged = run(true);
  EXPECT_EQ(charged.end, copied.end);
  EXPECT_EQ(copied.shadow_after_h2d, 1024u);
  EXPECT_EQ(charged.shadow_after_h2d, 0u);
}

TEST(GpuDevice, DmaTimePinnedVsPageable) {
  Simulation s;
  auto spec = test_spec();
  spec.pcie_latency = sim::micros(2);
  gpu::GpuDevice dev(s, "gpu0", spec);
  // 1 MB pinned at 1 GB/s = 1 ms + 2 us.
  EXPECT_EQ(dev.dma_time(1'000'000, true), sim::millis(1) + sim::micros(2));
  // Pageable: bandwidth * 0.55.
  EXPECT_GT(dev.dma_time(1'000'000, false), dev.dma_time(1'000'000, true));
}

TEST(GpuDevice, FullDuplexOverlapsH2dAndD2h) {
  Simulation s;
  auto spec = test_spec();  // 2 copy engines
  gpu::GpuDevice dev(s, "gpu0", spec);
  mem::AddressSpace as;
  mem::HBuffer a(1'000'000, as.allocate(1'000'000)), b(1'000'000, as.allocate(1'000'000));
  a.set_pinned(true);
  b.set_pinned(true);
  Time done = -1;
  s.spawn([](Simulation& sm, gpu::GpuDevice& d, mem::HBuffer& ha, mem::HBuffer& hb,
             Time& dn) -> Co<void> {
    DevicePtr pa = d.memory().allocate(1'000'000);
    DevicePtr pb = d.memory().allocate(1'000'000);
    sim::WaitGroup wg(sm);
    wg.add(2);
    sm.spawn([](gpu::GpuDevice& dd, mem::HBuffer& h, DevicePtr p, sim::WaitGroup& w) -> Co<void> {
      co_await dd.copy_h2d(h, 0, p, 1'000'000);
      w.done();
    }(d, ha, pa, wg));
    sm.spawn([](gpu::GpuDevice& dd, mem::HBuffer& h, DevicePtr p, sim::WaitGroup& w) -> Co<void> {
      co_await dd.copy_d2h(p, h, 0, 1'000'000);
      w.done();
    }(d, hb, pb, wg));
    co_await wg.wait();
    dn = sm.now();
  }(s, dev, a, b, done));
  s.run();
  // Full duplex: both 1 ms transfers complete in ~1 ms, not 2 ms.
  EXPECT_EQ(done, sim::millis(1));
}

TEST(GpuDevice, SingleCopyEngineSerializesDirections) {
  Simulation s;
  auto spec = test_spec();
  spec.copy_engines = 1;
  gpu::GpuDevice dev(s, "gpu0", spec);
  mem::AddressSpace as;
  mem::HBuffer a(1'000'000, as.allocate(1'000'000)), b(1'000'000, as.allocate(1'000'000));
  a.set_pinned(true);
  b.set_pinned(true);
  Time done = -1;
  s.spawn([](Simulation& sm, gpu::GpuDevice& d, mem::HBuffer& ha, mem::HBuffer& hb,
             Time& dn) -> Co<void> {
    DevicePtr pa = d.memory().allocate(1'000'000);
    DevicePtr pb = d.memory().allocate(1'000'000);
    sim::WaitGroup wg(sm);
    wg.add(2);
    sm.spawn([](gpu::GpuDevice& dd, mem::HBuffer& h, DevicePtr p, sim::WaitGroup& w) -> Co<void> {
      co_await dd.copy_h2d(h, 0, p, 1'000'000);
      w.done();
    }(d, ha, pa, wg));
    sm.spawn([](gpu::GpuDevice& dd, mem::HBuffer& h, DevicePtr p, sim::WaitGroup& w) -> Co<void> {
      co_await dd.copy_d2h(p, h, 0, 1'000'000);
      w.done();
    }(d, hb, pb, wg));
    co_await wg.wait();
    dn = sm.now();
  }(s, dev, a, b, done));
  s.run();
  EXPECT_EQ(done, sim::millis(2));
}

TEST(GpuDevice, CopyOverlapsKernelThreeStagePipeline) {
  Simulation s;
  auto spec = test_spec();
  gpu::GpuDevice dev(s, "gpu0", spec, nullptr);
  obs::SpanStore trace;
  trace.set_retain(true);
  gpu::GpuDevice traced(s, "gpu1", spec, &trace);
  mem::AddressSpace as;
  mem::HBuffer h(2'000'000, as.allocate(2'000'000));
  h.set_pinned(true);
  gpu::Kernel slow;
  slow.name = "slow";
  slow.fn = [](gpu::KernelLaunch&) {};
  slow.cost = {0.0, 100'000.0, 0.0};  // 1M items * 1e5 B / 100 GB/s = 1 ms

  // Two "streams": each copies 1 MB then runs the kernel. With independent
  // engines, stream B's H2D overlaps stream A's kernel.
  sim::WaitGroup wg(s);
  wg.add(2);
  for (int st = 0; st < 2; ++st) {
    s.spawn([](gpu::GpuDevice& d, mem::HBuffer& hb, const gpu::Kernel& k, sim::WaitGroup& w,
               int stream) -> Co<void> {
      DevicePtr p = d.memory().allocate(1'000'000);
      const std::string label = "s" + std::to_string(stream);
      co_await d.copy_h2d(hb, 0, p, 1'000'000, label);
      std::vector<gpu::GpuDevice::BufferBinding> bind{{p, 1'000'000}};
      co_await d.launch(k, bind, 1000, mem::Layout::SoA, 256, 0, label);
      d.memory().free(p);
      w.done();
    }(traced, h, slow, wg, st));
  }
  s.run();
  // Pipeline: copies at [0,1) and [1,2) ms; kernels at [1,2) and [2,3) ms.
  EXPECT_TRUE(trace.lanes_overlap("gpu1/h2d", "gpu1/kernel"));
  EXPECT_EQ(s.now(), sim::millis(3));
}

TEST(GpuDevice, OverlapAccountingMeasuresCopyUnderKernel) {
  // Same two-stream pipeline as above: H2D engine busy [0,2) ms, compute
  // engine busy [1,3) ms. Copy and kernel are simultaneously active exactly
  // during [1,2) ms — stream B's copy hiding under stream A's kernel.
  Simulation s;
  gpu::GpuDevice dev(s, "gpu0", test_spec(), nullptr);
  mem::AddressSpace as;
  mem::HBuffer h(2'000'000, as.allocate(2'000'000));
  h.set_pinned(true);
  gpu::Kernel slow;
  slow.name = "slow";
  slow.fn = [](gpu::KernelLaunch&) {};
  slow.cost = {0.0, 100'000.0, 0.0};  // 1000 items -> 1e8 B / 100 GB/s = 1 ms

  sim::WaitGroup wg(s);
  wg.add(2);
  for (int st = 0; st < 2; ++st) {
    s.spawn([](gpu::GpuDevice& d, mem::HBuffer& hb, const gpu::Kernel& k,
               sim::WaitGroup& w) -> Co<void> {
      DevicePtr p = d.memory().allocate(1'000'000);
      co_await d.copy_h2d(hb, 0, p, 1'000'000);
      std::vector<gpu::GpuDevice::BufferBinding> bind{{p, 1'000'000}};
      co_await d.launch(k, bind, 1000, mem::Layout::SoA);
      d.memory().free(p);
      w.done();
    }(dev, h, slow, wg));
  }
  s.run();

  EXPECT_EQ(dev.copy_compute_overlap(), sim::millis(1));
  // hideable = min(h2d + d2h busy, kernel busy) = min(2, 2) ms.
  EXPECT_DOUBLE_EQ(dev.overlap_efficiency(), 0.5);
}

TEST(GpuDevice, OverlapIsZeroWhenSerial) {
  // One stream, strictly sequential stages: no two engines are ever busy
  // at the same instant, so no overlap accrues.
  Simulation s;
  gpu::GpuDevice dev(s, "gpu0", test_spec(), nullptr);
  mem::AddressSpace as;
  mem::HBuffer h(1'000'000, as.allocate(1'000'000));
  h.set_pinned(true);
  gpu::Kernel slow;
  slow.name = "slow";
  slow.fn = [](gpu::KernelLaunch&) {};
  slow.cost = {0.0, 100'000.0, 0.0};

  s.spawn([](gpu::GpuDevice& d, mem::HBuffer& hb, const gpu::Kernel& k) -> Co<void> {
    DevicePtr p = d.memory().allocate(1'000'000);
    co_await d.copy_h2d(hb, 0, p, 1'000'000);
    std::vector<gpu::GpuDevice::BufferBinding> bind{{p, 1'000'000}};
    co_await d.launch(k, bind, 1000, mem::Layout::SoA);
    co_await d.copy_d2h(p, hb, 0, 1'000'000);
    d.memory().free(p);
  }(dev, h, slow));
  s.run();

  EXPECT_EQ(dev.copy_compute_overlap(), 0);
  EXPECT_DOUBLE_EQ(dev.overlap_efficiency(), 0.0);
}

TEST(CudaStub, MallocFreeCostsAndOom) {
  Simulation s;
  auto spec = test_spec();
  gpu::GpuDevice dev(s, "gpu0", spec);
  gpu::CudaStub stub(dev);
  Time t_alloc = -1;
  s.spawn([](Simulation& sm, gpu::CudaStub& st, Time& ta) -> Co<void> {
    DevicePtr p = co_await st.cuda_malloc(1024);
    ta = sm.now();
    EXPECT_NE(p, 0u);
    DevicePtr big = co_await st.cuda_malloc(100ULL << 30);
    EXPECT_EQ(big, 0u);  // OOM: spec has 64 MB
    co_await st.cuda_free(p);
  }(s, stub, t_alloc));
  s.run();
  EXPECT_EQ(t_alloc, sim::micros(90));
  EXPECT_EQ(dev.memory().allocated(), 0u);
}

TEST(CudaStub, HostRegisterPinsOnce) {
  Simulation s;
  gpu::GpuDevice dev(s, "gpu0", test_spec());
  gpu::CudaStub stub(dev);
  mem::AddressSpace as;
  mem::HBuffer h(1 << 20, as.allocate(1 << 20));
  Time first = -1, second = -1;
  s.spawn([](Simulation& sm, gpu::CudaStub& st, mem::HBuffer& hb, Time& f, Time& g) -> Co<void> {
    co_await st.cuda_host_register(hb);
    f = sm.now();
    co_await st.cuda_host_register(hb);  // already pinned: free
    g = sm.now();
  }(s, stub, h, first, second));
  s.run();
  EXPECT_TRUE(h.pinned());
  EXPECT_EQ(first, sim::micros(200));  // 1 MB * 200 us/MB
  EXPECT_EQ(second, first);
}

TEST(CudaWrapper, AddsJniOverheadPerCall) {
  Simulation s;
  auto spec = test_spec();
  spec.pcie_latency = sim::nanos(1800);
  gpu::GpuDevice dev(s, "gpu0", spec);
  gpu::CudaStub stub(dev);
  gpu::CudaWrapper wrapper(stub, sim::nanos(200));
  mem::AddressSpace as;
  mem::HBuffer h(2048, as.allocate(2048));
  h.set_pinned(true);
  Time native = -1, jvm = -1;
  s.spawn([](Simulation& sm, gpu::CudaStub& st, gpu::CudaWrapper& w, mem::HBuffer& hb,
             Time& tn, Time& tj) -> Co<void> {
    DevicePtr p = st.device().memory().allocate(2048);
    Time t0 = sm.now();
    co_await st.memcpy_h2d(p, hb, 0, 2048);
    tn = sm.now() - t0;
    t0 = sm.now();
    co_await w.memcpy_h2d(p, hb, 0, 2048);
    tj = sm.now() - t0;
  }(s, stub, wrapper, h, native, jvm));
  s.run();
  EXPECT_EQ(jvm - native, sim::nanos(200));
  EXPECT_EQ(wrapper.calls(), 1u);
}

TEST(CudaWrapper, Table2BandwidthShape) {
  // The JNI overhead must matter for small transfers and vanish for large
  // ones — the paper's Table 2 observation.
  Simulation s;
  gpu::GpuDevice dev(s, "gpu0", gpu::DeviceSpec::c2050());
  gpu::CudaStub stub(dev);
  gpu::CudaWrapper wrapper(stub);
  mem::AddressSpace as;
  auto h = std::make_shared<mem::HBuffer>(1 << 20, as.allocate(1 << 20));
  h->set_pinned(true);

  auto measure = [&](std::uint64_t bytes, bool native) {
    Time t = 0;
    s.spawn([](Simulation& sm, gpu::CudaStub& st, gpu::CudaWrapper& w, mem::HBuffer& hb,
               std::uint64_t n, bool nat, Time& out) -> Co<void> {
      DevicePtr p = st.device().memory().allocate(n);
      Time t0 = sm.now();
      if (nat) {
        co_await st.memcpy_h2d(p, hb, 0, n);
      } else {
        co_await w.memcpy_h2d(p, hb, 0, n);
      }
      out = sm.now() - t0;
      co_await st.cuda_free(p);
    }(s, stub, wrapper, *h, bytes, native, t));
    s.run();
    return static_cast<double>(bytes) / sim::to_seconds(t);  // bytes/s
  };

  double native_small = measure(2048, true);
  double gflink_small = measure(2048, false);
  double native_large = measure(1 << 20, true);
  double gflink_large = measure(1 << 20, false);
  // Small transfers: native noticeably faster.
  EXPECT_GT(native_small, gflink_small * 1.02);
  // Large transfers: both within 1% of peak.
  EXPECT_NEAR(gflink_large / native_large, 1.0, 0.01);
  EXPECT_NEAR(native_large, 2.97e9, 0.03e9);
}

TEST(GpuSpecs, PresetsRankByGeneration) {
  auto g750 = gpu::DeviceSpec::gtx750();
  auto c2050 = gpu::DeviceSpec::c2050();
  auto k20 = gpu::DeviceSpec::k20();
  auto p100 = gpu::DeviceSpec::p100();
  auto sustained = [](const gpu::DeviceSpec& d) { return d.peak_flops * d.kernel_efficiency; };
  EXPECT_GT(sustained(p100), sustained(k20));
  EXPECT_GT(sustained(k20), sustained(c2050));
  EXPECT_NEAR(sustained(c2050) / sustained(g750), 1.0, 0.1);
  EXPECT_EQ(g750.copy_engines, 1);
  EXPECT_EQ(c2050.copy_engines, 2);
}

TEST(CudaEvent, RecordSynchronizeElapsed) {
  Simulation s;
  gpu::CudaEvent start(s), stop(s);
  EXPECT_FALSE(start.query());
  Time waiter_woke = -1;
  s.spawn([](gpu::CudaEvent& ev, Simulation& sm, Time& woke) -> Co<void> {
    co_await ev.synchronize();
    woke = sm.now();
  }(stop, s, waiter_woke));
  s.spawn([](Simulation& sm, gpu::CudaEvent& a, gpu::CudaEvent& b) -> Co<void> {
    a.record();
    co_await sm.delay(sim::micros(250));
    b.record();
  }(s, start, stop));
  s.run();
  EXPECT_TRUE(start.query());
  EXPECT_EQ(gpu::CudaEvent::elapsed(start, stop), sim::micros(250));
  EXPECT_EQ(waiter_woke, sim::micros(250));
}

// Property sweep: DMA time is monotone in bytes and pinned is never slower,
// across all presets.
class DmaMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(DmaMonotonicity, MonotoneAndPinnedFaster) {
  gpu::DeviceSpec specs[] = {gpu::DeviceSpec::gtx750(), gpu::DeviceSpec::c2050(),
                             gpu::DeviceSpec::k20(), gpu::DeviceSpec::p100()};
  Simulation s;
  gpu::GpuDevice dev(s, "g", specs[GetParam()]);
  sim::Duration prev = 0;
  for (std::uint64_t bytes = 1024; bytes <= (16 << 20); bytes *= 4) {
    auto t = dev.dma_time(bytes, true);
    EXPECT_GT(t, prev);
    EXPECT_LE(t, dev.dma_time(bytes, false));
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, DmaMonotonicity, ::testing::Range(0, 4));
