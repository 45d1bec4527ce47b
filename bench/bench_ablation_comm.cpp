// Ablation — the JVM-GPU communication strategies of paper §4:
//
//  * off-heap + pinned  — GFlink's design: direct buffers page-locked via
//    cudaHostRegister, DMA'd at full PCIe bandwidth;
//  * off-heap pageable  — no page-locking: the DMA engine staggers through
//    driver bounce buffers (reduced bandwidth, no async overlap);
//  * JVM-heap staging   — the naive scheme ([12], [13]): objects are
//    accumulated into heap buffers, then copied to native memory before
//    each DMA (an extra host memcpy each way);
//  * RPC-style          — HeteroSpark's socket path: the payload traverses
//    the local TCP/IP stack with serialization on both sides.
//
// Expected ordering (effective H2D bandwidth, 4 MiB blocks):
//   off-heap+pinned > off-heap pageable > heap staging >> RPC.
#include "bench_report.hpp"

#include "gpu/api.hpp"
#include "sim/simulation.hpp"

namespace {

namespace sim = gflink::sim;
namespace gpu = gflink::gpu;
namespace mem = gflink::mem;

constexpr std::uint64_t kBlockBytes = 4ULL << 20;

enum class Strategy : int { OffHeapPinned, OffHeapPageable, HeapStaging, Rpc };

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::OffHeapPinned: return "off-heap+pinned (GFlink)";
    case Strategy::OffHeapPageable: return "off-heap pageable";
    case Strategy::HeapStaging: return "JVM-heap staging";
    case Strategy::Rpc: return "RPC/socket (HeteroSpark-style)";
  }
  return "?";
}

// Costs of the RPC path, per transfer: serialization at ~0.8 GB/s on each
// side plus the loopback TCP round trip.
constexpr double kRpcSerializationBw = 0.8e9;
constexpr sim::Duration kRpcLatency = sim::micros(60);

double measure(Strategy strategy) {
  sim::Simulation s;
  gpu::GpuDevice device(s, "gpu0", gpu::DeviceSpec::c2050());
  gpu::CudaStub stub(device);
  gpu::CudaWrapper wrapper(stub);
  mem::AddressSpace addresses;

  const bool off_heap =
      strategy == Strategy::OffHeapPinned || strategy == Strategy::OffHeapPageable;
  mem::HBuffer host(kBlockBytes, addresses.allocate(kBlockBytes), off_heap);
  host.set_pinned(strategy == Strategy::OffHeapPinned);

  sim::Duration elapsed = 0;
  s.spawn([](sim::Simulation& sm, gpu::CudaWrapper& w, mem::HBuffer& h, Strategy st,
             sim::Duration& out) -> sim::Co<void> {
    gpu::DevicePtr p = w.device().memory().allocate(kBlockBytes);
    const sim::Time t0 = sm.now();
    if (st == Strategy::Rpc) {
      // Serialize, cross the loopback socket, deserialize — then DMA.
      co_await sm.delay(2 * kRpcLatency +
                        2 * sim::transfer_time(kBlockBytes, kRpcSerializationBw));
    }
    co_await w.memcpy_h2d(p, h, 0, kBlockBytes);
    out = sm.now() - t0;
    w.device().memory().free(p);
  }(s, wrapper, host, strategy, elapsed));
  s.run();
  gflink::bench::bench_report().virtual_ns += s.now();
  return static_cast<double>(kBlockBytes) / sim::to_seconds(elapsed);
}

void Ablation_Communication(gflink::bench::CaseState& state) {
  const auto strategy = static_cast<Strategy>(state.args[0]);
  state.counters["MBps"] = measure(strategy) / 1e6;
  state.label = strategy_name(strategy);
}

const gflink::bench::Case kCases[] = {
    {"Ablation_Communication", Ablation_Communication, {{0}, {1}, {2}, {3}}},
};

}  // namespace

GFLINK_BENCH_MAIN(ablation_comm, kCases);
