// Table 2 — transfer-channel bandwidth, GFlink (CUDAWrapper over the JNI
// control channel) vs native (CUDAStub), host-to-device, pinned buffers.
//
// This microbenchmark runs UNscaled (scale = 1): it exercises the raw GPU
// communication layer on a C2050-class device, exactly like the paper's
// measurement. Expected shape: identical asymptotes near 2.97 GB/s, the
// native path slightly ahead for small transfers (the JNI redirect is a
// fixed per-call cost), and both saturating by 256 KiB.
#include "bench_report.hpp"

#include <cstdio>

#include "gpu/api.hpp"
#include "sim/simulation.hpp"

namespace {

namespace sim = gflink::sim;
namespace gpu = gflink::gpu;
namespace mem = gflink::mem;

/// The paper's measured values (MB/s) for reference printing.
struct PaperRow {
  std::uint64_t bytes;
  double gflink;
  double native;
};
constexpr PaperRow kPaperRows[] = {
    {2048, 776.398, 814.425},       {4096, 1241.311, 1348.418},
    {16384, 2195.872, 2245.351},    {32768, 2556.237, 2646.721},
    {131072, 2858.368, 2878.373},   {262144, 2968.151, 2945.243},
    {524288, 2960.003, 2931.513},   {1048576, 2973.701, 2963.532},
};

double measure_bandwidth(std::uint64_t bytes, bool native) {
  sim::Simulation s;
  gpu::GpuDevice device(s, "gpu0", gpu::DeviceSpec::c2050());
  gpu::CudaStub stub(device);
  gpu::CudaWrapper wrapper(stub);
  mem::AddressSpace addresses;
  mem::HBuffer host(bytes, addresses.allocate(bytes));
  host.set_pinned(true);

  sim::Duration elapsed = 0;
  s.spawn([](sim::Simulation& sm, gpu::CudaStub& st, gpu::CudaWrapper& w, mem::HBuffer& h,
             std::uint64_t n, bool nat, sim::Duration& out) -> sim::Co<void> {
    gpu::DevicePtr p = st.device().memory().allocate(n);
    const sim::Time t0 = sm.now();
    if (nat) {
      co_await st.memcpy_h2d(p, h, 0, n);
    } else {
      co_await w.memcpy_h2d(p, h, 0, n);
    }
    out = sm.now() - t0;
    st.device().memory().free(p);
  }(s, stub, wrapper, host, bytes, native, elapsed));
  s.run();
  gflink::bench::bench_report().virtual_ns += s.now();
  return static_cast<double>(bytes) / sim::to_seconds(elapsed);  // bytes/s
}

void Table2_TransferChannel(gflink::bench::CaseState& state) {
  const auto bytes = static_cast<std::uint64_t>(state.args[0]);
  const double gflink_mbps = measure_bandwidth(bytes, false) / 1e6;
  const double native_mbps = measure_bandwidth(bytes, true) / 1e6;
  state.counters["gflink_MBps"] = gflink_mbps;
  state.counters["native_MBps"] = native_mbps;
  for (const auto& row : kPaperRows) {
    if (row.bytes == bytes) {
      std::printf(
          "Table2 %8llu B  measured: GFlink %7.1f MB/s, native %7.1f MB/s | "
          "paper: GFlink %7.1f, native %7.1f\n",
          static_cast<unsigned long long>(bytes), gflink_mbps, native_mbps, row.gflink,
          row.native);
    }
  }
  state.label = std::to_string(bytes) + " bytes";
}

const gflink::bench::Case kCases[] = {
    {"Table2_TransferChannel", Table2_TransferChannel,
     {{2048}, {4096}, {16384}, {32768}, {131072}, {262144}, {524288}, {1048576}}},
};

}  // namespace

GFLINK_BENCH_MAIN(table2_bandwidth, kCases);
