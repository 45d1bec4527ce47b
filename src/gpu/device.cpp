// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "gpu/device.hpp"

#include <algorithm>

namespace gflink::gpu {

GpuDevice::GpuDevice(sim::Simulation& sim, std::string id, const DeviceSpec& spec,
                     obs::SpanStore* spans)
    : sim_(&sim),
      id_(std::move(id)),
      spec_(spec),
      memory_(spec.device_memory),
      spans_(spans),
      compute_(sim),
      copy_a_(sim),
      copy_b_(sim) {}

void GpuDevice::record_lane(Lane lane, const std::string& label, sim::Time begin) {
  if (spans_ == nullptr || !spans_->retain()) return;
  obs::StrId& id = lanes_[static_cast<std::size_t>(lane)];
  if (id.v == 0) {
    static constexpr const char* kSuffix[] = {"/h2d", "/d2h", "/kernel"};
    id = spans_->intern(id_ + kSuffix[static_cast<std::size_t>(lane)]);
  }
  spans_->record_lane(id, label, begin, sim_->now());
}

sim::Duration GpuDevice::dma_time(std::uint64_t bytes, bool pinned) const {
  const double bw = pinned ? spec_.pcie_bandwidth : spec_.pcie_bandwidth * spec_.pageable_penalty;
  return spec_.pcie_latency + sim::transfer_time(bytes, bw);
}

void GpuDevice::mark_engine(bool copy, int delta) {
  const sim::Time now = sim_->now();
  if (active_copies_ > 0 && active_kernels_ > 0) overlap_ns_ += now - last_engine_mark_;
  last_engine_mark_ = now;
  (copy ? active_copies_ : active_kernels_) += delta;
}

double GpuDevice::overlap_efficiency() const {
  const sim::Duration hideable = std::min(h2d_busy() + d2h_busy(), kernel_busy());
  const sim::Duration overlap = copy_compute_overlap();
  return hideable > 0 ? static_cast<double>(overlap) / static_cast<double>(hideable) : 0.0;
}

sim::Co<void> GpuDevice::dma(sim::Mutex& engine, Lane lane, std::uint64_t bytes,
                             bool pinned, bool off_heap, const std::string& label,
                             sim::Duration& busy) {
  // JVM-heap buffers must first be staged into native memory — the copy the
  // paper's off-heap design eliminates (§4.1.2). It is a CPU memcpy, so it
  // does not occupy the DMA engine.
  if (!off_heap) {
    co_await sim_->delay(sim::transfer_time(bytes, kHeapCopyBandwidth));
  }
  co_await engine.lock();
  sim::Time begin = sim_->now();
  mark_engine(/*copy=*/true, +1);
  co_await sim_->delay(dma_time(bytes, pinned));
  mark_engine(/*copy=*/true, -1);
  busy += sim_->now() - begin;
  record_lane(lane, label, begin);
  engine.unlock();
}

sim::Co<void> GpuDevice::copy_h2d(const mem::HBuffer& src, std::size_t src_offset, DevicePtr dst,
                                  std::uint64_t bytes, const std::string& label) {
  GFLINK_CHECK(src_offset + bytes <= src.size());
  // Move the real bytes first so the shadow is coherent even though the
  // simulated duration elapses afterwards (single-threaded determinism
  // makes the distinction unobservable to well-formed programs that await
  // the copy before launching kernels on it).
  std::memcpy(memory_.shadow(dst, bytes), src.data() + src_offset, bytes);
  co_await charge_h2d(src, src_offset, bytes, label);
}

sim::Co<void> GpuDevice::charge_h2d(const mem::HBuffer& src, std::size_t src_offset,
                                    std::uint64_t bytes, const std::string& label) {
  GFLINK_CHECK(src_offset + bytes <= src.size());
  bytes_h2d_ += bytes;
  co_await dma(copy_a_, Lane::H2D, bytes, src.pinned(), src.off_heap(), label, h2d_busy_);
}

sim::Co<void> GpuDevice::copy_d2h(DevicePtr src, mem::HBuffer& dst, std::size_t dst_offset,
                                  std::uint64_t bytes, const std::string& label) {
  GFLINK_CHECK(dst_offset + bytes <= dst.size());
  sim::Mutex& engine = spec_.copy_engines >= 2 ? copy_b_ : copy_a_;
  co_await dma(engine, Lane::D2H, bytes, dst.pinned(), dst.off_heap(), label, d2h_busy_);
  // Copy bytes after the simulated transfer completes: the destination is
  // only coherent once the DMA is done, and callers may inspect it then.
  const std::byte* shadow = memory_.shadow(src, bytes);
  std::memcpy(dst.data() + dst_offset, shadow, bytes);
  bytes_d2h_ += bytes;
}

sim::Co<void> GpuDevice::launch(const Kernel& kernel, const std::vector<BufferBinding>& buffers,
                                std::size_t items, mem::Layout layout, int block_size,
                                int grid_size, const std::string& label) {
  co_await compute_.lock();
  sim::Time begin = sim_->now();

  KernelLaunch launch;
  launch.items = items;
  launch.block_size = block_size;
  launch.grid_size =
      grid_size > 0 ? grid_size
                    : static_cast<int>((items + static_cast<std::size_t>(block_size) - 1) /
                                       static_cast<std::size_t>(block_size));
  launch.buffers.reserve(buffers.size());
  for (const auto& b : buffers) {
    launch.buffers.emplace_back(b.host != nullptr ? b.host : memory_.shadow(b.ptr, b.len), b.len);
  }

  kernel.fn(launch);  // real computation on host inputs and output shadows

  sim::Duration dur = kernel_duration(kernel, spec_, items, layout);
  mark_engine(/*copy=*/false, +1);
  co_await sim_->delay(dur);
  mark_engine(/*copy=*/false, -1);
  kernel_busy_ += dur;
  ++kernels_launched_;
  record_lane(Lane::Kernel, label.empty() ? kernel.name : label, begin);
  compute_.unlock();
}

sim::Co<void> GpuDevice::launch_mapped(const Kernel& kernel,
                                       std::vector<std::span<std::byte>> host_spans,
                                       std::size_t items, mem::Layout layout,
                                       const std::string& label) {
  co_await compute_.lock();
  sim::Time begin = sim_->now();

  KernelLaunch launch;
  launch.items = items;
  launch.block_size = 256;
  launch.grid_size = static_cast<int>((items + 255) / 256);
  launch.buffers = std::move(host_spans);
  kernel.fn(launch);  // reads/writes host memory directly

  // Roofline with the DRAM term replaced by the PCIe link (mapped reads
  // stream over the bus at link speed, regardless of layout coalescing).
  const double n = static_cast<double>(items);
  const double flops = kernel.cost.flops_per_item * n + kernel.cost.fixed_flops;
  const double bytes = kernel.cost.dram_bytes_per_item * n;
  const double sustained = spec_.peak_flops * spec_.kernel_efficiency;
  const double compute_s = sustained > 0 ? flops / sustained : 0.0;
  const double bus_s = bytes / spec_.pcie_bandwidth;
  sim::Duration dur = spec_.kernel_launch_overhead +
                      static_cast<sim::Duration>(std::max(compute_s, bus_s) * sim::kSecond);
  mark_engine(/*copy=*/false, +1);
  co_await sim_->delay(dur);
  mark_engine(/*copy=*/false, -1);
  kernel_busy_ += dur;
  ++kernels_launched_;
  if (spans_ != nullptr && spans_->retain()) {
    record_lane(Lane::Kernel, label.empty() ? kernel.name + "(mapped)" : label, begin);
  }
  (void)layout;
  compute_.unlock();
}

}  // namespace gflink::gpu
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
