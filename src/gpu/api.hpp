// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// Host-side GPU APIs: the paper's two communication-channel layers (§4.1).
//
//  * CudaStub — the "native" layer (C++ talking to the driver directly).
//    Calls cost only what the device model charges.
//  * CudaWrapper — the JVM-facing layer: every call is redirected over the
//    control channel (JNI), paying a small fixed overhead. Large data never
//    moves through this channel — only addresses and commands — so the
//    overhead is per *call*, not per byte. Table 2 measures exactly the
//    wrapper-vs-native difference.
#pragma once

#include "gpu/device.hpp"

namespace gflink::gpu {

/// Overheads of driver entry points (calibrated, device-independent).
struct StubOverheads {
  sim::Duration malloc_cost = sim::micros(90);
  sim::Duration free_cost = sim::micros(40);
  sim::Duration host_register_cost_per_mb = sim::micros(200);
};

/// Native host API bound to one device.
class CudaStub {
 public:
  using Overheads = StubOverheads;

  explicit CudaStub(GpuDevice& device, Overheads overheads = StubOverheads())
      : device_(&device), overheads_(overheads) {}

  GpuDevice& device() { return *device_; }
  const Overheads& overheads() const { return overheads_; }

  /// cudaMalloc: returns 0 on out-of-memory.
  sim::Co<DevicePtr> cuda_malloc(std::uint64_t bytes) {
    co_await device_->sim().delay(overheads_.malloc_cost);
    co_return device_->memory().allocate(bytes);
  }

  /// cudaFree.
  sim::Co<void> cuda_free(DevicePtr ptr) {
    co_await device_->sim().delay(overheads_.free_cost);
    device_->memory().free(ptr);
  }

  /// cudaHostRegister: page-lock a host buffer so async DMA reaches full
  /// PCIe bandwidth. Cost scales with buffer size (page-table pinning).
  sim::Co<void> cuda_host_register(mem::HBuffer& buffer) {
    if (buffer.pinned()) co_return;
    auto mb = static_cast<double>(buffer.size()) / (1 << 20);
    co_await device_->sim().delay(
        static_cast<sim::Duration>(mb * static_cast<double>(overheads_.host_register_cost_per_mb)));
    buffer.set_pinned(true);
  }

  /// cudaMemcpyH2D / cudaMemcpyH2DAsync. (A synchronous call in a
  /// coroutine world is simply an awaited one; "async" concurrency comes
  /// from issuing these from different stream workers.)
  sim::Co<void> memcpy_h2d(DevicePtr dst, const mem::HBuffer& src, std::size_t src_offset,
                           std::uint64_t bytes, const std::string& label = {}) {
    co_await device_->copy_h2d(src, src_offset, dst, bytes, label);
  }

  /// The cost of memcpy_h2d for bytes a kernel reads in place from `src`
  /// (GpuDevice::charge_h2d): no destination bytes are written.
  sim::Co<void> charge_h2d(const mem::HBuffer& src, std::size_t src_offset, std::uint64_t bytes,
                           const std::string& label = {}) {
    co_await device_->charge_h2d(src, src_offset, bytes, label);
  }

  /// cudaMemcpyD2H / cudaMemcpyD2HAsync.
  sim::Co<void> memcpy_d2h(mem::HBuffer& dst, std::size_t dst_offset, DevicePtr src,
                           std::uint64_t bytes, const std::string& label = {}) {
    co_await device_->copy_d2h(src, dst, dst_offset, bytes, label);
  }

  /// Launch a kernel the caller resolved from the registry (the
  /// GWork.executeName lookup), once per GWork even when the chunked
  /// pipeline issues many launches over sub-ranges.
  sim::Co<void> launch_kernel(const Kernel& kernel,
                              const std::vector<GpuDevice::BufferBinding>& buffers,
                              std::size_t items, mem::Layout layout, int block_size = 256,
                              int grid_size = 0, const std::string& label = {}) {
    co_await device_->launch(kernel, buffers, items, layout, block_size, grid_size, label);
  }

 private:
  GpuDevice* device_;
  Overheads overheads_;
};

/// cudaEvent: a timestamped one-shot marker on the virtual timeline.
/// Because our streams are caller-sequential coroutines, cudaEventRecord
/// is synchronous with the issuing stream; cross-stream waiters use
/// synchronize(). cudaEventElapsedTime is `elapsed`.
class CudaEvent {
 public:
  explicit CudaEvent(sim::Simulation& sim) : sim_(&sim), trigger_(sim) {}

  /// cudaEventRecord: stamp the current virtual time and release waiters.
  void record() {
    recorded_at_ = sim_->now();
    recorded_ = true;
    trigger_.fire();
  }

  bool query() const { return recorded_; }  // cudaEventQuery
  sim::Time recorded_at() const { return recorded_at_; }

  /// cudaEventSynchronize (awaitable).
  auto synchronize() { return trigger_.wait(); }

  /// cudaEventElapsedTime, in virtual nanoseconds.
  static sim::Duration elapsed(const CudaEvent& start, const CudaEvent& stop) {
    GFLINK_CHECK_MSG(start.recorded_ && stop.recorded_, "event not recorded");
    return stop.recorded_at_ - start.recorded_at_;
  }

 private:
  sim::Simulation* sim_;
  sim::Trigger trigger_;
  bool recorded_ = false;
  sim::Time recorded_at_ = 0;
};

/// JVM-side API: same surface as CudaStub, each call paying the JNI
/// control-channel redirect first.
class CudaWrapper {
 public:
  explicit CudaWrapper(CudaStub& stub, sim::Duration jni_overhead = sim::nanos(200))
      : stub_(&stub), jni_overhead_(jni_overhead) {}

  CudaStub& stub() { return *stub_; }
  GpuDevice& device() { return stub_->device(); }
  sim::Duration jni_overhead() const { return jni_overhead_; }
  std::uint64_t calls() const { return calls_; }

  sim::Co<DevicePtr> cuda_malloc(std::uint64_t bytes) {
    co_await jni();
    co_return co_await stub_->cuda_malloc(bytes);
  }
  sim::Co<void> cuda_free(DevicePtr ptr) {
    co_await jni();
    co_await stub_->cuda_free(ptr);
  }
  sim::Co<void> cuda_host_register(mem::HBuffer& buffer) {
    co_await jni();
    co_await stub_->cuda_host_register(buffer);
  }
  sim::Co<void> memcpy_h2d(DevicePtr dst, const mem::HBuffer& src, std::size_t src_offset,
                           std::uint64_t bytes, const std::string& label = {}) {
    co_await jni();
    co_await stub_->memcpy_h2d(dst, src, src_offset, bytes, label);
  }
  sim::Co<void> charge_h2d(const mem::HBuffer& src, std::size_t src_offset, std::uint64_t bytes,
                           const std::string& label = {}) {
    co_await jni();
    co_await stub_->charge_h2d(src, src_offset, bytes, label);
  }
  sim::Co<void> memcpy_d2h(mem::HBuffer& dst, std::size_t dst_offset, DevicePtr src,
                           std::uint64_t bytes, const std::string& label = {}) {
    co_await jni();
    co_await stub_->memcpy_d2h(dst, dst_offset, src, bytes, label);
  }
  sim::Co<void> launch_kernel(const Kernel& kernel,
                              const std::vector<GpuDevice::BufferBinding>& buffers,
                              std::size_t items, mem::Layout layout, int block_size = 256,
                              int grid_size = 0, const std::string& label = {}) {
    co_await jni();
    co_await stub_->launch_kernel(kernel, buffers, items, layout, block_size, grid_size, label);
  }

 private:
  sim::Co<void> jni() {
    ++calls_;
    co_await stub_->device().sim().delay(jni_overhead_);
  }

  CudaStub* stub_;
  sim::Duration jni_overhead_;
  std::uint64_t calls_ = 0;
};

}  // namespace gflink::gpu
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
