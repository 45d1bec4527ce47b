// Kernel registry: named GPU kernels with a host implementation and a
// roofline cost model.
//
// In the real GFlink, users compile CUDA C to PTX and register its path;
// GFlink resolves the function by name at submission (GWork.executeName).
// Here a kernel is a host function that computes for real (results are
// checked against the CPU path): it reads its inputs and writes its outputs
// through the spans it is handed. Its *duration* comes from the cost model
// evaluated against the executing device's spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "mem/gstruct.hpp"
#include "sim/time.hpp"
#include "sim/util.hpp"

namespace gflink::gpu {

struct DeviceSpec;

/// What one launched kernel instance sees.
struct KernelLaunch {
  /// Buffers bound to the launch, in GWork order (inputs then outputs).
  /// A GWork's inputs alias its own host bytes (read-only by contract: a
  /// kernel must not write them); outputs alias device shadow memory.
  std::vector<std::span<std::byte>> buffers;
  /// Number of logical items (records) the launch covers.
  std::size_t items = 0;
  /// Grid geometry, carried for fidelity/reporting.
  int block_size = 256;
  int grid_size = 0;
};

using KernelFn = std::function<void(KernelLaunch&)>;

/// Roofline cost model for a kernel: time = launch overhead +
/// max(flops / sustained_flops, dram_bytes / (bandwidth * layout_eff)).
struct KernelCost {
  double flops_per_item = 0.0;
  double dram_bytes_per_item = 0.0;
  /// Fixed per-launch work independent of items (e.g. reduction tails).
  double fixed_flops = 0.0;
};

struct Kernel {
  std::string name;
  KernelFn fn;
  KernelCost cost;
  /// Layout the kernel's memory accesses assume; the executing device's
  /// layout_efficiency for the *batch's actual layout* scales bandwidth.
  mem::Layout preferred_layout = mem::Layout::SoA;
};

/// Evaluate the cost model for `items` items on `spec` with data in
/// `layout`.
sim::Duration kernel_duration(const Kernel& kernel, const DeviceSpec& spec, std::size_t items,
                              mem::Layout layout);

/// Process-wide registry mapping executeName -> Kernel, mirroring the PTX
/// function lookup in the paper (§3.5.3).
class KernelRegistry {
 public:
  void register_kernel(Kernel kernel);
  const Kernel& lookup(const std::string& name) const;
  bool contains(const std::string& name) const { return kernels_.count(name) != 0; }
  std::size_t size() const { return kernels_.size(); }

  /// The registry shared by all workloads (kernels are stateless).
  static KernelRegistry& global();

 private:
  std::map<std::string, Kernel> kernels_;
};

}  // namespace gflink::gpu
