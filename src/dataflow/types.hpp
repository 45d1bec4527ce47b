// Common types for the dataflow engine: per-record cost model, the record
// emitter, and the type-erased user-function signatures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>

#include "mem/record_batch.hpp"
#include "sim/coro.hpp"

namespace gflink::dataflow {

class TaskContext;

/// CPU cost of applying one operator to one record (roofline inputs; see
/// net::Node::record_time). The iterator-model per-record overhead is added
/// by the node spec, not here.
struct OpCost {
  double flops = 0.0;
  double bytes = 0.0;
};

/// Collects records an operator emits. FlatMap-style operators may emit
/// zero or many records per input. An emitter appends to a batch, or hands
/// each record straight to a downstream sink: the next op of a stage's
/// fused record-op chain, or the stage terminal's bucketing pass.
class Emitter {
 public:
  /// Receives one emitted record; `sink` is the pointer given at
  /// construction.
  using SinkFn = void (*)(void* sink, const std::byte* record);

  Emitter(SinkFn fn, void* sink) : fn_(fn), sink_(sink) {}
  explicit Emitter(mem::RecordBatch& out)
      : Emitter(
            [](void* batch, const std::byte* record) {
              static_cast<mem::RecordBatch*>(batch)->append_raw(record);
            },
            &out) {}

  /// Emit a raw record laid out per the output descriptor (stride bytes).
  void emit_raw(const void* record) {
    fn_(sink_, static_cast<const std::byte*>(record));
    ++count_;
  }

  /// Emit a typed record through the zero-copy path. The typed plan node
  /// that owns this emitter checked U against the output descriptor once,
  /// when it was built (DataSet::map, flat_map, group_reduce, join,
  /// co_group), so no per-record layout check runs here.
  template <typename U>
  void emit(const U& record) {
    static_assert(std::is_trivially_copyable_v<U>, "records are raw GStruct bytes");
    emit_raw(&record);
  }

  std::uint64_t emitted() const { return count_; }

 private:
  SinkFn fn_;
  void* sink_;
  std::uint64_t count_ = 0;
};

/// Record-at-a-time operator: map / flatMap / filter all reduce to this.
using RecordFn = std::function<void(const std::byte* record, Emitter& out)>;

/// Key extraction for shuffles (reduceByKey, join).
using KeyFn = std::function<std::uint64_t(const std::byte* record)>;

/// In-place associative combine: fold `record` into `accumulator`.
/// Both sides use the operator's record descriptor.
using CombineFn = std::function<void(std::byte* accumulator, const std::byte* record)>;

/// General (non-associative) group function: receives every record of one
/// key and emits any number of output records (Flink's groupReduce).
using GroupFn = std::function<void(const std::vector<const std::byte*>& group, Emitter& out)>;

/// Whole-partition operator (block processing on the CPU).
using PartitionFn = std::function<void(const mem::RecordBatch& in, mem::RecordBatch& out)>;

/// Whole-partition asynchronous operator: the extension point the GFlink
/// GPU layer plugs into (a GPU mapper submits GWork and awaits results).
/// `in` is mutable so that a task may consume it: when ctx.owns_input(),
/// no dataset anyone else holds shares `in`, and the function may write its
/// output over it or move its storage into `out`. Otherwise `in` belongs to
/// a dataset the caller keeps (a from_handle source) and must be left as
/// it is. An AsyncPartition task cannot fail once its function starts (it
/// never reaches the engine's work_delay), so a consumed input is never
/// read again; the stage's retry path checks exactly that.
using AsyncPartitionFn = std::function<sim::Co<void>(TaskContext& ctx, mem::RecordBatch& in,
                                                     mem::RecordBatch& out)>;

/// Deterministic partition generator for synthetic sources.
using GeneratorFn = std::function<void(int partition, mem::RecordBatch& out)>;

/// A materialized distributed dataset: partitions pinned to workers.
/// This is what Flink calls an intermediate result; handles staying alive
/// across jobs are the "in-memory computing" the paper builds on.
struct MaterializedDataSet {
  const mem::StructDesc* desc = nullptr;
  struct Part {
    int worker = 0;
    std::shared_ptr<mem::RecordBatch> batch;
  };
  std::vector<Part> parts;

  std::uint64_t total_records() const {
    std::uint64_t n = 0;
    for (const auto& p : parts) n += p.batch ? p.batch->count() : 0;
    return n;
  }
  std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (const auto& p : parts) n += p.batch ? p.batch->byte_size() : 0;
    return n;
  }
};

using DataHandle = std::shared_ptr<MaterializedDataSet>;

}  // namespace gflink::dataflow
