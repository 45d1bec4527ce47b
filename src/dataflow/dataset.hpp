// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// Typed DataSet facade — the user-facing API of the engine, mirroring
// Flink's DataSet (and GFlink's GDST once the GPU operators from src/core
// are applied to it).
//
// T must be a trivially-copyable mirror of its GStruct descriptor
// (StructDesc::matches_host_layout<T>() must hold); records then move
// through the engine as raw GStruct bytes with zero serialization — the
// paper's central data-representation idea.
#pragma once

#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "dataflow/engine.hpp"

namespace gflink::dataflow {

/// The one layout check of a typed plan node: its records of type T move as
/// raw bytes laid out by `desc`, so the two must agree. Runs once when the
/// node is built, not once per record.
template <typename T>
const mem::StructDesc* host_layout_desc(const mem::StructDesc* desc) {
  GFLINK_CHECK_MSG(desc != nullptr && desc->matches_host_layout<T>(),
                   "descriptor does not match host layout");
  return desc;
}

/// Typed emit-collector handed to flatMap user functions.
template <typename U>
class FlatCollector {
 public:
  explicit FlatCollector(Emitter& emitter) : emitter_(&emitter) {}
  void add(const U& record) { emitter_->emit(record); }

 private:
  Emitter* emitter_;
};

/// A source whose record i is a function of i alone, striped over
/// partitions: partition `part` of `parts` holds record_at(i) for i = part,
/// part + parts, ... < n, so any partitioning yields the same multiset of
/// records (wl::striped builds one).
template <typename T>
struct IndexedGenerator {
  std::uint64_t n = 0;
  int parts = 1;
  std::function<T(std::uint64_t)> record_at;
};

template <typename T>
class DataSet {
 public:
  DataSet() = default;
  DataSet(Engine* engine, PlanNodePtr node) : engine_(engine), node_(std::move(node)) {}

  /// A synthetic source: `generate(partition, out)` fills each partition
  /// deterministically. If `dfs_path` names an existing GDFS file, reading
  /// it is charged before generation (locality-aware splits).
  static DataSet from_generator(Engine& engine, const mem::StructDesc* desc, int partitions,
                                std::function<void(int, std::vector<T>&)> generate,
                                OpCost parse_cost = OpCost{8.0, 0.0},
                                std::string dfs_path = {}) {
    auto node = source_node(desc, partitions, parse_cost, std::move(dfs_path));
    node->source.generate = [generate = std::move(generate)](int part, mem::RecordBatch& out) {
      std::vector<T> rows;
      generate(part, rows);
      out.reserve(rows.size());
      out.append_raw(rows.data(), rows.size());
    };
    return DataSet(&engine, std::move(node));
  }

  /// A synthetic source of one partition per stripe of `generator`. Each
  /// partition's batch is sized once and its records are written in place.
  static DataSet from_generator(Engine& engine, const mem::StructDesc* desc,
                                IndexedGenerator<T> generator,
                                OpCost parse_cost = OpCost{8.0, 0.0},
                                std::string dfs_path = {}) {
    GFLINK_CHECK_MSG(generator.parts > 0, "an indexed generator needs a partition");
    auto node = source_node(desc, generator.parts, parse_cost, std::move(dfs_path));
    node->source.generate = [g = std::move(generator)](int part, mem::RecordBatch& out) {
      const auto first = static_cast<std::uint64_t>(part);
      const auto stride = static_cast<std::uint64_t>(g.parts);
      const std::uint64_t count = first < g.n ? (g.n - first + stride - 1) / stride : 0;
      out.resize(count);
      for (std::uint64_t k = 0; k < count; ++k) {
        const T record = g.record_at(first + k * stride);
        std::memcpy(out.record_ptr(k), &record, sizeof(T));
      }
    };
    return DataSet(&engine, std::move(node));
  }

  /// Wrap an already-materialized distributed dataset (iteration feedback).
  static DataSet from_handle(Engine& engine, DataHandle handle) {
    auto node = std::make_shared<OpNode>();
    node->kind = OpKind::Source;
    node->name = "cached";
    node->out_desc = handle->desc;
    node->source.desc = handle->desc;
    node->source.handle = std::move(handle);
    return DataSet(&engine, std::move(node));
  }

  Engine& engine() const { return *engine_; }
  const PlanNodePtr& node() const { return node_; }
  const mem::StructDesc* desc() const { return node_->out_desc; }

  // ---- Transformations --------------------------------------------------

  template <typename U>
  DataSet<U> map(const mem::StructDesc* out_desc, std::string name, OpCost cost,
                 std::function<U(const T&)> fn) const {
    auto n = record_node(host_layout_desc<U>(out_desc), std::move(name), cost);
    n->record_fn = [fn = std::move(fn)](const std::byte* rec, Emitter& out) {
      out.emit(fn(*reinterpret_cast<const T*>(rec)));
    };
    return DataSet<U>(engine_, std::move(n));
  }

  template <typename U>
  DataSet<U> flat_map(const mem::StructDesc* out_desc, std::string name, OpCost cost,
                      std::function<void(const T&, FlatCollector<U>&)> fn) const {
    auto n = record_node(host_layout_desc<U>(out_desc), std::move(name), cost);
    n->record_fn = [fn = std::move(fn)](const std::byte* rec, Emitter& out) {
      FlatCollector<U> collector(out);
      fn(*reinterpret_cast<const T*>(rec), collector);
    };
    return DataSet<U>(engine_, std::move(n));
  }

  DataSet filter(std::string name, OpCost cost, std::function<bool(const T&)> pred) const {
    auto n = record_node(node_->out_desc, std::move(name), cost);
    n->record_fn = [pred = std::move(pred)](const std::byte* rec, Emitter& out) {
      if (pred(*reinterpret_cast<const T*>(rec))) out.emit_raw(rec);
    };
    return DataSet(engine_, std::move(n));
  }

  /// Combine records sharing a key (map-side combine + hash shuffle +
  /// reduce-side merge). `combine` folds the right record into the left.
  DataSet reduce_by_key(std::string name, OpCost cost, std::function<std::uint64_t(const T&)> key,
                        std::function<void(T&, const T&)> combine) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::ReduceByKey;
    n->name = std::move(name);
    n->out_desc = node_->out_desc;
    n->cost = cost;
    n->input = node_;
    n->key_fn = [key = std::move(key)](const std::byte* rec) {
      return key(*reinterpret_cast<const T*>(rec));
    };
    n->combine_fn = [combine = std::move(combine)](std::byte* acc, const std::byte* rec) {
      combine(*reinterpret_cast<T*>(acc), *reinterpret_cast<const T*>(rec));
    };
    return DataSet(engine_, std::move(n));
  }

  /// General group transformation (Flink's groupReduce): the function sees
  /// every record of one key and may emit any number of records of a new
  /// type. No map-side combine runs (the function need not be associative),
  /// so the full keyed records are shuffled.
  template <typename U>
  DataSet<U> group_reduce(const mem::StructDesc* out_desc, std::string name, OpCost cost,
                          std::function<std::uint64_t(const T&)> key,
                          std::function<void(const std::vector<const T*>&, FlatCollector<U>&)>
                              group_fn) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::GroupReduce;
    n->name = std::move(name);
    n->out_desc = host_layout_desc<U>(out_desc);
    n->cost = cost;
    n->input = node_;
    n->key_fn = [key = std::move(key)](const std::byte* rec) {
      return key(*reinterpret_cast<const T*>(rec));
    };
    n->group_fn = [group_fn = std::move(group_fn)](const std::vector<const std::byte*>& group,
                                                   Emitter& out) {
      std::vector<const T*> typed;
      typed.reserve(group.size());
      for (const std::byte* p : group) typed.push_back(reinterpret_cast<const T*>(p));
      FlatCollector<U> collector(out);
      group_fn(typed, collector);
    };
    return DataSet<U>(engine_, std::move(n));
  }

  /// Reduce everything to one record (key = constant).
  DataSet reduce(std::string name, OpCost cost, std::function<void(T&, const T&)> combine) const {
    return reduce_by_key(std::move(name), cost, [](const T&) { return std::uint64_t{0}; },
                         std::move(combine));
  }

  /// CPU block processing of a whole partition.
  template <typename U>
  DataSet<U> map_partition(const mem::StructDesc* out_desc, std::string name, OpCost cost,
                           std::function<void(std::span<const T>, std::vector<U>&)> fn) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::MapPartition;
    n->name = std::move(name);
    n->out_desc = host_layout_desc<U>(out_desc);
    n->cost = cost;
    n->input = node_;
    n->partition_fn = [fn = std::move(fn)](const mem::RecordBatch& in, mem::RecordBatch& out) {
      std::span<const T> rows(in.count() ? in.template aos_view<T>() : nullptr, in.count());
      std::vector<U> result;
      fn(rows, result);
      out.reserve(result.size());
      out.append_raw(result.data(), result.size());
    };
    return DataSet<U>(engine_, std::move(n));
  }

  /// Asynchronous block processing — the GFlink GPU extension point. The
  /// function receives the task context (whose extension() is the worker's
  /// GpuManager) and must fill `out`.
  template <typename U>
  DataSet<U> async_map_partition(const mem::StructDesc* out_desc, std::string name,
                                 AsyncPartitionFn fn) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::AsyncPartition;
    n->name = std::move(name);
    n->out_desc = out_desc;
    n->input = node_;
    n->async_fn = std::move(fn);
    return DataSet<U>(engine_, std::move(n));
  }

  /// Keep one record per key (Flink's distinct). The kept record is the
  /// first seen in partition order.
  DataSet distinct(std::string name, OpCost cost,
                   std::function<std::uint64_t(const T&)> key) const {
    return reduce_by_key(std::move(name), cost, std::move(key),
                         [](T&, const T&) { /* keep the first */ });
  }

  /// Deterministic Bernoulli sample: keeps `fraction` of records, selected
  /// by a hash of the record's key (stable across partitionings and runs).
  DataSet sample(std::string name, double fraction,
                 std::function<std::uint64_t(const T&)> key) const {
    GFLINK_CHECK(fraction >= 0.0 && fraction <= 1.0);
    // 2^64-1 is not representable as a double (it rounds to 2^64, whose
    // cast is UB), so saturate explicitly at the top.
    const std::uint64_t threshold =
        fraction >= 1.0 ? ~0ULL : static_cast<std::uint64_t>(fraction * 0x1.0p64);
    return filter(std::move(name), OpCost{8.0, static_cast<double>(node_->out_desc->stride())},
                  [key = std::move(key), threshold](const T& record) {
                    std::uint64_t h = key(record);
                    return sim::splitmix64(h) <= threshold;
                  });
  }

  /// First `n` records (by partition order) gathered to the driver.
  sim::Co<std::vector<T>> take(Job& job, std::size_t n) const {
    // Each partition contributes at most n records; the driver trims.
    auto limited = this->template map_partition<T>(
        node_->out_desc, "take", OpCost{1.0, static_cast<double>(node_->out_desc->stride())},
        [n](std::span<const T> rows, std::vector<T>& out) {
          for (std::size_t i = 0; i < std::min(n, rows.size()); ++i) out.push_back(rows[i]);
        });
    auto rows = co_await limited.collect(job);
    if (rows.size() > n) rows.resize(n);
    co_return rows;
  }

  /// Round-robin repartition.
  DataSet rebalance(std::string name = "rebalance") const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::Rebalance;
    n->name = std::move(name);
    n->out_desc = node_->out_desc;
    n->input = node_;
    return DataSet(engine_, std::move(n));
  }

  // ---- Actions ------------------------------------------------------------

  sim::Co<DataHandle> materialize(Job& job) const {
    return engine_->materialize(job, node_);
  }

  sim::Co<std::vector<T>> collect(Job& job) const {
    auto batch = co_await engine_->collect(job, node_);
    std::vector<T> rows;
    rows.reserve(batch->count());
    if (batch->count() > 0) {
      const T* view = batch->template aos_view<T>();
      rows.assign(view, view + batch->count());
    }
    co_return rows;
  }

  /// The number of records. Reads sizes only: if the last stage is a chain
  /// of record ops, it counts their output without building it.
  sim::Co<std::uint64_t> count(Job& job) const { return engine_->count(job, node_); }

  /// Write the records to `path.part<worker>` on the DFS. Reads sizes only,
  /// so a last stage of record ops streams as in count().
  sim::Co<void> write_dfs(Job& job, const std::string& path) const {
    return engine_->write_dfs(job, node_, path);
  }

 private:
  /// A source node without its generator.
  static std::shared_ptr<OpNode> source_node(const mem::StructDesc* desc, int partitions,
                                             OpCost parse_cost, std::string dfs_path) {
    auto node = std::make_shared<OpNode>();
    node->kind = OpKind::Source;
    node->name = "source";
    node->out_desc = host_layout_desc<T>(desc);
    node->source.desc = desc;
    node->source.partitions = partitions;
    node->source.parse_cost = parse_cost;
    node->source.dfs_path = std::move(dfs_path);
    return node;
  }

  PlanNodePtr record_node(const mem::StructDesc* out_desc, std::string name, OpCost cost) const {
    auto n = std::make_shared<OpNode>();
    n->kind = OpKind::Record;
    n->name = std::move(name);
    n->out_desc = out_desc;
    n->cost = cost;
    n->input = node_;
    return n;
  }

  Engine* engine_ = nullptr;
  PlanNodePtr node_;
};

/// Typed coGroup of two materialized datasets: for every key, `group_fn`
/// receives all left and all right records with that key.
template <typename L, typename R, typename O>
sim::Co<DataHandle> co_group(
    Job& job, const DataHandle& left, const DataHandle& right,
    std::function<std::uint64_t(const L&)> left_key,
    std::function<std::uint64_t(const R&)> right_key,
    std::function<void(const std::vector<const L*>&, const std::vector<const R*>&,
                       FlatCollector<O>&)>
        group_fn,
    const mem::StructDesc* out_desc, OpCost cost, int partitions = 0,
    const std::string& name = "coGroup") {
  return job.engine().co_group(
      job, left, right,
      [left_key = std::move(left_key)](const std::byte* rec) {
        return left_key(*reinterpret_cast<const L*>(rec));
      },
      [right_key = std::move(right_key)](const std::byte* rec) {
        return right_key(*reinterpret_cast<const R*>(rec));
      },
      [group_fn = std::move(group_fn)](const std::vector<const std::byte*>& l,
                                       const std::vector<const std::byte*>& r, Emitter& out) {
        std::vector<const L*> lv;
        lv.reserve(l.size());
        for (const std::byte* p : l) lv.push_back(reinterpret_cast<const L*>(p));
        std::vector<const R*> rv;
        rv.reserve(r.size());
        for (const std::byte* p : r) rv.push_back(reinterpret_cast<const R*>(p));
        FlatCollector<O> collector(out);
        group_fn(lv, rv, collector);
      },
      host_layout_desc<O>(out_desc), cost, partitions, name);
}

/// Hash join of two typed datasets: a coGroup whose group function calls
/// `join_fn` on every left x right pair of a key. Output comes in key order.
template <typename L, typename R, typename O>
sim::Co<DataHandle> join(Job& job, const DataHandle& left, const DataHandle& right,
                         std::function<std::uint64_t(const L&)> left_key,
                         std::function<std::uint64_t(const R&)> right_key,
                         std::function<void(const L&, const R&, FlatCollector<O>&)> join_fn,
                         const mem::StructDesc* out_desc, OpCost cost, int partitions = 0,
                         const std::string& name = "join") {
  return co_group<L, R, O>(
      job, left, right, std::move(left_key), std::move(right_key),
      [join_fn = std::move(join_fn)](const std::vector<const L*>& ls,
                                     const std::vector<const R*>& rs, FlatCollector<O>& out) {
        for (const L* l : ls) {
          for (const R* r : rs) join_fn(*l, *r, out);
        }
      },
      out_desc, cost, partitions, name);
}

}  // namespace gflink::dataflow
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
