// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "dataflow/engine.hpp"

#include <map>
#include <numeric>

namespace gflink::dataflow {

namespace {

/// Rounds of a binomial distribution/combining tree over `receivers` nodes.
int tree_rounds(int receivers) {
  int rounds = 0;
  int covered = 1;
  while (covered < receivers + 1) {
    covered *= 2;
    ++rounds;
  }
  return rounds;
}

/// Push every record of `in` through `ops` into `sink` in one pass per
/// record: op i emits straight into op i+1 and the last op into `sink`, so
/// no op builds a batch of its own. Returns the ops' modelled CPU time: per
/// op, the records that entered it times record_time(op).
sim::Duration run_record_ops(const std::vector<const OpNode*>& ops, const net::Node& node,
                             const mem::RecordBatch& in, Emitter& sink) {
  struct Link {
    const RecordFn* op;
    Emitter* out;
  };
  std::vector<Link> links(ops.size());
  std::vector<Emitter> into;  // into[i] hands each record to op i
  into.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    into.emplace_back(
        [](void* link, const std::byte* record) {
          (*static_cast<Link*>(link)->op)(record, *static_cast<Link*>(link)->out);
        },
        &links[i]);
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    links[i] = {&ops[i]->record_fn, i + 1 < ops.size() ? &into[i + 1] : &sink};
  }
  Emitter& first = ops.empty() ? sink : into.front();
  for (std::size_t r = 0; r < in.count(); ++r) first.emit_raw(in.record_ptr(r));
  sim::Duration total = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    total += static_cast<sim::Duration>(into[i].emitted()) *
             node.record_time(ops[i]->cost.flops, ops[i]->cost.bytes);
  }
  return total;
}

/// What a shuffle stage's receiver makes of one target partition's
/// deposits: GroupReduce groups them by key and calls the group function
/// per key, ReduceByKey combines them, Rebalance concatenates them. Returns
/// the modelled time on `node`.
sim::Duration merge_deposits(const OpNode& term, const net::Node& node,
                             const std::vector<mem::RecordBatch>& deposited,
                             mem::RecordBatch& merged) {
  std::uint64_t n = 0;
  for (const auto& b : deposited) n += b.count();
  if (term.kind == OpKind::GroupReduce) {
    std::map<std::uint64_t, std::vector<const std::byte*>> groups;
    for (const auto& b : deposited) {
      for (std::size_t i = 0; i < b.count(); ++i) {
        groups[term.key_fn(b.record_ptr(i))].push_back(b.record_ptr(i));
      }
    }
    Emitter emitter(merged);
    for (const auto& [key, group] : groups) term.group_fn(group, emitter);
    return static_cast<sim::Duration>(n + emitter.emitted()) *
           node.record_time(term.cost.flops, term.cost.bytes);
  }
  if (term.kind == OpKind::ReduceByKey) {
    shuffle::Bucketer combine(1, term.out_desc, &term.key_fn, &term.combine_fn);
    combine.reserve_keys(n);
    for (const auto& b : deposited) {
      for (std::size_t i = 0; i < b.count(); ++i) combine.add(b.record_ptr(i));
    }
    merged = std::move(combine.take().front());
    return static_cast<sim::Duration>(n) * node.record_time(term.cost.flops, term.cost.bytes);
  }
  // Rebalance: concatenation plus the deferred transfers.
  merged.reserve(n);
  for (const auto& b : deposited) merged.append(b);
  return static_cast<sim::Duration>(n) *
         node.record_time(1.0, static_cast<double>(term.out_desc->stride()));
}

}  // namespace

// ---- TaskContext -----------------------------------------------------------

sim::Simulation& TaskContext::sim() { return engine_->sim(); }
net::Node& TaskContext::node() { return engine_->cluster().node(worker_node_); }
Worker& TaskContext::worker_state() { return engine_->worker_state(worker_node_); }
void* TaskContext::extension() { return engine_->worker_state(worker_node_).extension(); }

// ---- Job -------------------------------------------------------------------

Job::Job(Engine& engine, std::string name) : engine_(&engine), id_(engine.next_job_id_++) {
  stats_.name = std::move(name);
  stats_.job_id = id_;
}

sim::Co<void> Job::submit() {
  GFLINK_CHECK_MSG(!submitted_, "job submitted twice");
  stats_.submitted_at = engine_->now();
  obs::SpanStore& spans = engine_->cluster().spans();
  // The trace root: everything the job does hangs off this span, and its
  // duration is the makespan the critical-path breakdown must sum to.
  span_ = spans.open("job", obs::SpanCategory::Control, 0, stats_.submitted_at, "master/job", 0,
                     id_);
  spans.annotate(span_, "name", stats_.name);
  if (!stats_.tenant.empty()) spans.annotate(span_, "tenant", stats_.tenant);
  // Client -> JobManager: ship the program, translate and optimize the
  // plan, acquire slots. Tsubmit + Tschedule in the paper's Eq. (1).
  co_await engine_->sim().delay(engine_->config().job_submit_overhead);
  co_await engine_->sim().delay(engine_->config().job_schedule_overhead);
  stats_.running_at = engine_->now();
  stats_.state = JobState::Running;
  spans.record("submit", obs::SpanCategory::Control, span_, stats_.submitted_at,
               stats_.running_at, "master/job", 0);
  submitted_ = true;
}

void Job::finish() {
  stats_.finished_at = engine_->now();
  stats_.state = JobState::Finished;
  engine_->cluster().spans().close(span_, stats_.finished_at);
  span_ = 0;
}

void Job::cancel() {
  GFLINK_CHECK_MSG(!submitted_, "cannot cancel a job that already submitted");
  stats_.state = JobState::Cancelled;
}

// ---- Engine ----------------------------------------------------------------

Engine::Engine(const EngineConfig& config)
    : config_(config), cluster_(sim_, config.cluster), dfs_(cluster_, config.dfs),
      shuffle_(sim_, cluster_, dfs_, config.shuffle,
               [this](int t) { return owner_of_partition(t); }),
      default_parallelism_(0) {
  // Causal spans and lane intervals are retained for analysis and export
  // only on traced runs; the flight-recorder rings stay on regardless
  // (they are bounded).
  cluster_.spans().set_retain(config.trace);
  const int slots = config_.slots_per_worker > 0 ? config_.slots_per_worker
                                                 : config_.cluster.worker.cpu.cores;
  workers_.push_back(nullptr);  // node 0 is the master
  for (int w = 1; w <= cluster_.num_workers(); ++w) {
    workers_.push_back(std::make_unique<Worker>(sim_, w, slots, config_.page_size,
                                                config_.memory_pages_per_worker));
  }
  default_parallelism_ = cluster_.num_workers() * slots;
  task_busy_ns_.push_back(nullptr);  // node 0 is the master
  for (int w = 1; w <= cluster_.num_workers(); ++w) {
    task_busy_ns_.push_back(
        &cluster_.metrics().counter(obs::Metric::EngineTaskBusyNs, {{"node", std::to_string(w)}}));
  }
  alive_.assign(static_cast<std::size_t>(cluster_.num_workers()) + 1, true);
  dfs_.set_liveness([this](int node) { return worker_alive(node); });
}

void Engine::schedule_worker_failure(int worker, sim::Time at, sim::Duration down_for) {
  GFLINK_CHECK(worker >= 1 && worker <= num_workers());
  sim_.schedule_at(at, [this, worker] {
    alive_[static_cast<std::size_t>(worker)] = false;
    cluster_.flight().note_fault(sim_.now(), worker, "worker_failure",
                                 "node" + std::to_string(worker) + " lost");
  });
  if (down_for > 0) {
    sim_.schedule_at(at + down_for, [this, worker] {
      alive_[static_cast<std::size_t>(worker)] = true;  // rejoins, memory empty
    });
  }
}

int Engine::alive_workers() const {
  int n = 0;
  for (int w = 1; w <= num_workers(); ++w) {
    if (alive_[static_cast<std::size_t>(w)]) ++n;
  }
  return n;
}

int Engine::pick_alive_worker(int preferred) const {
  GFLINK_CHECK_MSG(alive_workers() > 0, "every worker is dead; job cannot make progress");
  for (int step = 0; step < num_workers(); ++step) {
    const int candidate = 1 + (preferred - 1 + step) % num_workers();
    if (alive_[static_cast<std::size_t>(candidate)]) return candidate;
  }
  GFLINK_CHECK(false);
}

sim::Co<void> Engine::work_delay(int worker, sim::Duration d) {
  if (!worker_alive(worker)) throw TaskFailed{worker};
  if (d <= 0) co_return;
  // Chunked so a mid-delay death is observed with bounded latency.
  constexpr int kChunks = 16;
  const sim::Duration chunk = std::max<sim::Duration>(1, d / kChunks);
  sim::Duration remaining = d;
  while (remaining > 0) {
    const sim::Duration step = std::min(chunk, remaining);
    co_await sim_.delay(step);
    remaining -= step;
    // Per-chunk (not per-task) so a telemetry sample mid-task still sees
    // the node's busy time advance — tasks can outlive a sample period.
    task_busy_ns_[static_cast<std::size_t>(worker)]->inc(static_cast<double>(step));
    if (!worker_alive(worker)) throw TaskFailed{worker};
  }
}

Worker& Engine::worker_state(int node_id) {
  GFLINK_CHECK_MSG(node_id >= 1 && node_id <= cluster_.num_workers(), "not a worker node");
  return *workers_[static_cast<std::size_t>(node_id)];
}

obs::StrId Worker::tasks_lane(obs::SpanStore& spans) {
  if (tasks_lane_.v == 0) tasks_lane_ = spans.intern("node" + std::to_string(node_id_) + "/tasks");
  return tasks_lane_;
}

obs::StrId Worker::slots_lane(obs::SpanStore& spans) {
  if (slots_lane_.v == 0) slots_lane_ = spans.intern("node" + std::to_string(node_id_) + "/slots");
  return slots_lane_;
}

obs::SpanId Engine::open_task(obs::StrRef name, obs::SpanId parent, int node) {
  obs::SpanStore& sp = cluster_.spans();
  return sp.open(name, obs::SpanCategory::Control, parent, now(),
                 worker_state(node).tasks_lane(sp), node);
}

sim::Co<Worker*> Engine::acquire_slot(int node, obs::SpanId task_span) {
  Worker& w = worker_state(node);
  const sim::Time slot_wait = now();
  co_await w.slots().acquire();
  if (now() > slot_wait) {
    obs::SpanStore& sp = cluster_.spans();
    sp.record("wait:slot", obs::SpanCategory::Wait, task_span, slot_wait, now(),
              w.slots_lane(sp), node);
  }
  co_return &w;
}

void Engine::export_metrics(obs::MetricsRegistry& out) const {
  cluster_.export_metrics(out);
  out.counter(obs::Metric::EngineTasksFailed).inc(static_cast<double>(tasks_failed_));
  out.counter(obs::Metric::EngineTasksRetried).inc(static_cast<double>(tasks_retried_));
}

sim::Time Engine::run(std::function<sim::Co<void>(Engine&)> driver) {
  sim_.spawn(driver(*this));
  const sim::Time end = sim_.run();
  // The event queue drained with processes still parked: a deadlock in the
  // model (e.g. resource starvation). Fail loudly rather than return
  // nonsense timings.
  GFLINK_CHECK_MSG(sim_.live_processes() == 0, "driver deadlocked: processes still parked");
  return end;
}

// ---- Plan execution --------------------------------------------------------

sim::Co<DataHandle> Engine::run_plan(Job& job, const PlanNodePtr& sink,
                                     std::vector<PartSize>* sizes) {
  GFLINK_CHECK_MSG(job.submitted(), "action on a job that was never submitted");
  auto chain = linearize(sink.get());
  DataHandle data = co_await run_source(job, chain.front()->source);
  auto stages = split_stages(chain);
  // Each stage takes its input over: unless the caller keeps that dataset
  // (a from_handle source), the stage holds its only reference.
  for (std::size_t s = 0; s < stages.size(); ++s) {
    data = co_await run_stage(job, stages[s], std::move(data),
                              s + 1 == stages.size() ? sizes : nullptr);
  }
  if (sizes != nullptr && data) {
    // The last stage materialized: measure what it built.
    for (const auto& part : data->parts) {
      if (part.batch) sizes->push_back({part.worker, part.batch->count(), part.batch->byte_size()});
    }
    data.reset();
  }
  co_return data;
}

sim::Co<Engine::StageScope> Engine::open_stage(Job& job, std::string name, int tasks,
                                               const std::function<void(obs::SpanId)>& prepare) {
  StageScope scope;
  scope.stat.name = std::move(name);
  scope.stat.begin = now();
  scope.stat.tasks = tasks;
  scope.span = cluster_.spans().open("stage:" + scope.stat.name, obs::SpanCategory::Control,
                                     job.span(), scope.stat.begin, "master/stages", 0);
  if (prepare) prepare(scope.span);
  co_await sim_.delay(config_.stage_schedule_overhead);
  co_return scope;
}

void Engine::close_stage(Job& job, StageScope& scope, std::uint64_t records_out) {
  StageStat& stat = scope.stat;
  stat.end = now();
  stat.records_out = records_out;
  cluster_.spans().close(scope.span, stat.end);
  job.stats().shuffle_bytes += stat.shuffle_bytes;
  obs::MetricsRegistry& m = cluster_.metrics();
  m.inc(obs::Metric::EngineStages);
  m.inc(obs::Metric::EngineStageTasks, static_cast<double>(stat.tasks));
  m.inc(obs::Metric::EngineRecordsIn, static_cast<double>(stat.records_in));
  m.histogram(obs::Metric::EngineStageDurationNs).add(static_cast<double>(stat.end - stat.begin));
  job.stats().stages.push_back(std::move(stat));
}

sim::Co<void> Engine::run_waves(Job& job, const StageScope& scope, std::vector<int> placement,
                                const std::vector<int>& home, const bool* consumed,
                                const TaskBody& body) {
  const obs::StrId task_name = cluster_.spans().intern("task:" + scope.stat.name);
  std::vector<int> pending(placement.size());
  std::iota(pending.begin(), pending.end(), 0);
  while (!pending.empty()) {
    sim::WaitGroup wg(sim_);
    std::vector<int> failed;
    for (int index : pending) {
      wg.add();
      // The deployed-task skeleton: deploy to the worker, take a slot, run
      // the body. A worker lost on the way fails the task, not the stage.
      sim_.spawn([](Engine& eng, Job& jb, const StageScope& st, obs::StrId tname, int idx,
                    int node, const TaskBody& run, std::vector<int>& fails,
                    sim::WaitGroup& join) -> sim::Co<void> {
        obs::SpanStore& sp = eng.cluster().spans();
        const obs::SpanId task_span = eng.open_task(tname, st.span, node);
        Worker* held = nullptr;
        try {
          if (!eng.worker_alive(node)) throw TaskFailed{node};
          co_await eng.cluster().message(0, node);  // task deployment RPC
          co_await eng.sim().delay(eng.config().task_deploy_overhead);
          held = co_await eng.acquire_slot(node, task_span);
          co_await run(idx, node, task_span);
          held->slots().release();
          sp.close(task_span, eng.now());
        } catch (const TaskFailed&) {
          // The physical slot is gone with the node, but keep the
          // accounting balanced for a rejoin.
          if (held != nullptr) held->slots().release();
          sp.annotate(task_span, "failed", "worker_lost");
          sp.close(task_span, eng.now());
          eng.cluster().flight().note_event(eng.now(), node, "task_failed",
                                            st.stat.name + " partition " + std::to_string(idx));
          ++eng.tasks_failed_;
          ++jb.stats().tasks_failed;
          fails.push_back(idx);
        }
        join.done();
      }(*this, job, scope, task_name, index, placement[static_cast<std::size_t>(index)], body,
        failed, wg));
    }
    co_await wg.wait();
    if (failed.empty()) break;
    // Heartbeat timeout before the JobManager reacts, then reassignment
    // (Flink's restart-from-failure behaviour).
    co_await sim_.delay(config_.failure_detection_delay);
    for (int idx : failed) {
      GFLINK_CHECK_MSG(consumed == nullptr || !consumed[idx],
                       "partition " + std::to_string(idx) + " of stage " + scope.stat.name +
                           " failed after it consumed its input, so it cannot be re-run");
      const auto p = static_cast<std::size_t>(idx);
      placement[p] = pick_alive_worker(home[p]);
      ++tasks_retried_;
      ++job.stats().tasks_retried;
    }
    pending = std::move(failed);
  }
}

sim::Co<void> Engine::run_receivers(obs::SpanId stage_span, obs::StrRef task_name,
                                    std::vector<shuffle::ShuffleSession*> sessions,
                                    MaterializedDataSet& out, const ReceiveFn& receive) {
  const obs::StrId name = cluster_.spans().intern(task_name);
  sim::WaitGroup wg(sim_);
  for (std::size_t t = 0; t < out.parts.size(); ++t) {
    wg.add();
    sim_.spawn([](Engine& eng, obs::SpanId st_span, obs::StrId tname,
                  const std::vector<shuffle::ShuffleSession*>& from, MaterializedDataSet& result,
                  const ReceiveFn& fn, int t_index, sim::WaitGroup& join) -> sim::Co<void> {
      const int node = eng.owner_of_partition(t_index);
      const obs::SpanId task_span = eng.open_task(tname, st_span, node);
      Worker& w = *co_await eng.acquire_slot(node, task_span);
      // Reads spilled deposits back from the DFS.
      std::vector<std::vector<mem::RecordBatch>> deposits;
      for (shuffle::ShuffleSession* session : from) {
        std::vector<mem::RecordBatch> taken =
            co_await session->take(t_index, node, {task_span, obs::SpanCategory::Spill});
        deposits.push_back(std::move(taken));
      }
      auto part = std::make_shared<mem::RecordBatch>(result.desc);
      const sim::Duration busy = fn(eng.cluster().node(node), deposits, *part);
      // Free the deposits before the modelled time elapses: the other
      // receivers run meanwhile.
      deposits = {};
      co_await eng.sim().delay(busy);
      result.parts[static_cast<std::size_t>(t_index)] = {node, std::move(part)};
      w.slots().release();
      eng.cluster().spans().close(task_span, eng.now());
      join.done();
    }(*this, stage_span, name, sessions, out, receive, static_cast<int>(t), wg));
  }
  co_await wg.wait();
}

sim::Co<DataHandle> Engine::run_source(Job& job, const SourceSpec& source) {
  if (source.handle) co_return source.handle;  // cached in cluster memory
  GFLINK_CHECK_MSG(source.desc != nullptr, "source needs a record descriptor");
  GFLINK_CHECK_MSG(source.generate != nullptr, "source needs a generator");

  const int partitions = source.partitions > 0 ? source.partitions : default_parallelism_;
  auto out = std::make_shared<MaterializedDataSet>();
  out->desc = source.desc;
  out->parts.resize(static_cast<std::size_t>(partitions));

  const dfs::FileInfo* file = nullptr;
  if (!source.dfs_path.empty()) {
    file = dfs_.stat(source.dfs_path);
    GFLINK_CHECK_MSG(file != nullptr, "source file missing: " + source.dfs_path);
  }

  StageScope scope = co_await open_stage(job, "source", partitions);
  // Input-split locality: a partition is first scheduled on the worker
  // holding the primary replica of its first block; a retry starts from
  // the partition's owner.
  std::vector<int> placement, home;
  for (int p = 0; p < partitions; ++p) {
    home.push_back(owner_of_partition(p));
    const bool has_block = file != nullptr && static_cast<std::size_t>(p) < file->blocks.size();
    placement.push_back(has_block ? file->blocks[static_cast<std::size_t>(p)].replicas.front()
                                  : home.back());
  }
  const TaskBody body = [&](int index, int worker, obs::SpanId task_span) {
    return source_task(job, source, file, index, worker, task_span, *out);
  };
  co_await run_waves(job, scope, std::move(placement), home, nullptr, body);
  close_stage(job, scope, out->total_records());
  co_return out;
}

sim::Co<void> Engine::source_task(Job& job, const SourceSpec& source, const dfs::FileInfo* file,
                                  int part_index, int worker, obs::SpanId task_span,
                                  MaterializedDataSet& out) {
  // Read this partition's share of blocks (round-robin).
  if (file != nullptr) {
    for (std::size_t b = static_cast<std::size_t>(part_index); b < file->blocks.size();
         b += out.parts.size()) {
      co_await dfs_.read_block(worker, file->blocks[b], {task_span, obs::SpanCategory::Control});
      job.stats().io_bytes_read += file->blocks[b].bytes;
    }
  }
  auto batch = std::make_shared<mem::RecordBatch>(source.desc);
  source.generate(part_index, *batch);
  const auto n = static_cast<sim::Duration>(batch->count());
  co_await work_delay(worker, n * cluster_.node(worker).record_time(source.parse_cost.flops,
                                                                    source.parse_cost.bytes));
  out.parts[static_cast<std::size_t>(part_index)] = {worker, std::move(batch)};
}

sim::Co<void> Engine::stage_task(Job& job, const Stage& stage, int part_index, int worker,
                                 obs::SpanId task_span,
                                 const std::shared_ptr<mem::RecordBatch>& in,
                                 MaterializedDataSet& out, shuffle::ShuffleSession* exchange,
                                 StageStat& stat, bool* consumed, PartSize* size) {
  stat.records_in += in ? in->count() : 0;
  const net::Node& node = cluster_.node(worker);
  const std::vector<const OpNode*>& ops = stage.record_ops;
  const OpNode* terminal = stage.terminal;

  if (size != nullptr) {
    // A size-only action reads nothing but the count: the ops' output goes
    // nowhere, so no batch is built.
    Emitter sink([](void*, const std::byte*) {}, nullptr);
    co_await work_delay(worker, run_record_ops(ops, node, *in, sink));
    *size = {worker, sink.emitted(), sink.emitted() * stage.out_desc->stride()};
  } else if (terminal == nullptr || terminal->kind == OpKind::MapPartition ||
             terminal->kind == OpKind::AsyncPartition) {
    // The record ops' output is the stage's output or the terminal's input.
    std::shared_ptr<mem::RecordBatch> batch = in;
    if (!ops.empty()) {
      batch = std::make_shared<mem::RecordBatch>(ops.back()->out_desc);
      Emitter sink(*batch);
      co_await work_delay(worker, run_record_ops(ops, node, *in, sink));
    }
    if (terminal == nullptr) {
      out.parts[static_cast<std::size_t>(part_index)] = {worker, std::move(batch)};
    } else if (terminal->kind == OpKind::MapPartition) {
      auto result = std::make_shared<mem::RecordBatch>(terminal->out_desc);
      terminal->partition_fn(*batch, *result);
      co_await work_delay(worker, static_cast<sim::Duration>(batch->count()) *
                                      node.record_time(terminal->cost.flops,
                                                       terminal->cost.bytes));
      out.parts[static_cast<std::size_t>(part_index)] = {worker, std::move(result)};
    } else {
      auto result = std::make_shared<mem::RecordBatch>(terminal->out_desc);
      // The task owns a batch its record ops built, and the stage's input
      // partition if the stage owns that. From here on the function may
      // write over its input.
      const bool owns_batch = !ops.empty() || consumed != nullptr;
      if (ops.empty() && consumed != nullptr) *consumed = true;
      TaskContext ctx(*this, job, worker, part_index, task_span, owns_batch);
      co_await terminal->async_fn(ctx, *batch, *result);
      out.parts[static_cast<std::size_t>(part_index)] = {worker, std::move(result)};
    }
  } else {
    // Shuffle terminals: the record ops stream straight into the bucketing
    // pass, which does ReduceByKey's map-side combine. GroupReduce ships raw
    // records (its function need not be associative); Rebalance deals them
    // round-robin.
    const OpKind kind = terminal->kind;
    const int out_partitions = exchange->out_partitions();
    const mem::StructDesc& record_desc = ops.empty() ? in->desc() : *ops.back()->out_desc;
    shuffle::Bucketer bucketer(out_partitions, &record_desc,
                               kind == OpKind::Rebalance ? nullptr : &terminal->key_fn,
                               kind == OpKind::ReduceByKey ? &terminal->combine_fn : nullptr);
    Emitter sink(
        [](void* b, const std::byte* record) { static_cast<shuffle::Bucketer*>(b)->add(record); },
        &bucketer);
    const sim::Duration ops_time = run_record_ops(ops, node, *in, sink);
    const auto n = static_cast<sim::Duration>(sink.emitted());
    std::vector<mem::RecordBatch> buckets = bucketer.take();
    // Failure points: nothing has been sent through the exchange yet, so a
    // retry of this task is idempotent.
    if (!ops.empty()) co_await work_delay(worker, ops_time);
    if (kind == OpKind::Rebalance) {
      co_await sim_.delay(n * node.record_time(2.0, static_cast<double>(record_desc.stride())));
      for (int t = 0; t < out_partitions; ++t) {
        auto& bucket = buckets[static_cast<std::size_t>(t)];
        if (!bucket.empty()) exchange->deposit_local(t, std::move(bucket));
      }
      // Rebalance transfers are charged in the merge step (receiver side
      // cannot know sizes until all tasks deposited).
    } else {
      // GroupReduce: key extraction + serialization-free bucketing per record.
      const double bytes = kind == OpKind::ReduceByKey ? terminal->cost.bytes
                                                       : static_cast<double>(record_desc.stride());
      co_await work_delay(worker, n * node.record_time(terminal->cost.flops, bytes));
      co_await exchange->send(worker, std::move(buckets));
    }
  }
}

sim::Co<void> Engine::scatter_partition(const MaterializedDataSet::Part& part, const KeyFn& key,
                                        shuffle::ShuffleSession& session,
                                        obs::SpanId stage_span) {
  const obs::SpanId task_span = open_task("task:scatter", stage_span, part.worker);
  Worker& w = *co_await acquire_slot(part.worker, task_span);
  std::vector<mem::RecordBatch> buckets =
      session.partition(*part.batch, &part.batch->desc(), key, nullptr);
  // Cost: key extraction + serialization-free bucketing per record.
  co_await sim_.delay(static_cast<sim::Duration>(part.batch->count()) *
                      cluster_.node(part.worker).record_time(
                          16.0, static_cast<double>(part.batch->desc().stride())));
  co_await session.send(part.worker, std::move(buckets));
  w.slots().release();
  cluster_.spans().close(task_span, now());
}

sim::Co<DataHandle> Engine::run_stage(Job& job, const Stage& stage, DataHandle input,
                                      std::vector<PartSize>* sizes) {
  if (stage.record_ops.empty() && stage.terminal == nullptr) co_return input;
  // Only a stage of record ops streams; a terminal builds its own output.
  if (stage.terminal != nullptr) sizes = nullptr;

  const OpNode* terminal = stage.terminal;
  const bool shuffles =
      terminal != nullptr &&
      (terminal->kind == OpKind::ReduceByKey || terminal->kind == OpKind::GroupReduce ||
       terminal->kind == OpKind::Rebalance);

  // The stage owns its input when it holds the only reference to it (see
  // run_plan). Its tasks may then consume their partitions, and a consumed
  // partition can never be re-run.
  const bool owns_input = input.use_count() == 1;
  auto consumed = std::make_unique<bool[]>(input->parts.size());

  const int partitions = static_cast<int>(input->parts.size());
  auto out = std::make_shared<MaterializedDataSet>();
  out->desc = stage.out_desc != nullptr ? stage.out_desc : input->desc;
  if (sizes != nullptr) {
    sizes->assign(static_cast<std::size_t>(partitions), {});
  } else {
    out->parts.resize(static_cast<std::size_t>(partitions));
  }

  std::string name = terminal != nullptr ? terminal->name
                     : stage.record_ops.empty() ? "identity"
                                                : stage.record_ops.back()->name;
  std::unique_ptr<shuffle::ShuffleSession> exchange;
  const std::function<void(obs::SpanId)> open_exchange = [&](obs::SpanId stage_span) {
    if (shuffles) {
      exchange =
          std::make_unique<shuffle::ShuffleSession>(shuffle_, partitions, "shuffle", stage_span);
    }
  };
  StageScope scope = co_await open_stage(job, std::move(name), partitions, open_exchange);

  std::vector<int> placement;
  for (const auto& part : input->parts) placement.push_back(part.worker);
  const TaskBody body = [&](int index, int worker, obs::SpanId task_span) {
    const auto p = static_cast<std::size_t>(index);
    return stage_task(job, stage, index, worker, task_span, input->parts[p].batch, *out,
                      exchange.get(), scope.stat, owns_input ? &consumed[p] : nullptr,
                      sizes != nullptr ? &(*sizes)[p] : nullptr);
  };
  co_await run_waves(job, scope, placement, placement, consumed.get(), body);

  if (shuffles) {
    // Drain in-flight pipelined sends before any receiver starts merging,
    // then account the stage's network traffic in one place (the session).
    co_await exchange->finish();
    scope.stat.shuffle_bytes = exchange->network_bytes();
    // Merge deposited buckets on their target workers.
    const ReceiveFn merge = [terminal](const net::Node& node,
                                       const std::vector<std::vector<mem::RecordBatch>>& deposits,
                                       mem::RecordBatch& merged) {
      return merge_deposits(*terminal, node, deposits.front(), merged);
    };
    std::vector<shuffle::ShuffleSession*> from{exchange.get()};
    co_await run_receivers(scope.span, "task:merge", std::move(from), *out, merge);
  }

  std::uint64_t records_out = out->total_records();
  if (sizes != nullptr) {
    for (const PartSize& part : *sizes) records_out += part.records;
    out.reset();
  }
  close_stage(job, scope, records_out);
  co_return out;
}

// ---- Actions ----------------------------------------------------------------

sim::Co<DataHandle> Engine::materialize(Job& job, PlanNodePtr sink) {
  co_return co_await run_plan(job, sink);
}

sim::Co<std::shared_ptr<mem::RecordBatch>> Engine::collect(Job& job, PlanNodePtr sink) {
  DataHandle data = co_await run_plan(job, sink);
  // Gather partitions to the master through a combining tree (how Flink
  // funnels accumulator-style results): latency is bounded below by the
  // master actually receiving all bytes, and by tree depth otherwise.
  std::uint64_t total = 0, max_part = 0;
  for (const auto& part : data->parts) {
    if (!part.batch) continue;
    total += part.batch->byte_size();
    max_part = std::max<std::uint64_t>(max_part, part.batch->byte_size());
  }
  if (total > 0 && !config_.cluster.colocated_master) {
    const net::NicSpec& nic = config_.cluster.worker.nic;
    const int rounds = tree_rounds(num_workers());
    const sim::Duration tree_time =
        static_cast<sim::Duration>(rounds) *
        (nic.latency * 2 + sim::transfer_time(max_part, nic.bandwidth));
    const sim::Duration funnel_time =
        nic.latency + sim::transfer_time(total, config_.cluster.master.nic.bandwidth);
    cluster_.metrics().inc(obs::Metric::NetBytes, static_cast<double>(total));
    co_await sim_.delay(std::max(tree_time, funnel_time));
  }
  auto merged = std::make_shared<mem::RecordBatch>(data->desc);
  merged->reserve(data->total_records());
  for (const auto& part : data->parts) {
    if (part.batch) merged->append(*part.batch);
  }
  co_return merged;
}

sim::Co<std::uint64_t> Engine::count(Job& job, PlanNodePtr sink) {
  std::vector<PartSize> sizes;
  co_await run_plan(job, sink, &sizes);
  // Count is metadata-only: one message per worker that owns partitions.
  std::vector<bool> seen(static_cast<std::size_t>(num_workers()) + 1, false);
  std::uint64_t records = 0;
  for (const PartSize& part : sizes) {
    records += part.records;
    if (!seen[static_cast<std::size_t>(part.worker)]) {
      seen[static_cast<std::size_t>(part.worker)] = true;
      co_await cluster_.message(part.worker, 0);
    }
  }
  co_return records;
}

sim::Co<void> Engine::write_dfs(Job& job, PlanNodePtr sink, const std::string& path) {
  std::vector<PartSize> sizes;
  co_await run_plan(job, sink, &sizes);
  sim::WaitGroup wg(sim_);
  for (const PartSize& part : sizes) {
    if (part.records == 0) continue;
    wg.add();
    job.stats().io_bytes_written += part.bytes;
    sim_.spawn([](Engine& eng, int worker, std::uint64_t bytes, std::string file,
                  obs::SpanId job_span, sim::WaitGroup& join) -> sim::Co<void> {
      co_await eng.dfs().write(worker, file + ".part" + std::to_string(worker), bytes,
                               {job_span, obs::SpanCategory::Control});
      join.done();
    }(*this, part.worker, part.bytes, path, job.span(), wg));
  }
  co_await wg.wait();
}

// ---- Handle-level operations -------------------------------------------------

sim::Co<void> Engine::checkpoint(Job& job, const std::string& name, std::uint64_t bytes) {
  // Keyed by job id, not just name: concurrent jobs running the same
  // program (multi-tenant service) must not clobber each other's snapshots.
  co_await dfs_.write(0, "/checkpoints/" + job.stats().name + "-" +
                             std::to_string(job.id()) + "/" + name, bytes);
  job.stats().io_bytes_written += bytes;
  cluster_.metrics().inc(obs::Metric::FaultCheckpoints);
}

sim::Co<DataHandle> Engine::co_group(Job& job, const DataHandle& left,
                                     const DataHandle& right, KeyFn left_key, KeyFn right_key,
                                     CoGroupFn group_fn, const mem::StructDesc* out_desc,
                                     OpCost cost, int partitions, const std::string& name) {
  GFLINK_CHECK(job.submitted());
  const int nparts = partitions > 0 ? partitions : default_parallelism_;
  StageScope scope =
      co_await open_stage(job, name, static_cast<int>(left->parts.size() + right->parts.size()));

  // Phase 1: co-partition both sides by key hash.
  shuffle::ShuffleSession lex(shuffle_, nparts, "cogroup-shuffle", scope.span);
  shuffle::ShuffleSession rex(shuffle_, nparts, "cogroup-shuffle", scope.span);
  sim::WaitGroup wg(sim_);
  auto scatter = [&](const DataHandle& side, const KeyFn& key, shuffle::ShuffleSession& ex) {
    for (const auto& part : side->parts) {
      if (!part.batch) continue;
      wg.add();
      sim_.spawn([](Engine& eng, const MaterializedDataSet::Part& p, const KeyFn& kf,
                    shuffle::ShuffleSession& e, obs::SpanId st_span,
                    sim::WaitGroup& join) -> sim::Co<void> {
        co_await eng.scatter_partition(p, kf, e, st_span);
        join.done();
      }(*this, part, key, ex, scope.span, wg));
    }
  };
  scatter(left, left_key, lex);
  scatter(right, right_key, rex);
  co_await wg.wait();
  co_await lex.finish();
  co_await rex.finish();
  scope.stat.shuffle_bytes = lex.network_bytes() + rex.network_bytes();

  // Phase 2: per-partition grouping, then one group_fn call per key.
  auto out = std::make_shared<MaterializedDataSet>();
  out->desc = out_desc;
  out->parts.resize(static_cast<std::size_t>(nparts));
  const ReceiveFn group = [&](const net::Node& node,
                              const std::vector<std::vector<mem::RecordBatch>>& deposits,
                              mem::RecordBatch& grouped) {
    std::map<std::uint64_t,
             std::pair<std::vector<const std::byte*>, std::vector<const std::byte*>>>
        groups;
    std::uint64_t n = 0;
    for (const auto& b : deposits[0]) {
      for (std::size_t i = 0; i < b.count(); ++i) {
        groups[left_key(b.record_ptr(i))].first.push_back(b.record_ptr(i));
      }
      n += b.count();
    }
    for (const auto& b : deposits[1]) {
      for (std::size_t i = 0; i < b.count(); ++i) {
        groups[right_key(b.record_ptr(i))].second.push_back(b.record_ptr(i));
      }
      n += b.count();
    }
    Emitter emitter(grouped);
    for (const auto& [key, group] : groups) group_fn(group.first, group.second, emitter);
    return static_cast<sim::Duration>(n + emitter.emitted()) *
           node.record_time(cost.flops, cost.bytes);
  };
  std::vector<shuffle::ShuffleSession*> from{&lex, &rex};
  co_await run_receivers(scope.span, "task:cogroup", std::move(from), *out, group);

  close_stage(job, scope, out->total_records());
  co_return out;
}

DataHandle Engine::union_of(const DataHandle& a, const DataHandle& b) const {
  GFLINK_CHECK_MSG(a->desc == b->desc, "union of different record types");
  auto out = std::make_shared<MaterializedDataSet>();
  out->desc = a->desc;
  out->parts = a->parts;
  out->parts.insert(out->parts.end(), b->parts.begin(), b->parts.end());
  return out;
}

sim::Co<void> Engine::tree_collective(std::uint64_t bytes) {
  // Flink distributes broadcast variables worker-to-worker (a binomial
  // tree), not through the master's single NIC: each round every holder
  // forwards to one new node, so latency is ceil(log2(W+1)) transfer times.
  // A gather is the mirror: a binomial combining tree toward the master.
  if (config_.cluster.colocated_master) co_return;
  const net::NicSpec& nic = config_.cluster.worker.nic;
  const int rounds = tree_rounds(num_workers());
  const sim::Duration per_round = nic.latency * 2 + sim::transfer_time(bytes, nic.bandwidth);
  cluster_.metrics().inc(obs::Metric::NetBytes,
                         static_cast<double>(bytes) * static_cast<double>(num_workers()));
  co_await sim_.delay(static_cast<sim::Duration>(rounds) * per_round);
}

}  // namespace gflink::dataflow
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
