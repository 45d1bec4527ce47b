// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "dataflow/engine.hpp"

#include <map>
#include <unordered_map>

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
    cluster_.metrics().inc(obs::Metric::FaultWorkerFailures);
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

void Engine::note_stage(const StageStat& stat) {
  obs::MetricsRegistry& m = cluster_.metrics();
  m.inc(obs::Metric::EngineStages);
  m.inc(obs::Metric::EngineStageTasks, static_cast<double>(stat.tasks));
  m.inc(obs::Metric::EngineRecordsIn, static_cast<double>(stat.records_in));
  m.inc(obs::Metric::EngineRecordsOut, static_cast<double>(stat.records_out));
  m.inc(obs::Metric::EngineShuffleBytes, static_cast<double>(stat.shuffle_bytes));
  m.histogram(obs::Metric::EngineStageDurationNs).add(static_cast<double>(stat.end - stat.begin));
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

sim::Co<DataHandle> Engine::run_plan(Job& job, const PlanNodePtr& sink) {
  GFLINK_CHECK_MSG(job.submitted(), "action on a job that was never submitted");
  auto chain = linearize(sink.get());
  DataHandle data = co_await run_source(job, chain.front()->source);
  auto stages = split_stages(chain);
  for (const Stage& stage : stages) {
    data = co_await run_stage(job, stage, data);
  }
  co_return data;
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

  StageStat stat;
  stat.name = "source";
  stat.begin = now();
  stat.tasks = partitions;

  const obs::SpanId stage_span = cluster_.spans().open(
      "stage:source", obs::SpanCategory::Control, job.span(), stat.begin, "master/stages", 0);

  co_await sim_.delay(config_.stage_schedule_overhead);
  std::vector<std::pair<int, int>> pending;  // (partition, assigned worker)
  for (int p = 0; p < partitions; ++p) {
    // Input-split locality: a partition is scheduled on the worker holding
    // the primary replica of its first block.
    int owner = owner_of_partition(p);
    if (file != nullptr && static_cast<std::size_t>(p) < file->blocks.size()) {
      owner = file->blocks[static_cast<std::size_t>(p)].replicas.front();
    }
    pending.emplace_back(p, owner);
  }
  while (!pending.empty()) {
    sim::WaitGroup wg(sim_);
    auto failed = std::make_shared<std::vector<int>>();
    for (auto& [part, owner] : pending) {
      wg.add();
      sim_.spawn([](Engine& eng, Job& jb, const SourceSpec& src, const dfs::FileInfo* fi,
                    MaterializedDataSet& result, int part_idx, int node, int nparts,
                    obs::SpanId st_span, std::shared_ptr<std::vector<int>> fails,
                    sim::WaitGroup& join) -> sim::Co<void> {
        obs::SpanStore& sp = eng.cluster().spans();
        const obs::SpanId task_span = eng.open_task("task:source", st_span, node);
        try {
          if (!eng.worker_alive(node)) throw TaskFailed{node};
          co_await eng.cluster().message(0, node);
          co_await eng.sim().delay(eng.config().task_deploy_overhead);
          Worker& w = *co_await eng.acquire_slot(node, task_span);
          try {
            // Read this partition's share of blocks (round-robin).
            if (fi != nullptr) {
              for (std::size_t b = static_cast<std::size_t>(part_idx); b < fi->blocks.size();
                   b += static_cast<std::size_t>(nparts)) {
                co_await eng.dfs().read_block(node, fi->blocks[b],
                                              {task_span, obs::SpanCategory::Control});
                jb.stats().io_bytes_read += fi->blocks[b].bytes;
              }
            }
            auto batch = std::make_shared<mem::RecordBatch>(src.desc);
            src.generate(part_idx, *batch);
            const auto n = static_cast<sim::Duration>(batch->count());
            co_await eng.work_delay(
                node, n * eng.cluster().node(node).record_time(src.parse_cost.flops,
                                                               src.parse_cost.bytes));
            result.parts[static_cast<std::size_t>(part_idx)] = {node, std::move(batch)};
          } catch (const TaskFailed&) {
            w.slots().release();
            throw;
          }
          w.slots().release();
          sp.close(task_span, eng.now());
        } catch (const TaskFailed&) {
          sp.annotate(task_span, "failed", "worker_lost");
          sp.close(task_span, eng.now());
          eng.cluster().flight().note_event(eng.now(), node, "task_failed",
                                            "source partition " + std::to_string(part_idx));
          ++eng.tasks_failed_;
          ++jb.stats().tasks_failed;
          fails->push_back(part_idx);
        }
        join.done();
      }(*this, job, source, file, *out, part, owner, partitions, stage_span, failed, wg));
    }
    co_await wg.wait();
    pending.clear();
    if (!failed->empty()) {
      co_await sim_.delay(config_.failure_detection_delay);
      for (int idx : *failed) {
        pending.emplace_back(idx, pick_alive_worker(owner_of_partition(idx)));
        ++tasks_retried_;
        ++job.stats().tasks_retried;
      }
    }
  }

  stat.end = now();
  stat.records_out = out->total_records();
  cluster_.spans().close(stage_span, stat.end);
  note_stage(stat);
  job.stats().stages.push_back(std::move(stat));
  co_return out;
}

sim::Co<std::shared_ptr<mem::RecordBatch>> Engine::apply_record_ops(
    const Stage& stage, int worker, std::shared_ptr<mem::RecordBatch> batch) {
  if (stage.record_ops.empty()) co_return batch;
  const net::Node& node = cluster_.node(worker);
  sim::Duration total = 0;
  std::shared_ptr<mem::RecordBatch> cur = std::move(batch);
  for (const OpNode* op : stage.record_ops) {
    auto next = std::make_shared<mem::RecordBatch>(op->out_desc);
    Emitter emitter(*next);
    const std::size_t n = cur->count();
    for (std::size_t i = 0; i < n; ++i) {
      op->record_fn(cur->record_ptr(i), emitter);
    }
    total += static_cast<sim::Duration>(n) * node.record_time(op->cost.flops, op->cost.bytes);
    cur = std::move(next);
  }
  co_await work_delay(worker, total);
  co_return cur;
}

mem::RecordBatch Engine::combine_by_key(const OpNode& reduce,
                                        std::span<const mem::RecordBatch> batches) {
  mem::RecordBatch acc(reduce.out_desc);
  std::size_t n = 0;
  for (const auto& b : batches) n += b.count();
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(n);
  for (const auto& b : batches) {
    for (std::size_t i = 0; i < b.count(); ++i) {
      const std::byte* rec = b.record_ptr(i);
      const std::uint64_t key = reduce.key_fn(rec);
      auto [it, inserted] = index.try_emplace(key, acc.count());
      if (inserted) {
        acc.append_raw(rec);
      } else {
        reduce.combine_fn(acc.record_ptr(it->second), rec);
      }
    }
  }
  return acc;
}

sim::Co<void> Engine::stage_task(Job& job, const Stage& stage, int part_index,
                                 const MaterializedDataSet::Part& in, MaterializedDataSet& out,
                                 shuffle::ShuffleSession* exchange, int out_partitions,
                                 StageStat& stat, obs::SpanId stage_span,
                                 obs::StrId task_name) {
  const int worker = in.worker;
  obs::SpanStore& sp = cluster_.spans();
  const obs::SpanId task_span = open_task(task_name, stage_span, worker);
  try {
  if (!worker_alive(worker)) throw TaskFailed{worker};
  co_await cluster_.message(0, worker);  // task deployment RPC
  co_await sim_.delay(config_.task_deploy_overhead);
  Worker& w = *co_await acquire_slot(worker, task_span);

  const std::uint64_t records_in = in.batch ? in.batch->count() : 0;
  stat.records_in += records_in;

  std::shared_ptr<mem::RecordBatch> batch;
  try {
    batch = co_await apply_record_ops(stage, worker, in.batch);
  } catch (const TaskFailed&) {
    w.slots().release();  // the physical slot is gone with the node, but
    throw;                // keep the accounting balanced for a rejoin
  }
  const net::Node& node = cluster_.node(worker);

  const OpNode* terminal = stage.terminal;
  try {
  if (terminal == nullptr) {
    out.parts[static_cast<std::size_t>(part_index)] = {worker, std::move(batch)};
  } else if (terminal->kind == OpKind::MapPartition) {
    auto result = std::make_shared<mem::RecordBatch>(terminal->out_desc);
    terminal->partition_fn(*batch, *result);
    co_await work_delay(worker, static_cast<sim::Duration>(batch->count()) *
                                    node.record_time(terminal->cost.flops,
                                                     terminal->cost.bytes));
    out.parts[static_cast<std::size_t>(part_index)] = {worker, std::move(result)};
  } else if (terminal->kind == OpKind::AsyncPartition) {
    auto result = std::make_shared<mem::RecordBatch>(terminal->out_desc);
    TaskContext ctx(*this, job, worker, part_index, task_span);
    co_await terminal->async_fn(ctx, *batch, *result);
    out.parts[static_cast<std::size_t>(part_index)] = {worker, std::move(result)};
  } else if (terminal->kind == OpKind::ReduceByKey) {
    // Map-side combine + bucketing in one pass over the input records.
    std::vector<mem::RecordBatch> buckets = exchange->partition(
        *batch, terminal->out_desc, terminal->key_fn, &terminal->combine_fn);
    // Failure point: nothing has been sent through the exchange yet, so
    // a retry of this task is idempotent.
    co_await work_delay(worker, static_cast<sim::Duration>(batch->count()) *
                                    node.record_time(terminal->cost.flops,
                                                     terminal->cost.bytes));
    co_await exchange->send(worker, std::move(buckets));
  } else if (terminal->kind == OpKind::GroupReduce) {
    // No map-side combine (the group function need not be associative):
    // ship raw records, keyed. Cost: key extraction + serialization-free
    // bucketing per record.
    co_await work_delay(worker, static_cast<sim::Duration>(batch->count()) *
                                    node.record_time(terminal->cost.flops,
                                                     static_cast<double>(
                                                         batch->desc().stride())));
    std::vector<mem::RecordBatch> buckets =
        exchange->partition(*batch, &batch->desc(), terminal->key_fn, nullptr);
    co_await exchange->send(worker, std::move(buckets));
  } else if (terminal->kind == OpKind::Rebalance) {
    co_await sim_.delay(static_cast<sim::Duration>(batch->count()) *
                        node.record_time(2.0, static_cast<double>(batch->desc().stride())));
    std::vector<mem::RecordBatch> buckets;
    buckets.reserve(static_cast<std::size_t>(out_partitions));
    for (int t = 0; t < out_partitions; ++t) buckets.emplace_back(terminal->out_desc);
    for (std::size_t i = 0; i < batch->count(); ++i) {
      buckets[i % static_cast<std::size_t>(out_partitions)].append_raw(batch->record_ptr(i));
    }
    for (int t = 0; t < out_partitions; ++t) {
      auto& bucket = buckets[static_cast<std::size_t>(t)];
      if (!bucket.empty()) exchange->deposit_local(t, std::move(bucket));
    }
    // Rebalance transfers are charged in the merge step (receiver side
    // cannot know sizes until all tasks deposited).
  } else {
    GFLINK_CHECK_MSG(false, "unexpected terminal operator");
  }
  } catch (const TaskFailed&) {
    w.slots().release();
    throw;
  }

  w.slots().release();
  sp.close(task_span, now());
  } catch (const TaskFailed&) {
    sp.annotate(task_span, "failed", "worker_lost");
    sp.close(task_span, now());
    cluster_.flight().note_event(now(), worker, "task_failed",
                                 stat.name + " partition " + std::to_string(part_index));
    throw;
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

sim::Co<DataHandle> Engine::run_stage(Job& job, const Stage& stage, DataHandle input) {
  if (stage.record_ops.empty() && stage.terminal == nullptr) co_return input;

  const OpNode* terminal = stage.terminal;
  const bool shuffles =
      terminal != nullptr &&
      (terminal->kind == OpKind::ReduceByKey || terminal->kind == OpKind::GroupReduce ||
       terminal->kind == OpKind::Rebalance);

  StageStat stat;
  stat.name = terminal != nullptr
                  ? terminal->name
                  : (stage.record_ops.empty() ? "identity" : stage.record_ops.back()->name);
  stat.begin = now();
  stat.tasks = static_cast<int>(input->parts.size());

  const obs::SpanId stage_span = cluster_.spans().open(
      "stage:" + stat.name, obs::SpanCategory::Control, job.span(), stat.begin, "master/stages",
      0);
  const obs::StrId task_name = cluster_.spans().intern("task:" + stat.name);

  const int out_partitions = static_cast<int>(input->parts.size());
  auto out = std::make_shared<MaterializedDataSet>();
  out->desc = stage.out_desc != nullptr ? stage.out_desc : input->desc;
  out->parts.resize(static_cast<std::size_t>(out_partitions));

  std::unique_ptr<shuffle::ShuffleSession> exchange;
  if (shuffles) {
    exchange = std::make_unique<shuffle::ShuffleSession>(shuffle_, out_partitions, "shuffle",
                                                         stage_span);
  }

  co_await sim_.delay(config_.stage_schedule_overhead);
  // Run a wave of tasks; workers that die mid-task surface as failed
  // partitions, which are retried on healthy nodes after the JobManager's
  // detection delay (Flink's restart-from-failure behaviour).
  std::vector<std::pair<int, MaterializedDataSet::Part>> pending;
  pending.reserve(input->parts.size());
  for (std::size_t p = 0; p < input->parts.size(); ++p) {
    pending.emplace_back(static_cast<int>(p), input->parts[p]);
  }
  while (!pending.empty()) {
    sim::WaitGroup wg(sim_);
    auto failed = std::make_shared<std::vector<int>>();
    for (auto& [index, part] : pending) {
      wg.add();
      sim_.spawn([](Engine& eng, Job& jb, const Stage& st, int idx,
                    MaterializedDataSet::Part part_in, MaterializedDataSet& result,
                    shuffle::ShuffleSession* ex, int nparts, StageStat& ss, obs::SpanId st_span,
                    obs::StrId tname, std::shared_ptr<std::vector<int>> fails,
                    sim::WaitGroup& join) -> sim::Co<void> {
        try {
          co_await eng.stage_task(jb, st, idx, part_in, result, ex, nparts, ss, st_span, tname);
        } catch (const TaskFailed&) {
          ++eng.tasks_failed_;
          ++jb.stats().tasks_failed;
          fails->push_back(idx);
        }
        join.done();
      }(*this, job, stage, index, part, *out, exchange.get(), out_partitions,
        stat, stage_span, task_name, failed, wg));
    }
    co_await wg.wait();
    pending.clear();
    if (!failed->empty()) {
      // Heartbeat timeout before the JobManager reacts, then reassignment.
      co_await sim_.delay(config_.failure_detection_delay);
      for (int idx : *failed) {
        MaterializedDataSet::Part retry = input->parts[static_cast<std::size_t>(idx)];
        retry.worker = pick_alive_worker(retry.worker);
        ++tasks_retried_;
        ++job.stats().tasks_retried;
        pending.emplace_back(idx, retry);
      }
    }
  }

  if (shuffles) {
    // Drain in-flight pipelined sends before any receiver starts merging,
    // then account the stage's network traffic in one place (the session).
    co_await exchange->finish();
    stat.shuffle_bytes = exchange->network_bytes();
    // Merge deposited buckets on their target workers.
    sim::WaitGroup merge_wg(sim_);
    for (int t = 0; t < out_partitions; ++t) {
      merge_wg.add();
      sim_.spawn([](Engine& eng, const Stage& st, shuffle::ShuffleSession& ex,
                    MaterializedDataSet& result, int t_index, obs::SpanId st_span,
                    sim::WaitGroup& join) -> sim::Co<void> {
        const int node = eng.owner_of_partition(t_index);
        obs::SpanStore& sp = eng.cluster().spans();
        const obs::SpanId task_span = eng.open_task("task:merge", st_span, node);
        Worker& w = *co_await eng.acquire_slot(node, task_span);
        const OpNode* term = st.terminal;
        // Reads spilled deposits back from the DFS before merging.
        std::vector<mem::RecordBatch> deposited =
            co_await ex.take(t_index, node, {task_span, obs::SpanCategory::Spill});
        std::uint64_t n = 0;
        for (const auto& b : deposited) n += b.count();
        auto merged = std::make_shared<mem::RecordBatch>(term->out_desc);
        if (term->kind == OpKind::GroupReduce) {
          std::map<std::uint64_t, std::vector<const std::byte*>> groups;
          std::uint64_t n_in = 0;
          for (const auto& b : deposited) {
            for (std::size_t i = 0; i < b.count(); ++i) {
              groups[term->key_fn(b.record_ptr(i))].push_back(b.record_ptr(i));
              ++n_in;
            }
          }
          Emitter emitter(*merged);
          for (const auto& [key, group] : groups) {
            term->group_fn(group, emitter);
          }
          co_await eng.sim().delay(
              static_cast<sim::Duration>(n_in + emitter.emitted()) *
              eng.cluster().node(node).record_time(term->cost.flops, term->cost.bytes));
        } else if (term->kind == OpKind::ReduceByKey) {
          *merged = Engine::combine_by_key(*term, deposited);
          // Free the deposits before the merge's modelled time elapses:
          // the other merge tasks run meanwhile.
          deposited = {};
          co_await eng.sim().delay(
              static_cast<sim::Duration>(n) *
              eng.cluster().node(node).record_time(term->cost.flops, term->cost.bytes));
        } else {  // Rebalance: concatenation plus the deferred transfers
          merged->reserve(n);
          for (const auto& b : deposited) merged->append(b);
          deposited = {};
          co_await eng.sim().delay(
              static_cast<sim::Duration>(n) *
              eng.cluster().node(node).record_time(1.0, static_cast<double>(
                                                            term->out_desc->stride())));
        }
        result.parts[static_cast<std::size_t>(t_index)] = {node, std::move(merged)};
        w.slots().release();
        sp.close(task_span, eng.now());
        join.done();
      }(*this, stage, *exchange, *out, t, stage_span, merge_wg));
    }
    co_await merge_wg.wait();
  }

  stat.end = now();
  stat.records_out = out->total_records();
  cluster_.spans().close(stage_span, stat.end);
  job.stats().shuffle_bytes += stat.shuffle_bytes;
  note_stage(stat);
  job.stats().stages.push_back(std::move(stat));
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
  DataHandle data = co_await run_plan(job, sink);
  // Count is metadata-only: one message per worker that owns partitions.
  std::vector<bool> seen(static_cast<std::size_t>(num_workers()) + 1, false);
  for (const auto& part : data->parts) {
    if (part.batch && !seen[static_cast<std::size_t>(part.worker)]) {
      seen[static_cast<std::size_t>(part.worker)] = true;
      co_await cluster_.message(part.worker, 0);
    }
  }
  co_return data->total_records();
}

sim::Co<void> Engine::write_dfs(Job& job, PlanNodePtr sink, const std::string& path) {
  DataHandle data = co_await run_plan(job, sink);
  sim::WaitGroup wg(sim_);
  for (const auto& part : data->parts) {
    if (!part.batch || part.batch->empty()) continue;
    wg.add();
    job.stats().io_bytes_written += part.batch->byte_size();
    sim_.spawn([](Engine& eng, const MaterializedDataSet::Part& p, std::string file,
                  obs::SpanId job_span, sim::WaitGroup& join) -> sim::Co<void> {
      co_await eng.dfs().write(p.worker, file + ".part" + std::to_string(p.worker),
                               p.batch->byte_size(), {job_span, obs::SpanCategory::Control});
      join.done();
    }(*this, part, path, job.span(), wg));
  }
  co_await wg.wait();
}

// ---- Handle-level operations -------------------------------------------------

sim::Co<DataHandle> Engine::join(Job& job, const DataHandle& left, const DataHandle& right,
                                 KeyFn left_key, KeyFn right_key, JoinFn join_fn,
                                 const mem::StructDesc* out_desc, OpCost cost, int partitions,
                                 const std::string& name) {
  GFLINK_CHECK(job.submitted());
  const int nparts = partitions > 0 ? partitions : default_parallelism_;

  StageStat stat;
  stat.name = name;
  stat.begin = now();
  stat.tasks = static_cast<int>(left->parts.size() + right->parts.size());

  const obs::SpanId stage_span = cluster_.spans().open(
      "stage:" + stat.name, obs::SpanCategory::Control, job.span(), stat.begin, "master/stages",
      0);

  co_await sim_.delay(config_.stage_schedule_overhead);

  // Phase 1: co-partition both inputs by key hash.
  shuffle::ShuffleSession lex(shuffle_, nparts, "join-shuffle", stage_span);
  shuffle::ShuffleSession rex(shuffle_, nparts, "join-shuffle", stage_span);
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
      }(*this, part, key, ex, stage_span, wg));
    }
  };
  scatter(left, left_key, lex);
  scatter(right, right_key, rex);
  co_await wg.wait();
  co_await lex.finish();
  co_await rex.finish();
  stat.shuffle_bytes = lex.network_bytes() + rex.network_bytes();

  // Phase 2: per-partition hash join (build on left, probe with right).
  auto out = std::make_shared<MaterializedDataSet>();
  out->desc = out_desc;
  out->parts.resize(static_cast<std::size_t>(nparts));
  sim::WaitGroup jg(sim_);
  for (int t = 0; t < nparts; ++t) {
    jg.add();
    sim_.spawn([](Engine& eng, shuffle::ShuffleSession& le, shuffle::ShuffleSession& re,
                  MaterializedDataSet& result, const KeyFn& lk, const KeyFn& rk,
                  const JoinFn& jf, OpCost c, int t_index, obs::SpanId st_span,
                  sim::WaitGroup& join) -> sim::Co<void> {
      const int node = eng.owner_of_partition(t_index);
      obs::SpanStore& sp = eng.cluster().spans();
      const obs::SpanId task_span = eng.open_task("task:join", st_span, node);
      Worker& w = *co_await eng.acquire_slot(node, task_span);
      std::vector<mem::RecordBatch> lbs =
          co_await le.take(t_index, node, {task_span, obs::SpanCategory::Spill});
      std::vector<mem::RecordBatch> rbs =
          co_await re.take(t_index, node, {task_span, obs::SpanCategory::Spill});
      std::unordered_multimap<std::uint64_t, const std::byte*> table;
      std::uint64_t nl = 0, nr = 0;
      for (const auto& b : lbs) {
        for (std::size_t i = 0; i < b.count(); ++i) {
          table.emplace(lk(b.record_ptr(i)), b.record_ptr(i));
          ++nl;
        }
      }
      auto merged = std::make_shared<mem::RecordBatch>(result.desc);
      Emitter emitter(*merged);
      for (const auto& b : rbs) {
        for (std::size_t i = 0; i < b.count(); ++i) {
          const std::byte* rec = b.record_ptr(i);
          auto [lo, hi] = table.equal_range(rk(rec));
          for (auto it = lo; it != hi; ++it) jf(it->second, rec, emitter);
          ++nr;
        }
      }
      co_await eng.sim().delay(
          static_cast<sim::Duration>(nl + nr + emitter.emitted()) *
          eng.cluster().node(node).record_time(c.flops, c.bytes));
      result.parts[static_cast<std::size_t>(t_index)] = {node, std::move(merged)};
      w.slots().release();
      sp.close(task_span, eng.now());
      join.done();
    }(*this, lex, rex, *out, left_key, right_key, join_fn, cost, t, stage_span, jg));
  }
  co_await jg.wait();

  stat.end = now();
  stat.records_out = out->total_records();
  cluster_.spans().close(stage_span, stat.end);
  job.stats().shuffle_bytes += stat.shuffle_bytes;
  note_stage(stat);
  job.stats().stages.push_back(std::move(stat));
  co_return out;
}

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

  StageStat stat;
  stat.name = name;
  stat.begin = now();
  stat.tasks = static_cast<int>(left->parts.size() + right->parts.size());

  const obs::SpanId stage_span = cluster_.spans().open(
      "stage:" + stat.name, obs::SpanCategory::Control, job.span(), stat.begin, "master/stages",
      0);

  co_await sim_.delay(config_.stage_schedule_overhead);

  // Phase 1: co-partition both sides by key hash (same as join).
  shuffle::ShuffleSession lex(shuffle_, nparts, "cogroup-shuffle", stage_span);
  shuffle::ShuffleSession rex(shuffle_, nparts, "cogroup-shuffle", stage_span);
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
      }(*this, part, key, ex, stage_span, wg));
    }
  };
  scatter(left, left_key, lex);
  scatter(right, right_key, rex);
  co_await wg.wait();
  co_await lex.finish();
  co_await rex.finish();
  stat.shuffle_bytes = lex.network_bytes() + rex.network_bytes();

  // Phase 2: per-partition grouping, then one group_fn call per key.
  auto out = std::make_shared<MaterializedDataSet>();
  out->desc = out_desc;
  out->parts.resize(static_cast<std::size_t>(nparts));
  sim::WaitGroup gg(sim_);
  for (int t = 0; t < nparts; ++t) {
    gg.add();
    sim_.spawn([](Engine& eng, shuffle::ShuffleSession& le, shuffle::ShuffleSession& re,
                  MaterializedDataSet& result, const KeyFn& lk, const KeyFn& rk,
                  const CoGroupFn& gf, OpCost c, int t_index, obs::SpanId st_span,
                  sim::WaitGroup& join) -> sim::Co<void> {
      const int node = eng.owner_of_partition(t_index);
      obs::SpanStore& sp = eng.cluster().spans();
      const obs::SpanId task_span = eng.open_task("task:cogroup", st_span, node);
      Worker& w = *co_await eng.acquire_slot(node, task_span);
      std::vector<mem::RecordBatch> lbs =
          co_await le.take(t_index, node, {task_span, obs::SpanCategory::Spill});
      std::vector<mem::RecordBatch> rbs =
          co_await re.take(t_index, node, {task_span, obs::SpanCategory::Spill});
      std::map<std::uint64_t, std::pair<std::vector<const std::byte*>,
                                        std::vector<const std::byte*>>>
          groups;
      std::uint64_t n = 0;
      for (const auto& b : lbs) {
        for (std::size_t i = 0; i < b.count(); ++i) {
          groups[lk(b.record_ptr(i))].first.push_back(b.record_ptr(i));
          ++n;
        }
      }
      for (const auto& b : rbs) {
        for (std::size_t i = 0; i < b.count(); ++i) {
          groups[rk(b.record_ptr(i))].second.push_back(b.record_ptr(i));
          ++n;
        }
      }
      auto merged = std::make_shared<mem::RecordBatch>(result.desc);
      Emitter emitter(*merged);
      for (const auto& [key, group] : groups) {
        gf(group.first, group.second, emitter);
      }
      co_await eng.sim().delay(static_cast<sim::Duration>(n + emitter.emitted()) *
                               eng.cluster().node(node).record_time(c.flops, c.bytes));
      result.parts[static_cast<std::size_t>(t_index)] = {node, std::move(merged)};
      w.slots().release();
      sp.close(task_span, eng.now());
      join.done();
    }(*this, lex, rex, *out, left_key, right_key, group_fn, cost, t, stage_span, gg));
  }
  co_await gg.wait();

  stat.end = now();
  stat.records_out = out->total_records();
  cluster_.spans().close(stage_span, stat.end);
  job.stats().shuffle_bytes += stat.shuffle_bytes;
  note_stage(stat);
  job.stats().stages.push_back(std::move(stat));
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

sim::Co<void> Engine::broadcast(Job& job, std::uint64_t bytes) {
  // Flink distributes broadcast variables worker-to-worker (a binomial
  // tree), not through the master's single NIC: each round every holder
  // forwards to one new node, so latency is ceil(log2(W+1)) transfer times.
  (void)job;
  if (config_.cluster.colocated_master) co_return;
  const net::NicSpec& nic = config_.cluster.worker.nic;
  const int rounds = tree_rounds(num_workers());
  const sim::Duration per_round = nic.latency * 2 + sim::transfer_time(bytes, nic.bandwidth);
  cluster_.metrics().inc(obs::Metric::NetBytes,
                         static_cast<double>(bytes) * static_cast<double>(num_workers()));
  co_await sim_.delay(static_cast<sim::Duration>(rounds) * per_round);
}

sim::Co<void> Engine::gather(Job& job, std::uint64_t bytes_per_worker) {
  // Mirror of broadcast: a binomial combining tree toward the master.
  (void)job;
  if (config_.cluster.colocated_master) co_return;
  const net::NicSpec& nic = config_.cluster.worker.nic;
  const int rounds = tree_rounds(num_workers());
  const sim::Duration per_round =
      nic.latency * 2 + sim::transfer_time(bytes_per_worker, nic.bandwidth);
  cluster_.metrics().inc(obs::Metric::NetBytes, static_cast<double>(bytes_per_worker) *
                                          static_cast<double>(num_workers()));
  co_await sim_.delay(static_cast<sim::Duration>(rounds) * per_round);
}

}  // namespace gflink::dataflow
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
