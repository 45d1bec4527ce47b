// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// The dataflow engine: an in-memory, master/worker MapReduce runtime that
// stands in for Apache Flink (see DESIGN.md substitution table).
//
// Responsibilities mirrored from Flink:
//  * JobManager on the master: job submission, stage scheduling, barriers;
//  * TaskManager per worker: task slots (one per CPU core by default),
//    paged memory budget, per-record iterator execution of operator chains;
//  * hash shuffles routed through the shuffle::ShuffleService: map-side
//    combine into per-target buckets, block-granular pipelined sends with
//    per-partition credits (backpressure), spill-to-DFS over budget, and
//    retry-with-backoff on injected transfer faults (see src/shuffle);
//  * materialized in-memory datasets that persist across jobs (the
//    "in-memory computing" substrate iterative workloads rely on);
//  * DFS sources/sinks with locality-aware split assignment.
//
// The GFlink GPU layer plugs in through two extension points: the per-node
// `extension` pointer on Worker (a GpuManager) and the AsyncPartition
// operator kind (a GPU-based mapper/reducer submitting GWork).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dataflow/plan.hpp"
#include "dataflow/types.hpp"
#include "dfs/gdfs.hpp"
#include "mem/memory_manager.hpp"
#include "net/cluster.hpp"
#include "shuffle/shuffle_service.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace gflink::dataflow {

class Engine;
class Job;

struct EngineConfig {
  net::ClusterConfig cluster;
  dfs::GdfsConfig dfs;
  /// Task slots per worker; 0 means one per CPU core (Flink's default).
  int slots_per_worker = 0;
  /// Flink-style memory pages (also the GPU block size in GFlink).
  std::size_t page_size = 32 * 1024;
  std::size_t memory_pages_per_worker = 1 << 18;  // 8 GB at 32 KB pages
  /// Client -> JobManager submission (jar upload, plan translation).
  sim::Duration job_submit_overhead = sim::millis(900);
  /// JobManager plan optimization + initial resource assignment.
  sim::Duration job_schedule_overhead = sim::millis(400);
  /// Per-stage scheduling work at the JobManager.
  sim::Duration stage_schedule_overhead = sim::millis(8);
  /// Per-task deployment (serialize task descriptor, RPC to the worker).
  sim::Duration task_deploy_overhead = sim::micros(300);
  /// Time from a worker dying to the JobManager detecting it (heartbeat
  /// interval x missed-beat threshold — Flink's akka.watch defaults).
  sim::Duration failure_detection_delay = sim::millis(500);
  /// The block-exchange layer behind every hash shuffle (pipelining,
  /// credits, spill, retry) — see shuffle::ShuffleConfig.
  shuffle::ShuffleConfig shuffle;
  bool trace = false;
};

/// Thrown inside a task when its worker dies mid-execution; caught by the
/// stage runner, which retries the partition on a healthy worker.
struct TaskFailed {
  int worker = 0;
};

struct StageStat {
  std::string name;
  sim::Time begin = 0;
  sim::Time end = 0;
  int tasks = 0;
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t shuffle_bytes = 0;
};

/// Lifecycle of a job under the JobService. Jobs driven directly (the
/// single-job pattern every test/bench used before the service existed) go
/// Created -> Running -> Finished; the service adds the Queued state while
/// a submission waits for admission, and Cancelled for jobs withdrawn
/// before dispatch.
enum class JobState : std::uint8_t { Created, Queued, Running, Finished, Cancelled };

struct JobStats {
  std::string name;
  /// Cluster-unique id (mirrors Job::id()) — keys everything per-job:
  /// GPU cache regions, trace ids, checkpoint paths.
  std::uint64_t job_id = 0;
  /// Owning tenant ("" = default); set through Job::set_tenant().
  std::string tenant;
  JobState state = JobState::Created;
  sim::Time submitted_at = 0;
  sim::Time running_at = 0;   // submission + scheduling done
  sim::Time finished_at = 0;  // set by Job::finish()
  std::vector<StageStat> stages;
  std::uint64_t io_bytes_read = 0;
  std::uint64_t io_bytes_written = 0;
  std::uint64_t shuffle_bytes = 0;
  // Per-job fault accounting (the engine-wide totals sum these across
  // concurrent jobs; a job must not observe its neighbors' failures).
  std::uint64_t tasks_failed = 0;
  std::uint64_t tasks_retried = 0;

  /// End-to-end latency. Well-defined for every state: 0 until the job
  /// actually finished (a queued or cancelled job has no total, and must
  /// not underflow into a huge unsigned duration downstream).
  sim::Duration total() const {
    return state == JobState::Finished ? finished_at - submitted_at : 0;
  }
};

/// Per-worker runtime state (the TaskManager).
class Worker {
 public:
  Worker(sim::Simulation& sim, int node_id, int slots, std::size_t page_size,
         std::size_t pages)
      : node_id_(node_id), slots_(sim, slots), memory_(sim, page_size, pages) {}

  int node_id() const { return node_id_; }
  sim::Semaphore& slots() { return slots_; }
  mem::MemoryManager& memory() { return memory_; }

  /// Opaque extension installed by the GFlink layer (core::GpuManager).
  void* extension() const { return extension_; }
  void set_extension(void* ext) { extension_ = ext; }

  /// This worker's task and slot-wait lanes, interned into `spans` on first use.
  obs::StrId tasks_lane(obs::SpanStore& spans);
  obs::StrId slots_lane(obs::SpanStore& spans);

 private:
  int node_id_;
  sim::Semaphore slots_;
  mem::MemoryManager memory_;
  void* extension_ = nullptr;
  obs::StrId tasks_lane_;
  obs::StrId slots_lane_;
};

/// What a running task sees: its worker, the engine services, and the
/// GFlink extension point.
class TaskContext {
 public:
  TaskContext(Engine& engine, Job& job, int worker_node, int partition_index,
              obs::SpanId span = 0, bool owns_input = false)
      : engine_(&engine), job_(&job), worker_node_(worker_node),
        partition_index_(partition_index), span_(span), owns_input_(owns_input) {}

  Engine& engine() { return *engine_; }
  Job& job() { return *job_; }
  int worker() const { return worker_node_; }
  /// Index of the partition this task processes — stable across iterations,
  /// which is what GPU cache keys are derived from.
  int partition() const { return partition_index_; }
  /// The task's causal span — the parent for GPU-side GWork spans.
  obs::SpanId span() const { return span_; }
  /// The task holds the only reference to its input batch, so it may write
  /// over it: either the batch is one its record ops just built, or the
  /// stage consumes its input (no dataset the caller keeps names it).
  bool owns_input() const { return owns_input_; }
  sim::Simulation& sim();
  net::Node& node();
  Worker& worker_state();
  void* extension();

 private:
  Engine* engine_;
  Job* job_;
  int worker_node_;
  int partition_index_;
  obs::SpanId span_;
  bool owns_input_;
};

/// A submitted job: the accounting scope for Eq. (1)'s terms. Drivers
/// typically submit one job per application and run many actions
/// (iterations) inside it, matching Flink's single-job iterative plans.
class Job {
 public:
  Job(Engine& engine, std::string name);

  /// Client -> master submission + plan scheduling. Must be awaited before
  /// any action.
  sim::Co<void> submit();

  /// Mark the job finished (records the completion time).
  void finish();

  /// Withdraw a job that never ran (JobService admission rejection or
  /// explicit cancel while queued). Illegal on a submitted job.
  void cancel();

  /// Tag the job with its owning tenant (must precede submit(): the tag
  /// flows into the root span and every GWork the job produces).
  void set_tenant(std::string tenant) { stats_.tenant = std::move(tenant); }
  const std::string& tenant() const { return stats_.tenant; }

  bool submitted() const { return submitted_; }
  JobStats& stats() { return stats_; }
  const JobStats& stats() const { return stats_; }
  Engine& engine() { return *engine_; }
  /// Cluster-unique job id (scopes GPU cache regions and trace ids).
  std::uint64_t id() const { return id_; }
  /// Root causal span of the job's trace (0 before submit()).
  obs::SpanId span() const { return span_; }

 private:
  Engine* engine_;
  JobStats stats_;
  std::uint64_t id_;
  obs::SpanId span_ = 0;
  bool submitted_ = false;
};

class Engine {
 public:
  explicit Engine(const EngineConfig& config);

  sim::Simulation& sim() { return sim_; }
  net::Cluster& cluster() { return cluster_; }
  dfs::Gdfs& dfs() { return dfs_; }
  /// The block-exchange service every shuffle in this engine runs through
  /// (also the injection point for shuffle transfer faults in tests).
  shuffle::ShuffleService& shuffle_service() { return shuffle_; }
  const EngineConfig& config() const { return config_; }
  sim::Time now() const { return sim_.now(); }

  int num_workers() const { return cluster_.num_workers(); }
  int default_parallelism() const { return default_parallelism_; }
  Worker& worker_state(int node_id);

  /// The cluster-wide labeled metrics registry (obs subsystem).
  obs::MetricsRegistry& metrics() { return cluster_.metrics(); }
  const obs::MetricsRegistry& metrics() const { return cluster_.metrics(); }

  /// Publish the engine's view of the run into `out`: the cluster registry
  /// (incl. per-pipe totals), stage/shuffle counters and task retries.
  void export_metrics(obs::MetricsRegistry& out) const;

  /// Install the GFlink extension on a worker node.
  void set_extension(int node_id, void* ext) { worker_state(node_id).set_extension(ext); }

  // ---- Fault tolerance ---------------------------------------------------

  /// Inject a worker failure at absolute virtual time `at`. A zero
  /// `down_for` means the node never rejoins; otherwise it comes back (with
  /// empty memory) after that long. Tasks executing there fail once the
  /// JobManager detects the death and are retried on healthy workers.
  void schedule_worker_failure(int worker, sim::Time at, sim::Duration down_for = 0);

  bool worker_alive(int worker) const {
    return alive_.at(static_cast<std::size_t>(worker));
  }
  int alive_workers() const;
  std::uint64_t tasks_failed() const { return tasks_failed_; }
  std::uint64_t tasks_retried() const { return tasks_retried_; }

  /// A modeled-work delay on `worker` that aborts (throws TaskFailed) if
  /// the worker dies while it elapses. All task processing time goes
  /// through this.
  sim::Co<void> work_delay(int worker, sim::Duration d);

  /// Run a driver program to completion (spawns it and drains the event
  /// loop). Returns the final virtual time.
  sim::Time run(std::function<sim::Co<void>(Engine&)> driver);

  // ---- Actions on plans -------------------------------------------------

  /// Execute the plan and leave the result distributed in cluster memory.
  sim::Co<DataHandle> materialize(Job& job, PlanNodePtr sink);

  /// Execute and gather all records to the master (driver).
  sim::Co<std::shared_ptr<mem::RecordBatch>> collect(Job& job, PlanNodePtr sink);

  /// Execute and return only the record count: one message per worker that
  /// owns an output partition. Needs sizes only, so a last stage of record
  /// ops streams into a counter and builds no batch (see run_plan).
  sim::Co<std::uint64_t> count(Job& job, PlanNodePtr sink);

  /// Execute and write the result to a DFS file (replicated): one
  /// `path.part<worker>` write per non-empty partition, of its byte size.
  /// Needs sizes only, so it streams its last stage as count() does.
  sim::Co<void> write_dfs(Job& job, PlanNodePtr sink, const std::string& path);

  // ---- Handle-level operations ------------------------------------------

  /// Group records sharing a key from both sides and hand the full groups
  /// to `group_fn` (Flink's coGroup), one call per key in key order; the
  /// function sees all left then all right records of one key. Charged
  /// (left + right + emitted) x record_time(cost). df::join is a coGroup
  /// whose function emits each key's left x right pairs.
  using CoGroupFn = std::function<void(const std::vector<const std::byte*>& left,
                                       const std::vector<const std::byte*>& right,
                                       Emitter& out)>;
  sim::Co<DataHandle> co_group(Job& job, const DataHandle& left, const DataHandle& right,
                               KeyFn left_key, KeyFn right_key, CoGroupFn group_fn,
                               const mem::StructDesc* out_desc, OpCost cost, int partitions = 0,
                               const std::string& name = "coGroup");

  /// Union of two materialized datasets with the same record type: pure
  /// metadata (partitions stay where they are; Flink's union is also free).
  DataHandle union_of(const DataHandle& a, const DataHandle& b) const;

  /// Send `bytes` from the master to every worker (broadcast variables,
  /// e.g. the KMeans centers each superstep).
  sim::Co<void> broadcast(std::uint64_t bytes) { return tree_collective(bytes); }

  /// Gather `bytes_per_worker` from every worker to the master.
  sim::Co<void> gather(std::uint64_t bytes_per_worker) { return tree_collective(bytes_per_worker); }

  /// Persist a driver-side snapshot of iterative state to the DFS
  /// (replicated) — the lightweight-checkpoint hook of Flink's fault
  /// tolerance (paper ref. [9]). Recovery is driver logic: re-read the
  /// last snapshot and resume from its iteration.
  sim::Co<void> checkpoint(Job& job, const std::string& name, std::uint64_t bytes);

 private:
  friend class TaskContext;

  /// One output partition as a size-only action sees it.
  struct PartSize {
    int worker = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
  };

  // Run the plan. With `sizes`, the caller needs only the size of each
  // output partition: run_plan fills `sizes` with the partitions present,
  // in order, and returns null. A last stage of record ops with no
  // terminal then streams into a counter and builds no batch; any other
  // last stage materializes and is measured.
  sim::Co<DataHandle> run_plan(Job& job, const PlanNodePtr& sink,
                               std::vector<PartSize>* sizes = nullptr);
  sim::Co<DataHandle> run_source(Job& job, const SourceSpec& source);
  // Run one stage. With `sizes` and a stage of record ops only, each task
  // reports its partition's size there instead of building it, and the
  // stage returns null.
  sim::Co<DataHandle> run_stage(Job& job, const Stage& stage, DataHandle input,
                                std::vector<PartSize>* sizes);

  // A stage on the JobManager: its stats and its span on master/stages.
  struct StageScope {
    StageStat stat;
    obs::SpanId span = 0;
  };
  // Open a stage of `tasks` tasks: stamp its begin and open its span, let
  // `prepare` open what must begin with the stage (a stage's exchange),
  // then charge the JobManager's per-stage scheduling work.
  sim::Co<StageScope> open_stage(Job& job, std::string name, int tasks,
                                 const std::function<void(obs::SpanId)>& prepare = nullptr);
  // Close a stage that produced `records_out` records: stamp its end, close
  // its span, and fold its stats into the job and into the registry
  // (duration histogram plus stage/record/shuffle counters).
  void close_stage(Job& job, StageScope& scope, std::uint64_t records_out);

  // The work of one deployed task: partition `index` on `worker`.
  using TaskBody = std::function<sim::Co<void>(int index, int worker, obs::SpanId task_span)>;
  // Run a stage as waves of tasks "task:<stage>", partition p first on
  // `placement[p]`, each running `body` inside the one deployed-task
  // skeleton (deployment RPC and overhead, then a slot). After a wave the
  // failure detection delay elapses once, and each partition p whose
  // worker was lost reruns on the first alive worker from `home[p]`. A
  // partition set in `consumed` (null: none) may never be re-run.
  sim::Co<void> run_waves(Job& job, const StageScope& scope, std::vector<int> placement,
                          const std::vector<int>& home, const bool* consumed,
                          const TaskBody& body);

  // What a receiver makes of one partition's deposits (one list per
  // session): it fills `out` and returns the modelled time on `node`.
  using ReceiveFn = std::function<sim::Duration(
      const net::Node& node, const std::vector<std::vector<mem::RecordBatch>>& deposits,
      mem::RecordBatch& out)>;
  // One receiver task per partition of `out`, on its owner: take a slot,
  // take the partition's deposits from each session in order, run
  // `receive` and let its time elapse. Shuffle merges and coGroup share it.
  sim::Co<void> run_receivers(obs::SpanId stage_span, obs::StrRef task_name,
                              std::vector<shuffle::ShuffleSession*> sessions,
                              MaterializedDataSet& out, const ReceiveFn& receive);

  // A source task's body: read the partition's share of the DFS file (if
  // any), generate its records and charge their parse cost.
  sim::Co<void> source_task(Job& job, const SourceSpec& source, const dfs::FileInfo* file,
                            int part_index, int worker, obs::SpanId task_span,
                            MaterializedDataSet& out);

  // A stage task's body over input batch `in`. If the stage ends in a
  // shuffle, the task's buckets are sent through `exchange`; if `size` is
  // set, it only counts its output records into it; else it writes its
  // output part directly. `consumed` is null unless the stage owns its
  // input; then the task sets it before it hands that input to an
  // AsyncPartition function, which may write over it.
  sim::Co<void> stage_task(Job& job, const Stage& stage, int part_index, int worker,
                           obs::SpanId task_span, const std::shared_ptr<mem::RecordBatch>& in,
                           MaterializedDataSet& out, shuffle::ShuffleSession* exchange,
                           StageStat& stat, bool* consumed, PartSize* size);

  // The prologue every task shares: open its span on the worker's tasks
  // lane, then (after any deployment steps) take a slot on that worker,
  // recording the wait, if any, on its slots lane.
  obs::SpanId open_task(obs::StrRef name, obs::SpanId parent, int node);
  sim::Co<Worker*> acquire_slot(int node, obs::SpanId task_span);

  // Map side of coGroup co-partitioning: bucket one partition by key hash
  // (charging the bucketing CPU) and ship the buckets through `session`.
  sim::Co<void> scatter_partition(const MaterializedDataSet::Part& part, const KeyFn& key,
                                  shuffle::ShuffleSession& session, obs::SpanId stage_span);

  int owner_of_partition(int index) const { return 1 + index % num_workers(); }

  // Broadcast and gather: a binomial tree over the workers that moves
  // `bytes` per worker.
  sim::Co<void> tree_collective(std::uint64_t bytes);

  /// A healthy worker to retry a failed partition on (round-robin from
  /// `preferred`). Aborts if the whole cluster is dead.
  int pick_alive_worker(int preferred) const;

  EngineConfig config_;
  sim::Simulation sim_;
  net::Cluster cluster_;
  dfs::Gdfs dfs_;
  shuffle::ShuffleService shuffle_;  // must follow sim_/cluster_/dfs_ (ctor order)
  std::vector<std::unique_ptr<Worker>> workers_;  // index 0 unused (master)
  /// Per-worker `engine.task_busy_ns` counter handles (index 0 unused),
  /// cached at construction so work_delay() pays one add per chunk instead
  /// of a keyed registry lookup. The per-period *delta* of this counter is
  /// telemetry's straggler signal: a node whose busy time stays high while
  /// its peers go idle is behind.
  std::vector<obs::Counter*> task_busy_ns_;
  int default_parallelism_;
  std::uint64_t next_job_id_ = 1;
  std::vector<bool> alive_;
  std::uint64_t tasks_failed_ = 0;
  std::uint64_t tasks_retried_ = 0;
  friend class Job;
};

}  // namespace gflink::dataflow
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
