// Tests for the fault-tolerance layer: worker-failure injection, heartbeat
// detection latency, task retry on healthy nodes, and end-to-end recovery
// of iterative workloads — the Flink reliability properties the paper
// names as the reason for building GFlink on Flink (§1.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "dataflow/dataset.hpp"
#include "dataflow/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/wordcount.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace df = gflink::dataflow;
namespace wl = gflink::workloads;
using df::DataSet;
using df::Engine;
using df::Job;
using df::OpCost;
using sim::Co;

namespace {

struct KV {
  std::uint64_t key;
  std::int64_t value;
};

const mem::StructDesc& kv_desc() {
  static const mem::StructDesc d = mem::StructDescBuilder("KV", 8)
                                       .field("key", mem::FieldType::U64, 1, offsetof(KV, key))
                                       .field("value", mem::FieldType::I64, 1, offsetof(KV, value))
                                       .build();
  return d;
}

df::EngineConfig fault_config(int workers = 4) {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = workers;
  cfg.dfs.replication = 2;
  cfg.job_submit_overhead = 0;
  cfg.job_schedule_overhead = 0;
  cfg.stage_schedule_overhead = 0;
  cfg.task_deploy_overhead = 0;
  cfg.failure_detection_delay = sim::millis(5);
  // Per-record cost high enough that tasks are mid-flight when we kill
  // their worker.
  cfg.cluster.worker.cpu.record_overhead = 1000;
  return cfg;
}

DataSet<KV> iota(Engine& e, int partitions, std::uint64_t n) {
  return DataSet<KV>::from_generator(
      e, &kv_desc(), partitions, [n, partitions](int part, std::vector<KV>& out) {
        for (std::uint64_t i = static_cast<std::uint64_t>(part); i < n;
             i += static_cast<std::uint64_t>(partitions)) {
          out.push_back(KV{i % 10, static_cast<std::int64_t>(i)});
        }
      });
}

/// Sum all values through map+reduce; returns (sum, makespan).
std::pair<std::int64_t, sim::Time> run_sum_job(Engine& e) {
  std::int64_t sum = 0;
  e.run([&sum](Engine& eng) -> Co<void> {
    Job job(eng, "fault");
    co_await job.submit();
    auto ds = iota(eng, 8, 20000)
                  .map<KV>(&kv_desc(), "work", OpCost{400.0, 16.0},
                           [](const KV& kv) { return kv; })
                  .reduce("sum", OpCost{1.0, 16.0},
                          [](KV& acc, const KV& kv) { acc.value += kv.value; });
    auto rows = co_await ds.collect(job);
    job.finish();
    sum = rows.empty() ? 0 : rows[0].value;
  });
  return {sum, e.now()};
}

constexpr std::int64_t kExpectedSum = 20000LL * 19999 / 2;

}  // namespace

TEST(Fault, NoFailureBaseline) {
  Engine e(fault_config());
  auto [sum, t] = run_sum_job(e);
  EXPECT_EQ(sum, kExpectedSum);
  EXPECT_EQ(e.tasks_failed(), 0u);
  EXPECT_EQ(e.tasks_retried(), 0u);
}

TEST(Fault, WorkerAliveBookkeeping) {
  Engine e(fault_config(3));
  EXPECT_EQ(e.alive_workers(), 3);
  e.schedule_worker_failure(2, sim::millis(1));
  e.sim().run_until(sim::millis(2));
  EXPECT_FALSE(e.worker_alive(2));
  EXPECT_TRUE(e.worker_alive(1));
  EXPECT_EQ(e.alive_workers(), 2);
}

TEST(Fault, WorkerRejoinsAfterDowntime) {
  Engine e(fault_config(3));
  e.schedule_worker_failure(2, sim::millis(1), sim::millis(10));
  e.sim().run_until(sim::millis(2));
  EXPECT_FALSE(e.worker_alive(2));
  e.sim().run_until(sim::millis(20));
  EXPECT_TRUE(e.worker_alive(2));
}

TEST(Fault, MidStageFailureIsRetriedAndResultExact) {
  Engine healthy(fault_config());
  auto [sum_ok, t_ok] = run_sum_job(healthy);

  Engine e(fault_config());
  // Kill worker 2 while the map stage is in flight.
  e.schedule_worker_failure(2, sim::millis(2));
  auto [sum, t] = run_sum_job(e);
  EXPECT_EQ(sum, sum_ok);           // recovery is exact
  EXPECT_GT(e.tasks_failed(), 0u);  // something actually failed
  EXPECT_EQ(e.tasks_retried(), e.tasks_failed());
  EXPECT_GT(t, t_ok);               // and recovery cost time
}

TEST(Fault, FailureBeforeStageRoutesAroundDeadWorker) {
  Engine e(fault_config());
  e.schedule_worker_failure(3, 0);  // dead from the start
  auto [sum, t] = run_sum_job(e);
  EXPECT_EQ(sum, kExpectedSum);
  // Partitions assigned to worker 3 failed instantly and were retried.
  EXPECT_GT(e.tasks_retried(), 0u);
}

TEST(Fault, MultipleFailuresStillRecover) {
  Engine e(fault_config(5));
  e.schedule_worker_failure(1, sim::millis(1));
  e.schedule_worker_failure(4, sim::millis(3));
  auto [sum, t] = run_sum_job(e);
  EXPECT_EQ(sum, kExpectedSum);
  EXPECT_GE(e.tasks_retried(), 2u);
}

TEST(Fault, DetectionDelayIsCharged) {
  auto run_with_delay = [](sim::Duration detect) {
    auto cfg = fault_config();
    cfg.failure_detection_delay = detect;
    Engine e(cfg);
    e.schedule_worker_failure(2, sim::millis(2));
    return run_sum_job(e).second;
  };
  // A slower failure detector must lengthen recovery by about the delta.
  auto fast = run_with_delay(sim::millis(1));
  auto slow = run_with_delay(sim::millis(200));
  EXPECT_GT(slow, fast + sim::millis(150));
}

TEST(Fault, ShuffleStageRetriesAreIdempotent) {
  // Kill a worker during the reduce stage: retried tasks must not deposit
  // duplicate shuffle buckets (the sum would be wrong if they did).
  Engine healthy(fault_config());
  auto [sum_ok, t_ok] = run_sum_job(healthy);
  for (sim::Time kill_at = sim::millis(1); kill_at <= sim::millis(40);
       kill_at += sim::millis(7)) {
    Engine e(fault_config());
    e.schedule_worker_failure(1, kill_at);
    auto [sum, t] = run_sum_job(e);
    EXPECT_EQ(sum, sum_ok) << "kill at " << sim::format_duration(kill_at);
  }
}

TEST(Fault, DfsBackedSourceSurvivesFailure) {
  auto cfg = fault_config();
  cfg.dfs.block_size = 16384;
  Engine e(cfg);
  e.dfs().create_file("/in", 8 * 16384);
  e.schedule_worker_failure(2, sim::micros(100));
  std::uint64_t count = 0;
  e.run([&count](Engine& eng) -> Co<void> {
    Job job(eng, "src");
    co_await job.submit();
    auto ds = DataSet<KV>::from_generator(
        eng, &kv_desc(), 8,
        [](int part, std::vector<KV>& out) {
          for (int i = 0; i < 50; ++i) out.push_back(KV{static_cast<std::uint64_t>(part), i});
        },
        df::OpCost{5000.0, 16.0}, "/in");
    count = co_await ds.count(job);
    job.finish();
  });
  EXPECT_EQ(count, 400u);
}

namespace {

/// Where each `name` task ran, in the order the tasks were deployed: its
/// node's tasks lane, marked " lost" when its worker died under it.
std::vector<std::string> task_placements(Engine& e, const std::string& name) {
  const gflink::obs::SpanStore& store = e.cluster().spans();
  std::vector<std::string> placements;
  for (const gflink::obs::CausalSpan span : store.spans()) {  // id order: deploy order
    if (store.str(span.name) != name) continue;
    std::string where = store.str(span.lane);
    for (const auto& note : store.notes(span.id)) {
      if (store.str(note.key) == "failed") where += " lost";
    }
    placements.push_back(where);
  }
  return placements;
}

/// fault_config() with spans retained, so task placements can be read back.
df::EngineConfig traced_fault_config() {
  auto cfg = fault_config();
  cfg.dfs.block_size = 16384;
  cfg.trace = true;
  return cfg;
}

/// The input file of DfsBackedSourceSurvivesFailure, placed one worker off:
/// a one-block file created first puts block p's primary replica on worker
/// 1 + (p + 1) % 4, while partition p's owner is worker 1 + p % 4.
void place_shifted_input(Engine& e) {
  e.dfs().create_file("/shift", 16384);
  e.dfs().create_file("/in", 8 * 16384);
}

/// The source of DfsBackedSourceSurvivesFailure over that file.
DataSet<KV> shifted_source(Engine& e, int records_per_part) {
  return DataSet<KV>::from_generator(
      e, &kv_desc(), 8,
      [records_per_part](int part, std::vector<KV>& out) {
        for (int i = 0; i < records_per_part; ++i) {
          out.push_back(KV{static_cast<std::uint64_t>(part), i});
        }
      },
      df::OpCost{5000.0, 16.0}, "/in");
}

}  // namespace

TEST(Fault, SourceRetryRunsOnFirstAliveWorkerFromPartitionOwner) {
  // Each source partition first runs where its block's primary lives; a
  // partition lost with worker 2 reruns on the first alive worker counting
  // from its owner.
  Engine e(traced_fault_config());
  place_shifted_input(e);
  e.schedule_worker_failure(2, sim::micros(100));
  std::uint64_t count = 0;
  const sim::Time end = e.run([&count](Engine& eng) -> Co<void> {
    Job job(eng, "src");
    co_await job.submit();
    count = co_await shifted_source(eng, 50).count(job);
    job.finish();
  });
  EXPECT_EQ(count, 400u);
  EXPECT_EQ(e.tasks_retried(), 2u);
  // Partitions 0 and 4 start on worker 2 and retry on worker 1, their owner.
  const std::vector<std::string> placements = {
      "node2/tasks lost", "node3/tasks", "node4/tasks", "node1/tasks", "node2/tasks lost",
      "node3/tasks",      "node4/tasks", "node1/tasks", "node1/tasks", "node1/tasks"};
  EXPECT_EQ(task_placements(e, "task:source"), placements);
  EXPECT_EQ(end, 22'901'972);
}

TEST(Fault, RecordStageRetryRunsOnFirstAliveWorkerFromInputOwner) {
  // Worker 2 dies halfway through a map stage over the shifted source: each
  // of its partitions reruns on the first alive worker counting from the
  // worker that holds its input, not from the partition's owner.
  const auto run_map = [](Engine& e, std::uint64_t& count) {
    df::StageStat work;
    const sim::Time end = e.run([&count, &work](Engine& eng) -> Co<void> {
      Job job(eng, "stage");
      co_await job.submit();
      auto ds = shifted_source(eng, 2500).map<KV>(&kv_desc(), "work", OpCost{400.0, 16.0},
                                                  [](const KV& kv) { return kv; });
      count = (co_await ds.collect(job)).size();
      job.finish();
      work = job.stats().stages.back();
    });
    return std::make_pair(end, work);
  };
  std::uint64_t count = 0;
  Engine healthy(traced_fault_config());
  place_shifted_input(healthy);
  const df::StageStat work = run_map(healthy, count).second;
  Engine e(traced_fault_config());
  place_shifted_input(e);
  e.schedule_worker_failure(2, (work.begin + work.end) / 2);
  const sim::Time end = run_map(e, count).first;
  EXPECT_EQ(count, 8u * 2500);
  EXPECT_EQ(e.tasks_retried(), 2u);
  // Partitions 0 and 4 hold their input on worker 2 and retry on worker 3,
  // the next alive worker; their owner is worker 1.
  const std::vector<std::string> placements = {
      "node2/tasks lost", "node3/tasks", "node4/tasks", "node1/tasks", "node2/tasks lost",
      "node3/tasks",      "node4/tasks", "node1/tasks", "node3/tasks", "node3/tasks"};
  EXPECT_EQ(task_placements(e, "task:work"), placements);
  EXPECT_EQ(end, 27'638'494);
}

TEST(Fault, IterativeWorkloadRecoversWithSameChecksum) {
  wl::Testbed tb;
  tb.workers = 4;
  wl::kmeans::Config cfg;
  cfg.points = 80'000'000;
  cfg.iterations = 4;
  cfg.write_output = false;

  auto run_with_failure = [&](bool fail) {
    wl::Session session(tb, wl::Mode::Cpu);
    if (fail) {
      // Kill worker 2 mid-run (between iterations 1 and 2 in virtual time).
      session.engine().schedule_worker_failure(2, sim::millis(10));
    }
    const double checksum = session.run(&wl::kmeans::run, cfg).run.checksum;
    return std::pair<double, std::uint64_t>(checksum, session.engine().tasks_retried());
  };
  auto [checksum_ok, retried_ok] = run_with_failure(false);
  auto [checksum_f, retried_f] = run_with_failure(true);
  EXPECT_EQ(checksum_f, checksum_ok);
  EXPECT_GT(retried_f, 0u);
  EXPECT_EQ(retried_ok, 0u);
}

TEST(Fault, CheckpointsWriteReplicatedSnapshots) {
  wl::Testbed tb;
  tb.workers = 3;
  wl::kmeans::Config cfg;
  cfg.points = 4'000'000;
  cfg.iterations = 6;
  cfg.checkpoint_interval = 2;
  cfg.write_output = false;
  wl::Session session(tb, wl::Mode::Cpu);
  const wl::kmeans::Result r = session.run(&wl::kmeans::run, cfg);
  df::Engine& engine = session.engine();
  EXPECT_DOUBLE_EQ(engine.cluster().metrics().counter_value("fault.checkpoints"), 3.0);
  // Checkpoint paths are keyed by "<name>-<job id>" so concurrent jobs
  // running the same program cannot clobber each other's snapshots.
  const std::string ckpt = "/checkpoints/kmeans-" + std::to_string(r.run.stats.job_id);
  EXPECT_TRUE(engine.dfs().exists(ckpt + "/iter-1"));
  EXPECT_TRUE(engine.dfs().exists(ckpt + "/iter-3"));
  EXPECT_TRUE(engine.dfs().exists(ckpt + "/iter-5"));
  EXPECT_GT(r.run.stats.io_bytes_written, 0u);
}

TEST(Fault, DfsReadsRouteAroundDeadReplica) {
  auto cfg = fault_config(4);
  cfg.dfs.replication = 2;
  cfg.dfs.block_size = 4096;
  df::Engine e(cfg);
  const auto& info = e.dfs().create_file("/r", 4096);
  const int primary = info.blocks[0].replicas[0];
  const int secondary = info.blocks[0].replicas[1];
  e.schedule_worker_failure(primary, 0);
  e.sim().run_until(1);
  // A reader elsewhere must now be routed to the live secondary.
  int reader = 1;
  while (reader == primary || reader == secondary) ++reader;
  EXPECT_EQ(e.dfs().preferred_replica(reader, info.blocks[0]), secondary);
}

TEST(Fault, InjectedShuffleFaultWritesFlightDump) {
  const std::string path = ::testing::TempDir() + "shuffle_fault_flight.json";
  std::remove(path.c_str());
  Engine e(fault_config());
  e.cluster().flight().set_dump_path(path);
  e.shuffle_service().inject_transfer_faults(2);
  auto [sum, t] = run_sum_job(e);
  EXPECT_EQ(sum, kExpectedSum);  // retries absorb the injected faults

  // The first fault auto-snapshotted the rings mid-run.
  EXPECT_EQ(e.cluster().flight().dumps(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = gflink::obs::Json::parse(buf.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), "gflink.flight_dump/v1");

  // The dump names the injected fault and carries the spans surrounding it
  // — even though the run is untraced (the rings are always on).
  bool saw_fault = false;
  std::size_t ring_spans = 0;
  for (const auto& n : parsed->find("nodes")->items()) {
    ring_spans += n.find("spans")->size();
    for (const auto& ev : n.find("events")->items()) {
      if (ev.find("kind")->as_string() == "shuffle_transfer_fault") saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_GT(ring_spans, 0u);
  std::remove(path.c_str());
}

TEST(Fault, WorkerFailureLandsInFlightRing) {
  Engine e(fault_config());
  e.schedule_worker_failure(2, sim::millis(2));
  run_sum_job(e);
  // No dump path was set: nothing is written, but the fault still counts
  // and task failures are in the event rings for a later dump_now().
  EXPECT_GE(e.cluster().flight().faults(), 1u);
  EXPECT_EQ(e.cluster().flight().dumps(), 0u);
}

TEST(Fault, GpuStageRetriesAroundWorkerDownAtDeploy) {
  // Worker 2 is lost as GFlink WordCount's GPU stage starts, before any of
  // its tasks deploy. Its partitions were not consumed, so they retry on
  // the other workers and write over their inputs there.
  wl::Testbed tb;
  tb.workers = 3;
  tb.scale = 1e-3;
  wl::wordcount::Config cfg;
  cfg.text_bytes = 64ULL << 20;
  cfg.write_output = false;
  const auto gpu_stage = [](const wl::wordcount::Result& r) {
    for (const df::StageStat& stage : r.run.stats.stages) {
      if (stage.name == "gpuWordcountBlock") return stage;
    }
    ADD_FAILURE() << "no GPU stage";
    return df::StageStat{};
  };
  const auto cpu = wl::run(&wl::wordcount::run, tb, wl::Mode::Cpu, cfg);
  wl::Session healthy(tb, wl::Mode::Gpu);
  const df::StageStat ok = gpu_stage(healthy.run(&wl::wordcount::run, cfg));

  wl::Session faulty(tb, wl::Mode::Gpu);
  faulty.engine().schedule_worker_failure(2, ok.begin);
  const auto r = faulty.run(&wl::wordcount::run, cfg);
  EXPECT_EQ(r.total_words, cpu.total_words);
  EXPECT_EQ(r.distinct_words, cpu.distinct_words);
  EXPECT_GT(faulty.engine().tasks_retried(), 0u);
  // The GPU stage itself waited out the failure detector before its retry.
  const df::StageStat stage = gpu_stage(r);
  EXPECT_EQ(stage.begin, ok.begin);
  EXPECT_GE(stage.end - stage.begin,
            ok.end - ok.begin + faulty.engine().config().failure_detection_delay);
}

namespace {

/// Count a 4-partition dataset through an AsyncPartition copy whose first
/// run of partition 0 fails after it started. `held` keeps the source as a
/// materialized dataset, so the stage does not own its input.
std::uint64_t count_through_failing_copy(bool held) {
  Engine e(fault_config());
  std::uint64_t n = 0;
  e.run([held, &n](Engine& eng) -> Co<void> {
    Job job(eng, "failOnce");
    co_await job.submit();
    DataSet<KV> src = iota(eng, 4, 100);
    if (held) {
      df::DataHandle handle = co_await src.materialize(job);
      src = DataSet<KV>::from_handle(eng, handle);
    }
    auto failures = std::make_shared<int>(0);
    df::AsyncPartitionFn copy = [failures](df::TaskContext& ctx, mem::RecordBatch& in,
                                           mem::RecordBatch& out) -> Co<void> {
      if (ctx.partition() == 0 && (*failures)++ == 0) throw df::TaskFailed{ctx.worker()};
      out.append(in);
      co_return;
    };
    DataSet<KV> copied = src.async_map_partition<KV>(&kv_desc(), "copy", std::move(copy));
    n = co_await copied.count(job);
    job.finish();
  });
  return n;
}

}  // namespace

TEST(FaultDeathTest, ConsumedPartitionIsNeverRerun) {
  // A held input was not consumed: the failed partition simply reruns.
  EXPECT_EQ(count_through_failing_copy(true), 100u);
  // An owned input may have been written over once the function started,
  // so a failure after that point must not be retried.
  EXPECT_DEATH(count_through_failing_copy(false), "failed after it consumed its input");
}

// Property sweep: for any single-failure time, the job completes with the
// exact result.
class FaultInjectionSweep : public ::testing::TestWithParam<int> {};

TEST_P(FaultInjectionSweep, ExactResultUnderFailure) {
  Engine e(fault_config());
  e.schedule_worker_failure(1 + GetParam() % 4, sim::millis(GetParam()));
  auto [sum, t] = run_sum_job(e);
  EXPECT_EQ(sum, kExpectedSum);
}

INSTANTIATE_TEST_SUITE_P(KillTimes, FaultInjectionSweep, ::testing::Range(0, 12));
