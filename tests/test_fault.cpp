// Tests for the fault-tolerance layer: worker-failure injection, heartbeat
// detection latency, task retry on healthy nodes, and end-to-end recovery
// of iterative workloads — the Flink reliability properties the paper
// names as the reason for building GFlink on Flink (§1.1).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "dataflow/dataset.hpp"
#include "dataflow/engine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "workloads/kmeans.hpp"

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
