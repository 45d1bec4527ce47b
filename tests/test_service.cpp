// Tests for the multi-tenant JobService: admission control (bounded queue,
// FIFO within tenant), weighted-fair deficit-round-robin dispatch,
// in-flight caps, cancellation, concurrent job-graph correctness, and the
// per-tenant SLO observability (queue-wait spans, service_* metrics,
// fairness snapshot).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "dataflow/dataset.hpp"
#include "service/job_service.hpp"

namespace sim = gflink::sim;
namespace mem = gflink::mem;
namespace df = gflink::dataflow;
namespace svc = gflink::service;
using df::DataSet;
using df::Engine;
using df::Job;
using df::OpCost;
using sim::Co;

namespace {

df::EngineConfig fast_engine_config(int workers = 2) {
  df::EngineConfig cfg;
  cfg.cluster.num_workers = workers;
  cfg.dfs.replication = std::min(2, workers);
  cfg.job_submit_overhead = 0;
  cfg.job_schedule_overhead = 0;
  return cfg;
}

/// A job body that just burns `d` of virtual time (admission/fairness tests
/// do not need a real plan).
svc::JobBody delay_body(sim::Duration d) {
  return [d](Job& job) -> Co<void> { co_await job.engine().sim().delay(d); };
}

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

}  // namespace

TEST(JobService, AdmissionQueueIsBoundedAndRejectsOverflow) {
  Engine engine(fast_engine_config());
  svc::ServiceConfig cfg;
  cfg.max_pending = 4;
  cfg.max_total_in_flight = 1;
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "a"});

  std::vector<svc::TicketPtr> tickets;
  engine.run([&](Engine&) -> Co<void> {
    for (int i = 0; i < 8; ++i) {
      tickets.push_back(service.submit("a", "j" + std::to_string(i), 1.0,
                                       delay_body(sim::millis(1))));
    }
    // One dispatched immediately, four queued, three rejected on the spot.
    EXPECT_EQ(service.pending(), 4u);
    EXPECT_EQ(service.in_flight(), 1);
    EXPECT_EQ(service.rejected(), 3u);
    co_await service.drain();
  });

  EXPECT_EQ(service.completed(), 5u);
  EXPECT_EQ(service.pending(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)]->state(), svc::TicketState::Completed);
  }
  for (int i = 5; i < 8; ++i) {
    const auto& t = tickets[static_cast<std::size_t>(i)];
    EXPECT_EQ(t->state(), svc::TicketState::Rejected);
    // A rejected job never ran: its stats are well-defined, not underflowed.
    EXPECT_EQ(t->stats().state, df::JobState::Cancelled);
    EXPECT_EQ(t->stats().total(), 0);
  }
  EXPECT_DOUBLE_EQ(
      engine.metrics().counter_value("service_rejected_total", {{"tenant", "a"}}), 3.0);
  EXPECT_DOUBLE_EQ(
      engine.metrics().counter_value("service_submitted_total", {{"tenant", "a"}}), 8.0);
}

TEST(JobService, DispatchIsFifoWithinOneTenant) {
  Engine engine(fast_engine_config());
  svc::ServiceConfig cfg;
  cfg.max_total_in_flight = 1;  // serialize so completion order == dispatch order
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "a"});

  std::vector<int> completion_order;
  engine.run([&](Engine&) -> Co<void> {
    for (int i = 0; i < 6; ++i) {
      service.submit("a", "j", 1.0, [&completion_order, i](Job& job) -> Co<void> {
        co_await job.engine().sim().delay(sim::micros(100));
        completion_order.push_back(i);
      });
    }
    co_await service.drain();
  });
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(JobService, WeightedFairSharesConvergeToWeights) {
  Engine engine(fast_engine_config());
  svc::ServiceConfig cfg;
  cfg.max_total_in_flight = 1;  // saturated: dispatch order decides shares
  cfg.drr_quantum = 1.0;
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "heavy", .weight = 2.0});
  service.add_tenant({.name = "light1", .weight = 1.0});
  service.add_tenant({.name = "light2", .weight = 1.0});

  std::vector<std::string> order;
  engine.run([&](Engine&) -> Co<void> {
    for (const char* t : {"heavy", "light1", "light2"}) {
      for (int i = 0; i < 30; ++i) {
        service.submit(t, "j", 1.0, [&order, t](Job& job) -> Co<void> {
          co_await job.engine().sim().delay(sim::micros(50));
          order.push_back(t);
        });
      }
    }
    co_await service.drain();
  });

  // Over any saturated window the achieved shares must track the 2:1:1
  // weights within 10% (the acceptance bound). Use the first 60 of 90
  // completions — the tail drains unfairly once light tenants run dry.
  std::map<std::string, double> count;
  for (std::size_t i = 0; i < 60; ++i) count[order[i]] += 1.0;
  EXPECT_NEAR(count["heavy"] / 60.0, 0.50, 0.05);
  EXPECT_NEAR(count["light1"] / 60.0, 0.25, 0.025);
  EXPECT_NEAR(count["light2"] / 60.0, 0.25, 0.025);
}

TEST(JobService, DeficitAccumulatesForExpensiveJobs) {
  // A tenant whose jobs cost 3 deficit units dispatches once per three
  // rounds against a cost-1 tenant of equal weight: byte-fair, not job-fair.
  Engine engine(fast_engine_config());
  svc::ServiceConfig cfg;
  cfg.max_total_in_flight = 1;
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "big"});
  service.add_tenant({.name = "small"});

  std::vector<std::string> order;
  engine.run([&](Engine&) -> Co<void> {
    for (int i = 0; i < 4; ++i) {
      service.submit("big", "j", 3.0, [&order](Job& job) -> Co<void> {
        co_await job.engine().sim().delay(sim::micros(10));
        order.push_back("big");
      });
    }
    for (int i = 0; i < 12; ++i) {
      service.submit("small", "j", 1.0, [&order](Job& job) -> Co<void> {
        co_await job.engine().sim().delay(sim::micros(10));
        order.push_back("small");
      });
    }
    co_await service.drain();
  });
  // In any prefix, "small" should lead "big" roughly 3:1 in job count.
  std::size_t small_count = 0, big_count = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (order[i] == "small") ++small_count;
    else ++big_count;
  }
  EXPECT_GE(small_count, 5u);
  EXPECT_LE(big_count, 3u);
}

TEST(JobService, PerTenantInFlightCapLimitsConcurrency) {
  Engine engine(fast_engine_config());
  svc::ServiceConfig cfg;  // no global cap
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "capped", .max_in_flight = 2});

  int running = 0, max_running = 0;
  engine.run([&](Engine&) -> Co<void> {
    for (int i = 0; i < 8; ++i) {
      service.submit("capped", "j", 1.0, [&](Job& job) -> Co<void> {
        ++running;
        max_running = std::max(max_running, running);
        co_await job.engine().sim().delay(sim::millis(1));
        --running;
      });
    }
    co_await service.drain();
  });
  EXPECT_EQ(service.completed(), 8u);
  EXPECT_EQ(max_running, 2);
}

TEST(JobService, CancelWithdrawsPendingJobs) {
  Engine engine(fast_engine_config());
  svc::ServiceConfig cfg;
  cfg.max_total_in_flight = 1;
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "a"});

  bool cancelled_ran = false;
  engine.run([&](Engine&) -> Co<void> {
    service.submit("a", "j0", 1.0, delay_body(sim::millis(1)));
    auto pending = service.submit("a", "j1", 1.0, [&](Job&) -> Co<void> {
      cancelled_ran = true;
      co_return;
    });
    EXPECT_EQ(pending->state(), svc::TicketState::Pending);
    EXPECT_TRUE(service.cancel(pending));
    EXPECT_EQ(pending->state(), svc::TicketState::Cancelled);
    EXPECT_EQ(pending->stats().state, df::JobState::Cancelled);
    EXPECT_EQ(pending->stats().total(), 0);
    EXPECT_FALSE(service.cancel(pending));  // idempotent: already terminal
    co_await service.drain();
  });
  EXPECT_FALSE(cancelled_ran);
  EXPECT_EQ(service.completed(), 1u);
  EXPECT_EQ(service.cancelled(), 1u);
  EXPECT_DOUBLE_EQ(
      engine.metrics().counter_value("service_cancelled_total", {{"tenant", "a"}}), 1.0);
}

TEST(JobService, ConcurrentJobGraphsProduceCorrectResults) {
  // Engine re-entrancy: multiple tenants run real plans concurrently over
  // the shared workers; every job's result must match the single-job
  // reference, and per-job stats must not bleed across jobs.
  Engine engine(fast_engine_config(3));
  svc::ServiceConfig cfg;  // unbounded concurrency
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "a", .weight = 2.0});
  service.add_tenant({.name = "b", .weight = 1.0});

  std::map<std::string, std::int64_t> sums;
  std::vector<svc::TicketPtr> tickets;
  engine.run([&](Engine&) -> Co<void> {
    for (int j = 0; j < 3; ++j) {
      for (const char* tenant : {"a", "b"}) {
        const std::int64_t mult = (tenant[0] == 'a' ? 2 : 3) + j;
        const std::string label = std::string(tenant) + std::to_string(j);
        tickets.push_back(service.submit(
            tenant, "sum-" + label, 1.0, [&, mult, label](Job& job) -> Co<void> {
              auto ds = DataSet<KV>::from_generator(
                  job.engine(), &kv_desc(), 6, [](int part, std::vector<KV>& out) {
                    for (int i = 0; i < 50; ++i) {
                      out.push_back(KV{static_cast<std::uint64_t>(part),
                                       static_cast<std::int64_t>(i)});
                    }
                  });
              auto mapped = ds.map<KV>(&kv_desc(), "scale", OpCost{2.0, 16.0},
                                       [mult](const KV& kv) {
                                         return KV{kv.key, kv.value * mult};
                                       });
              auto rows = co_await mapped.collect(job);
              std::int64_t total = 0;
              for (const auto& kv : rows) total += kv.value;
              sums[label] = total;
            }));
      }
    }
    co_await service.drain();
  });

  // Reference: 6 partitions x sum(0..49) = 6 * 1225, scaled per job.
  const std::int64_t base = 6 * 1225;
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(sums["a" + std::to_string(j)], base * (2 + j));
    EXPECT_EQ(sums["b" + std::to_string(j)], base * (3 + j));
  }
  for (const auto& t : tickets) {
    EXPECT_EQ(t->state(), svc::TicketState::Completed);
    EXPECT_EQ(t->stats().state, df::JobState::Finished);
    EXPECT_EQ(t->stats().tasks_failed, 0u);
    EXPECT_GT(t->stats().total(), 0);
  }
}

TEST(JobService, QueueWaitSpansLandOnTenantLanes) {
  auto cfg_engine = fast_engine_config();
  cfg_engine.trace = true;  // retain spans
  Engine engine(cfg_engine);
  svc::ServiceConfig cfg;
  cfg.max_total_in_flight = 1;  // force queue wait on the second job
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "a"});

  engine.run([&](Engine&) -> Co<void> {
    service.submit("a", "j0", 1.0, delay_body(sim::millis(2)));
    service.submit("a", "j1", 1.0, delay_body(sim::millis(2)));
    co_await service.drain();
  });

  bool found = false;
  const gflink::obs::SpanStore& store = engine.cluster().spans();
  for (const auto& span : store.spans()) {
    if (store.str(span.name) == "service_queue_wait" && store.str(span.lane) == "service/a") {
      found = true;
      EXPECT_EQ(span.category, gflink::obs::SpanCategory::Wait);
      EXPECT_GT(span.end, span.begin);
    }
  }
  EXPECT_TRUE(found);
  // The bucketed export carries the same signal, labeled by tenant.
  EXPECT_NE(engine.metrics().find_histogram("service_queue_wait_ns", {{"tenant", "a"}}),
            nullptr);
}

TEST(JobService, QueueWaitSpansCarryTheirJobsTraceId) {
  auto cfg_engine = fast_engine_config();
  cfg_engine.trace = true;  // retain spans
  Engine engine(cfg_engine);
  svc::ServiceConfig cfg;
  cfg.max_total_in_flight = 1;  // every job but the first waits
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "a", .weight = 2.0});
  service.add_tenant({.name = "b"});

  std::vector<svc::TicketPtr> tickets;
  engine.run([&](Engine&) -> Co<void> {
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(service.submit("a", "a", 1.0, delay_body(sim::millis(1 + i))));
      tickets.push_back(service.submit("b", "b", 1.0, delay_body(sim::millis(2))));
    }
    co_await service.drain();
  });

  std::map<std::uint64_t, svc::TicketPtr> by_job;
  sim::Duration latency = 0;
  std::size_t waited = 0;
  for (const auto& t : tickets) {
    ASSERT_EQ(t->state(), svc::TicketState::Completed);
    by_job[t->job().id()] = t;
    latency += t->completed_at - t->enqueued_at;
    waited += t->dispatched_at > t->enqueued_at ? 1 : 0;
  }
  ASSERT_GT(waited, 0u);

  const gflink::obs::SpanStore& store = engine.cluster().spans();
  std::size_t waits = 0;
  for (const auto& span : store.spans()) {
    if (store.str(span.name) != "service_queue_wait") continue;
    ++waits;
    EXPECT_EQ(span.parent, 0u);  // still a root
    const auto it = by_job.find(store.trace_id(span.id));
    ASSERT_NE(it, by_job.end()) << "queue wait " << span.id << " names no job";
    EXPECT_EQ(span.begin, it->second->enqueued_at);
    EXPECT_EQ(span.end, it->second->dispatched_at);
    by_job.erase(it);  // one wait per job
  }
  EXPECT_EQ(waits, waited);
  // Each job's latency is its queue wait plus its run, and each lands on
  // the critical path once.
  EXPECT_EQ(gflink::obs::extract_critical_path(store).total, latency);
}

TEST(JobService, FairnessSnapshotReportsSharesAndPercentiles) {
  Engine engine(fast_engine_config());
  svc::ServiceConfig cfg;
  cfg.max_total_in_flight = 1;
  svc::JobService service(engine, nullptr, cfg);
  service.add_tenant({.name = "a", .weight = 3.0});
  service.add_tenant({.name = "b", .weight = 1.0});

  engine.run([&](Engine&) -> Co<void> {
    for (int i = 0; i < 4; ++i) service.submit("a", "j", 1.0, delay_body(sim::millis(1)));
    for (int i = 0; i < 4; ++i) service.submit("b", "j", 1.0, delay_body(sim::millis(1)));
    co_await service.drain();
  });

  const auto snaps = service.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].name, "a");
  EXPECT_EQ(snaps[0].completed, 4u);
  EXPECT_GT(snaps[0].latency_ns.p50, 0.0);
  EXPECT_GE(snaps[0].latency_ns.p99, snaps[0].latency_ns.p50);

  const gflink::obs::Json j = service.fairness_json();
  ASSERT_TRUE(j.is_object());
  const auto* a = j.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->find("weight_share")->as_double(), 0.75);
  EXPECT_DOUBLE_EQ(a->find("throughput_share")->as_double(), 0.5);
  ASSERT_NE(a->find("latency_ns"), nullptr);
  EXPECT_GT(a->find("latency_ns")->find("p99")->as_double(), 0.0);
  ASSERT_NE(a->find("queue_wait_ns"), nullptr);
  ASSERT_NE(a->find("run_ns"), nullptr);
}
