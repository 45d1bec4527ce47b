// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
// JobService: the multi-tenant front end of the JobManager.
//
// The paper's GFlink runs one job graph at a time; its north-star
// deployment — an in-memory CPU-GPU cluster serving many users — is
// multi-tenant. The JobService sits in front of the
// dataflow Engine and:
//  * admits a stream of job submissions from registered tenants into a
//    bounded pending queue (FIFO within each tenant), rejecting overflow;
//  * dispatches admitted jobs by weighted-fair deficit round-robin over
//    tenants (each round credits quantum x weight; a job dispatches when
//    the tenant's deficit covers its declared cost), with optional
//    per-tenant and global max-in-flight caps;
//  * tags every dispatched job with its tenant, which flows into the GPU
//    layer: per-tenant cache quotas in GMemoryManager and per-tenant GWork
//    priorities in GStreamManager (via core::GFlinkRuntime);
//  * measures per-tenant SLOs — queue wait vs. run split via causal
//    spans on tenant-labeled lanes, service_* metrics, and the per-tenant
//    fairness section of the v3 run report.
//
// The service is simulation-thread state, mutated between suspension
// points like the GStreamManager scheduler. The dispatcher is the
// synchronous pump() — called from submit() and from each job completion —
// never a parked coroutine, so a drained simulation holds no service
// processes (Engine::run's live_processes()==0 check stays valid).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gpu_manager.hpp"
#include "dataflow/engine.hpp"
#include "obs/json.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace gflink::service {

struct TenantConfig {
  std::string name;
  /// Weighted-fair share of dispatch (deficit-round-robin credit per round).
  double weight = 1.0;
  /// Max jobs of this tenant running concurrently; 0 = unlimited.
  int max_in_flight = 0;
  /// Per-device GPU cache quota in bytes (0 = none) — installed into every
  /// worker's GMemoryManager when a runtime is attached.
  std::uint64_t cache_quota_bytes = 0;
  /// GWork pool priority for this tenant's jobs (0 = default FIFO).
  int gwork_priority = 0;
};

struct ServiceConfig {
  /// Bound on the pending queue across all tenants; submissions beyond it
  /// are rejected (admission control, not backpressure: the client is told
  /// immediately).
  std::size_t max_pending = 256;
  /// Deficit credited per round is quantum x tenant weight. With quantum ==
  /// the typical job cost, a weight-2 tenant dispatches two typical jobs
  /// per round where a weight-1 tenant dispatches one.
  double drr_quantum = 1.0;
  /// Max jobs running concurrently across all tenants; 0 = unlimited.
  /// Bounding this is what makes dispatch *order* (the fairness policy)
  /// matter on a saturated cluster.
  int max_total_in_flight = 0;
};

enum class TicketState : std::uint8_t { Pending, Running, Completed, Rejected, Cancelled };

/// The body of a job: everything between submit() and finish(), written
/// against the job the service constructed (plans, actions, iterations).
using JobBody = std::function<sim::Co<void>(dataflow::Job&)>;

/// One submission's handle. The service owns the underlying dataflow::Job;
/// the client awaits wait() and then reads stats().
class JobTicket {
 public:
  TicketState state() const { return state_; }
  const std::string& tenant() const { return tenant_; }
  /// Resolves on completion, rejection, or cancellation.
  sim::Co<void> wait() { co_await done_->wait(); }
  dataflow::Job& job() { return *job_; }
  const dataflow::JobStats& stats() const { return job_->stats(); }

  sim::Time enqueued_at = 0;
  sim::Time dispatched_at = 0;
  sim::Time completed_at = 0;

 private:
  friend class JobService;
  TicketState state_ = TicketState::Pending;
  std::string tenant_;
  double cost = 1.0;
  std::unique_ptr<dataflow::Job> job_;
  JobBody body_;
  std::shared_ptr<sim::Trigger> done_;
};

using TicketPtr = std::shared_ptr<JobTicket>;

class JobService {
 public:
  /// `runtime` (nullable) receives the tenant -> quota/priority fan-out; a
  /// CPU-only service (tests) may pass nullptr.
  JobService(dataflow::Engine& engine, core::GFlinkRuntime* runtime, ServiceConfig config);

  /// Register a tenant before its first submission.
  void add_tenant(const TenantConfig& config);

  /// Submit one job on behalf of `tenant`. `cost` is the job's declared
  /// dispatch cost in deficit units (relative job size; 1.0 = typical).
  /// Returns a ticket that is already Rejected when the pending queue is
  /// full. Never blocks.
  TicketPtr submit(const std::string& tenant, std::string job_name, double cost, JobBody body);

  /// Withdraw a still-pending submission. True when the job was cancelled
  /// before dispatch; false when it already ran (or terminated).
  bool cancel(const TicketPtr& ticket);

  /// Await every submission ever made (completed, rejected, or cancelled).
  sim::Co<void> drain();

  std::size_t pending() const { return pending_count_; }
  /// Depth of one tenant's admission queue (0 for unknown tenants) —
  /// telemetry samples this each period.
  std::size_t tenant_pending(const std::string& name) const;
  /// Registered tenant names in deterministic DRR order (telemetry wiring).
  std::vector<std::string> tenant_names() const;
  int in_flight() const { return total_in_flight_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t cancelled() const { return cancelled_; }

  struct Percentiles {
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  struct TenantSnapshot {
    std::string name;
    double weight = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cancelled = 0;
    Percentiles queue_wait_ns;
    Percentiles run_ns;
    Percentiles latency_ns;  // enqueue -> completion (queue wait + run)
    /// Cumulative GPU cache bytes this tenant inserted (0 without runtime).
    std::uint64_t cache_inserted_bytes = 0;
  };
  std::vector<TenantSnapshot> snapshot() const;

  /// The per-tenant fairness section of the v3 run report: per tenant the
  /// weight, configured vs. achieved shares (throughput and GPU cache), and
  /// the latency percentiles split into queue wait and run.
  obs::Json fairness_json() const;

  /// Called on every job completion with the tenant and the end-to-end
  /// latency (enqueue -> completion). Telemetry's SLO burn-rate detector
  /// feeds on this; it runs synchronously on the
  /// simulation thread, so keep it cheap.
  using CompletionObserver = std::function<void(const std::string& tenant, sim::Duration latency)>;
  void set_completion_observer(CompletionObserver observer) { observer_ = std::move(observer); }

 private:
  struct Tenant {
    TenantConfig config;
    std::deque<TicketPtr> queue;  // FIFO within the tenant
    double deficit = 0.0;
    int in_flight = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t cancelled = 0;
    // Exact per-job samples (ns) for the report's percentiles; the
    // registry histograms carry the bucketed export.
    std::vector<double> queue_wait_samples;
    std::vector<double> run_samples;
    std::vector<double> latency_samples;
  };

  Tenant& tenant_of(const std::string& name);

  /// The weighted-fair dispatcher (deficit round-robin). Synchronous:
  /// dispatches every job the policy allows right now, then returns.
  /// Re-run on every submission and every completion.
  void pump();

  bool at_total_cap() const;
  bool serviceable(const Tenant& t) const;

  void dispatch(Tenant& t, const TicketPtr& ticket);
  sim::Co<void> run_job(Tenant& t, TicketPtr ticket);

  /// Span lane a tenant's service spans render on ("service/<tenant>"): the
  /// one place service span lanes are built, so every service span is
  /// attributed to its tenant.
  std::string tenant_lane(const Tenant& t) const { return "service/" + t.config.name; }

  dataflow::Engine* engine_;
  core::GFlinkRuntime* runtime_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<Tenant>> tenants_;  // deterministic DRR order
  std::unordered_map<std::string, std::size_t> tenant_index_;
  std::vector<TicketPtr> all_;  // every submission, for drain()
  std::size_t pending_count_ = 0;
  int total_in_flight_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t cancelled_ = 0;
  CompletionObserver observer_;
  bool pumping_ = false;
  // DRR cursor: the tenant currently being served, and whether it already
  // received this visit's credit (persists across pump() calls — see pump).
  std::size_t cursor_ = 0;
  bool accrued_current_ = false;
};

}  // namespace gflink::service
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
