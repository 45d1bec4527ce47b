// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited in the caller's scope, so every
// reference parameter outlives each suspension; detached launches are
// separately policed by gflint rules C2/C3.
#include "service/job_service.hpp"

#include <algorithm>
#include <cmath>

namespace gflink::service {

namespace {

/// Nearest-rank percentile over unsorted samples (exact, small N).
double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

JobService::Percentiles summarize(const std::vector<double>& samples) {
  JobService::Percentiles p;
  p.p50 = percentile(samples, 0.50);
  p.p95 = percentile(samples, 0.95);
  p.p99 = percentile(samples, 0.99);
  return p;
}

obs::Json percentiles_json(const JobService::Percentiles& p) {
  obs::Json j = obs::Json::object();
  j["p50"] = p.p50;
  j["p95"] = p.p95;
  j["p99"] = p.p99;
  return j;
}

}  // namespace

JobService::JobService(dataflow::Engine& engine, core::GFlinkRuntime* runtime,
                       ServiceConfig config)
    : engine_(&engine), runtime_(runtime), config_(config) {
  GFLINK_CHECK(config_.max_pending > 0);
  GFLINK_CHECK(config_.drr_quantum > 0.0);
}

void JobService::add_tenant(const TenantConfig& config) {
  GFLINK_CHECK_MSG(!config.name.empty(), "tenant needs a name");
  GFLINK_CHECK_MSG(tenant_index_.find(config.name) == tenant_index_.end(),
                   "tenant registered twice");
  GFLINK_CHECK(config.weight > 0.0);
  tenant_index_[config.name] = tenants_.size();
  tenants_.push_back(std::make_unique<Tenant>());
  tenants_.back()->config = config;
  if (runtime_ != nullptr) {
    if (config.cache_quota_bytes > 0) {
      runtime_->set_tenant_quota(config.name, config.cache_quota_bytes);
    }
    if (config.gwork_priority != 0) {
      runtime_->set_tenant_priority(config.name, config.gwork_priority);
    }
  }
}

JobService::Tenant& JobService::tenant_of(const std::string& name) {
  auto it = tenant_index_.find(name);
  GFLINK_CHECK_MSG(it != tenant_index_.end(), "submission from an unregistered tenant");
  return *tenants_[it->second];
}

std::size_t JobService::tenant_pending(const std::string& name) const {
  auto it = tenant_index_.find(name);
  if (it == tenant_index_.end()) return 0;
  return tenants_[it->second]->queue.size();
}

std::vector<std::string> JobService::tenant_names() const {
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t->config.name);
  return out;
}

TicketPtr JobService::submit(const std::string& tenant, std::string job_name, double cost,
                             JobBody body) {
  GFLINK_CHECK(cost > 0.0);
  Tenant& t = tenant_of(tenant);
  auto ticket = std::make_shared<JobTicket>();
  ticket->tenant_ = tenant;
  ticket->cost = cost;
  ticket->body_ = std::move(body);
  ticket->done_ = std::make_shared<sim::Trigger>(engine_->sim());
  ticket->enqueued_at = engine_->now();
  ticket->job_ = std::make_unique<dataflow::Job>(*engine_, std::move(job_name));
  ticket->job_->set_tenant(tenant);
  all_.push_back(ticket);
  engine_->metrics().counter(obs::Metric::ServiceSubmitted, {{"tenant", tenant}}).inc();

  if (pending_count_ >= config_.max_pending) {
    // Admission control: the queue is bounded; tell the client now.
    ticket->state_ = TicketState::Rejected;
    ticket->job_->cancel();
    ++t.rejected;
    ++rejected_;
    engine_->metrics().counter(obs::Metric::ServiceRejected, {{"tenant", tenant}}).inc();
    ticket->done_->fire();
    return ticket;
  }

  ticket->job_->stats().state = dataflow::JobState::Queued;
  t.queue.push_back(ticket);
  ++pending_count_;
  pump();
  return ticket;
}

bool JobService::cancel(const TicketPtr& ticket) {
  if (ticket == nullptr || ticket->state_ != TicketState::Pending) return false;
  Tenant& t = tenant_of(ticket->tenant_);
  auto it = std::find(t.queue.begin(), t.queue.end(), ticket);
  GFLINK_CHECK_MSG(it != t.queue.end(), "pending ticket missing from its tenant queue");
  t.queue.erase(it);
  --pending_count_;
  ticket->state_ = TicketState::Cancelled;
  ticket->job_->cancel();
  ++t.cancelled;
  ++cancelled_;
  engine_->metrics().counter(obs::Metric::ServiceCancelled, {{"tenant", ticket->tenant_}}).inc();
  ticket->done_->fire();
  // A freed pending slot cannot unblock dispatch (dispatch is bounded by
  // in-flight caps, not queue depth), so no pump() here.
  return true;
}

sim::Co<void> JobService::drain() {
  // all_ may grow while we await (clients keep submitting); the index loop
  // picks the newcomers up. Fired triggers resolve immediately.
  for (std::size_t i = 0; i < all_.size(); ++i) {
    co_await all_[i]->done_->wait();
  }
}

bool JobService::at_total_cap() const {
  return config_.max_total_in_flight > 0 && total_in_flight_ >= config_.max_total_in_flight;
}

bool JobService::serviceable(const Tenant& t) const {
  return !t.queue.empty() &&
         (t.config.max_in_flight == 0 || t.in_flight < t.config.max_in_flight);
}

void JobService::pump() {
  if (pumping_ || tenants_.empty()) return;
  pumping_ = true;
  // Deficit round-robin (DRR) with a rotating cursor. When the cursor
  // arrives at a serviceable tenant it is credited quantum x weight *once*
  // for this visit; the tenant then dispatches from the front of its FIFO
  // while the deficit covers the head job's cost. The visit — including an
  // unspent deficit — persists across pump() calls: when the total
  // in-flight cap stops dispatch mid-visit, the next completion resumes
  // the same tenant without a fresh credit, so shares track weights even
  // when the cap serializes dispatch. Terminates: every iteration either
  // dispatches (finite backlog) or advances the cursor, and each full
  // rotation credits every backlogged tenant toward its finite head cost.
  auto advance = [this] {
    cursor_ = (cursor_ + 1) % tenants_.size();
    accrued_current_ = false;
  };
  auto any_serviceable = [this] {
    for (const auto& tp : tenants_) {
      if (serviceable(*tp)) return true;
    }
    return false;
  };
  while (!at_total_cap() && any_serviceable()) {
    Tenant& t = *tenants_[cursor_];
    if (!serviceable(t)) {
      if (t.queue.empty()) t.deficit = 0.0;  // classic DRR: idle hoards nothing
      advance();
      continue;
    }
    if (!accrued_current_) {
      t.deficit += config_.drr_quantum * t.config.weight;
      accrued_current_ = true;
    }
    if (t.deficit >= t.queue.front()->cost) {
      TicketPtr ticket = t.queue.front();
      t.queue.pop_front();
      t.deficit -= ticket->cost;
      --pending_count_;
      dispatch(t, ticket);
    } else {
      advance();  // credit spent for this visit; next tenant's turn
    }
  }
  pumping_ = false;
}

void JobService::dispatch(Tenant& t, const TicketPtr& ticket) {
  // Leave Pending here, not in run_job(): the spawned coroutine first runs
  // after we return, and a cancel() in that window must see the ticket as
  // already dispatched (no longer in any queue).
  ticket->state_ = TicketState::Running;
  ticket->dispatched_at = engine_->now();
  ++t.in_flight;
  ++total_in_flight_;
  engine_->metrics()
      .counter(obs::Metric::ServiceDispatchCost, {{"tenant", t.config.name}})
      .inc(ticket->cost);
  // gflint: allow(C3): the JobService outlives the simulation it drives
  // (owned by the harness that owns the Engine), and the ticket shared_ptr
  // keeps the per-job state alive inside the frame.
  engine_->sim().spawn(run_job(t, ticket));
}

sim::Co<void> JobService::run_job(Tenant& t, TicketPtr ticket) {
  const auto queue_wait = static_cast<double>(ticket->dispatched_at - ticket->enqueued_at);
  if (ticket->dispatched_at > ticket->enqueued_at) {
    engine_->cluster().spans().record("service_queue_wait", obs::SpanCategory::Wait, 0,
                                      ticket->enqueued_at, ticket->dispatched_at,
                                      tenant_lane(t), 0);
  }
  engine_->metrics()
      .histogram(obs::Metric::ServiceQueueWaitNs, {{"tenant", t.config.name}})
      .add(queue_wait);

  dataflow::Job& job = *ticket->job_;
  if (runtime_ != nullptr) runtime_->set_job_tenant(job.id(), t.config.name);
  co_await job.submit();
  co_await ticket->body_(job);
  job.finish();
  if (runtime_ != nullptr) runtime_->release_job(job.id());

  ticket->completed_at = engine_->now();
  ticket->state_ = TicketState::Completed;
  const auto run_ns = static_cast<double>(ticket->completed_at - ticket->dispatched_at);
  const auto latency_ns = static_cast<double>(ticket->completed_at - ticket->enqueued_at);
  t.queue_wait_samples.push_back(queue_wait);
  t.run_samples.push_back(run_ns);
  t.latency_samples.push_back(latency_ns);
  engine_->metrics()
      .histogram(obs::Metric::ServiceRunNs, {{"tenant", t.config.name}})
      .add(run_ns);
  engine_->metrics()
      .histogram(obs::Metric::ServiceLatencyNs, {{"tenant", t.config.name}})
      .add(latency_ns);
  engine_->metrics().counter(obs::Metric::ServiceCompleted, {{"tenant", t.config.name}}).inc();
  ++t.completed;
  ++completed_;
  --t.in_flight;
  --total_in_flight_;
  if (observer_) observer_(t.config.name, ticket->completed_at - ticket->enqueued_at);
  ticket->done_->fire();
  pump();  // a slot freed: let the fair scheduler dispatch the next job
}

std::vector<JobService::TenantSnapshot> JobService::snapshot() const {
  std::vector<TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (const auto& tp : tenants_) {
    const Tenant& t = *tp;
    TenantSnapshot s;
    s.name = t.config.name;
    s.weight = t.config.weight;
    s.completed = t.completed;
    s.rejected = t.rejected;
    s.cancelled = t.cancelled;
    s.queue_wait_ns = summarize(t.queue_wait_samples);
    s.run_ns = summarize(t.run_samples);
    s.latency_ns = summarize(t.latency_samples);
    if (runtime_ != nullptr) {
      s.cache_inserted_bytes = runtime_->tenant_inserted_bytes(t.config.name);
    }
    out.push_back(std::move(s));
  }
  return out;
}

obs::Json JobService::fairness_json() const {
  const std::vector<TenantSnapshot> snaps = snapshot();
  double total_weight = 0.0, total_completed = 0.0, total_cache = 0.0;
  for (const auto& s : snaps) {
    total_weight += s.weight;
    total_completed += static_cast<double>(s.completed);
    total_cache += static_cast<double>(s.cache_inserted_bytes);
  }
  obs::Json root = obs::Json::object();
  for (const auto& s : snaps) {
    obs::Json entry = obs::Json::object();
    entry["weight"] = s.weight;
    entry["weight_share"] = total_weight > 0 ? s.weight / total_weight : 0.0;
    entry["completed"] = static_cast<std::int64_t>(s.completed);
    entry["rejected"] = static_cast<std::int64_t>(s.rejected);
    entry["cancelled"] = static_cast<std::int64_t>(s.cancelled);
    entry["throughput_share"] =
        total_completed > 0 ? static_cast<double>(s.completed) / total_completed : 0.0;
    entry["cache_inserted_bytes"] = static_cast<std::int64_t>(s.cache_inserted_bytes);
    entry["cache_share"] =
        total_cache > 0 ? static_cast<double>(s.cache_inserted_bytes) / total_cache : 0.0;
    entry["queue_wait_ns"] = percentiles_json(s.queue_wait_ns);
    entry["run_ns"] = percentiles_json(s.run_ns);
    entry["latency_ns"] = percentiles_json(s.latency_ns);
    root[s.name] = std::move(entry);
  }
  return root;
}

}  // namespace gflink::service
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
