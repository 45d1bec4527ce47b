#include "sim/simulation.hpp"

#include <cinttypes>
#include <cstdio>

namespace gflink::sim {

void Simulation::schedule_at(Time t, UniqueFunction fn) {
  GFLINK_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

Simulation::DetachedTask Simulation::drive(Co<void> co) {
  ++live_processes_;
  co_await std::move(co);
  --live_processes_;
}

void Simulation::spawn(Co<void> co) {
  schedule_in(0, [this, c = std::move(co)]() mutable { drive(std::move(c)); });
}

Time Simulation::run() {
  while (!queue_.empty()) {
    // priority_queue::top() returns const&; the event function is move-only,
    // so we const_cast to move it out before popping. This is safe because
    // the element is removed immediately afterwards.
    auto& top = const_cast<Event&>(queue_.top());
    GFLINK_CHECK(top.t >= now_);
    if (top.t >= next_tick_) observe_through(top.t);
    now_ = top.t;
    UniqueFunction fn = std::move(top.fn);
    queue_.pop();
    ++events_processed_;
    fn();
  }
  return now_;
}

std::uint64_t Simulation::run_until(Time t) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.top().t <= t) {
    auto& top = const_cast<Event&>(queue_.top());
    if (top.t >= next_tick_) observe_through(top.t);
    now_ = top.t;
    UniqueFunction fn = std::move(top.fn);
    queue_.pop();
    ++events_processed_;
    ++n;
    fn();
  }
  if (t >= next_tick_) observe_through(t);
  now_ = t;
  return n;
}

void Simulation::set_period_observer(Duration period, std::function<void(Time)> fn) {
  if (!fn) {
    observer_ = nullptr;
    next_tick_ = kNoTick;
    return;
  }
  GFLINK_CHECK_MSG(period > 0, "an observer period must be positive");
  observer_ = std::move(fn);
  period_ = period;
  next_tick_ = now_ + period;
}

void Simulation::observe_through(Time t) {
  const std::uint64_t seq = next_seq_;
  while (next_tick_ <= t) {
    now_ = next_tick_;
    next_tick_ += period_;
    observer_(now_);
  }
  GFLINK_CHECK_MSG(next_seq_ == seq, "a period observer must not schedule events");
}

}  // namespace gflink::sim
