// The discrete-event simulation engine.
//
// A Simulation owns a virtual clock and an event queue. Everything in the
// GFlink reproduction — network transfers, disk reads, PCIe DMA, kernel
// execution, CPU task processing — advances this clock; no wall-clock time
// is ever consulted, so runs are deterministic and bit-reproducible.
//
// Processes are C++20 coroutines (`Co<void>`) detached with `spawn()`.
// Awaiting `sim.delay(d)` suspends the process for `d` nanoseconds of
// virtual time. Synchronization primitives (Channel, Semaphore, ...) live
// in sync.hpp and resume waiters through the same event queue.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "sim/coro.hpp"
#include "sim/time.hpp"
#include "sim/util.hpp"

namespace gflink::sim {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute virtual time `t` (must be >= now()).
  void schedule_at(Time t, UniqueFunction fn);

  /// Schedule `fn` to run `d` nanoseconds from now.
  void schedule_in(Duration d, UniqueFunction fn) { schedule_at(now_ + d, std::move(fn)); }

  /// Detach a coroutine process into the simulation. The coroutine starts
  /// when the event queue reaches the current time slot (not synchronously),
  /// keeping spawn order deterministic and independent of call context.
  void spawn(Co<void> co);

  /// Run until the event queue is empty. Returns the final virtual time.
  Time run();

  /// Run events with timestamp <= t. The clock ends at exactly `t` even if
  /// the queue empties earlier. Returns the number of events processed.
  std::uint64_t run_until(Time t);

  /// Install the one period observer: run() and run_until() call
  /// `fn(tick)` at every tick = now() + k * period (k >= 1) that the clock
  /// crosses, before the events of that instant run, with now() == tick.
  /// The observer reads state and must not schedule events, so a run with
  /// one executes the same events in the same order and ends at the same
  /// time as a run without. A null `fn` removes it.
  void set_period_observer(Duration period, std::function<void(Time)> fn);

  /// True if no events are pending.
  bool idle() const { return queue_.empty(); }

  /// Number of events executed so far (diagnostic).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Number of detached processes that have been spawned but not finished.
  /// After run() this should normally be zero; a nonzero value means some
  /// process is parked forever (usually a bug in the model).
  int live_processes() const { return live_processes_; }

  /// Awaitable: suspend the current coroutine for `d` virtual nanoseconds.
  auto delay(Duration d) {
    struct Awaiter {
      Simulation* sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_in(d, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    GFLINK_CHECK_MSG(d >= 0, "negative delay");
    return Awaiter{this, d};
  }

  /// Awaitable: yield to the event loop (resume in the same time slot,
  /// after already-queued events).
  auto yield() { return delay(0); }

 private:
  struct Event {
    Time t;
    std::uint64_t seq;  // tie-break: FIFO within a time slot
    UniqueFunction fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  // Runs one Co<void> to completion, maintaining the live-process count.
  struct DetachedTask {
    struct promise_type {
      DetachedTask get_return_object() { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() {
        // A simulation process must not leak exceptions: there is nobody
        // above it to catch them. Treat as fatal.
        std::fprintf(stderr, "uncaught exception escaped a simulation process\n");
        std::terminate();
      }
    };
  };
  DetachedTask drive(Co<void> co);
  // Call the period observer for every tick <= t.
  void observe_through(Time t);

  static constexpr Time kNoTick = std::numeric_limits<Time>::max();

  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  int live_processes_ = 0;
  std::function<void(Time)> observer_;
  Duration period_ = 0;
  Time next_tick_ = kNoTick;
};

}  // namespace gflink::sim
