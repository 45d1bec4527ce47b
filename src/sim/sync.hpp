// Synchronization primitives for simulation coroutines.
//
// All primitives resume waiters through the owning Simulation's event queue
// (at the current virtual time), never synchronously. This gives a single
// well-defined interleaving rule: a woken process runs after all events
// already queued for the current time slot.
//
// Invariants relied on below (single-threaded event loop):
//  * awaiter methods run synchronously inside the awaiting process;
//  * between await_ready() and await_suspend()/await_resume() nothing else
//    runs, so state checked in await_ready cannot change underneath.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>

#include "sim/simulation.hpp"

namespace gflink::sim {

/// One-shot event. Processes `co_await t.wait()`; once `fire()` is called
/// every current and future waiter proceeds immediately.
class Trigger {
 public:
  explicit Trigger(Simulation& sim) : sim_(&sim) {}

  bool fired() const { return fired_; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_) sim_->schedule_in(0, [h] { h.resume(); });
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Trigger* t;
      bool await_ready() const noexcept { return t->fired_; }
      void await_suspend(std::coroutine_handle<> h) { t->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool fired_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore with FIFO waiters. Supports weighted acquire, which
/// models capacity-style resources (memory budgets, slot pools).
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t initial) : sim_(&sim), count_(initial) {}

  std::int64_t available() const { return count_; }
  std::size_t waiters() const { return waiters_.size(); }

  /// Awaitable: wait until `n` units are available, then take them.
  /// FIFO-fair: a request never overtakes an earlier, larger one.
  auto acquire(std::int64_t n = 1) {
    GFLINK_CHECK(n >= 0);
    return AcquireAwaiter{this, n};
  }

  /// Non-blocking attempt; returns true on success.
  bool try_acquire(std::int64_t n = 1) {
    if (waiters_.empty() && count_ >= n) {
      count_ -= n;
      return true;
    }
    return false;
  }

  /// Return `n` units and wake as many FIFO waiters as now fit.
  void release(std::int64_t n = 1) {
    count_ += n;
    wake_ready();
  }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::int64_t n;
  };

  struct AcquireAwaiter {
    Semaphore* s;
    std::int64_t n;
    // Non-const on purpose: the fast path takes the units here.
    bool await_ready() noexcept {
      if (s->waiters_.empty() && s->count_ >= n) {
        s->count_ -= n;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { s->waiters_.push_back({h, n}); }
    // Parked path: wake_ready() already deducted the units before resuming.
    void await_resume() const noexcept {}
  };

  void wake_ready() {
    while (!waiters_.empty() && count_ >= waiters_.front().n) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      count_ -= w.n;
      sim_->schedule_in(0, [h = w.h] { h.resume(); });
    }
  }

  Simulation* sim_;
  std::int64_t count_;
  std::deque<Waiter> waiters_;
};

/// FIFO mutex built for coroutines. `co_await m.lock();` ... `m.unlock();`
class Mutex {
 public:
  explicit Mutex(Simulation& sim) : sem_(sim, 1) {}
  auto lock() { return sem_.acquire(1); }
  bool try_lock() { return sem_.try_acquire(1); }
  void unlock() { sem_.release(1); }
  bool locked() const { return sem_.available() == 0; }

 private:
  Semaphore sem_;
};

/// Wait for a group of processes: add(n) before spawning, done() in each,
/// `co_await wg.wait()` to join.
class WaitGroup {
 public:
  explicit WaitGroup(Simulation& sim) : trigger_(sim) {}

  void add(int n = 1) {
    GFLINK_CHECK_MSG(!trigger_.fired(), "WaitGroup reused after completion");
    count_ += n;
  }
  void done() {
    GFLINK_CHECK_MSG(count_ > 0, "WaitGroup::done without matching add");
    if (--count_ == 0) trigger_.fire();
  }
  auto wait() { return trigger_.wait(); }
  int pending() const { return count_; }

 private:
  Trigger trigger_;
  int count_ = 0;
};

/// FIFO channel of T with optional capacity bound.
///
///   co_await ch.send(v);      // blocks while full
///   T v = co_await ch.recv();  // blocks while empty
///
/// Values pushed while a receiver is parked are handed to it directly, so a
/// woken receiver can never lose its value to a concurrent try_recv.
///
/// Structural invariants: receivers park only when the queue is empty, and
/// senders park only when it is full; hence both sides are never parked at
/// once.
template <typename T>
class Channel {
 public:
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  explicit Channel(Simulation& sim, std::size_t capacity = kUnbounded)
      : sim_(&sim), capacity_(capacity) {}

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t parked_senders() const { return send_waiters_.size(); }

  /// Awaitable send. For unbounded channels this never suspends.
  auto send(T value) { return SendAwaiter{this, std::move(value), false}; }

  /// Non-suspending send; returns false if the channel is full.
  bool try_send(T value) {
    if (!can_push() || !send_waiters_.empty()) return false;
    push(std::move(value));
    return true;
  }

  /// Awaitable receive: the next value, parking while the channel is empty.
  auto recv() { return RecvAwaiter{this}; }

  /// Non-suspending receive.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    admit_parked_sender();
    return v;
  }

 private:
  struct RecvAwaiter {
    Channel* ch;
    std::optional<T> value{};
    std::coroutine_handle<> h{};

    bool await_ready() noexcept {
      if (!ch->items_.empty()) {
        value = std::move(ch->items_.front());
        ch->items_.pop_front();
        ch->admit_parked_sender();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      h = handle;
      ch->recv_waiters_.push_back(this);
    }
    // A value is always present here: either taken in await_ready or handed
    // off by push() before this receiver was resumed.
    T await_resume() noexcept { return std::move(*value); }
  };

  struct SendAwaiter {
    Channel* ch;
    T value;
    bool parked;

    bool await_ready() noexcept { return ch->send_waiters_.empty() && ch->can_push(); }
    void await_suspend(std::coroutine_handle<> h) {
      parked = true;
      ch->send_waiters_.push_back({h, std::move(value)});
    }
    void await_resume() {
      // Fast path pushes here; a parked sender's value was moved into the
      // queue by admit_parked_sender before it was resumed.
      if (!parked) ch->push(std::move(value));
    }
  };

  struct SendWaiter {
    std::coroutine_handle<> h;
    T value;
  };

  bool can_push() const { return capacity_ == kUnbounded || items_.size() < capacity_; }

  void push(T value) {
    if (!recv_waiters_.empty()) {
      RecvAwaiter* w = recv_waiters_.front();
      recv_waiters_.pop_front();
      w->value = std::move(value);  // direct handoff, bypasses the queue
      sim_->schedule_in(0, [h = w->h] { h.resume(); });
      return;
    }
    items_.push_back(std::move(value));
  }

  void admit_parked_sender() {
    if (!send_waiters_.empty() && can_push()) {
      SendWaiter w = std::move(send_waiters_.front());
      send_waiters_.pop_front();
      push(std::move(w.value));
      sim_->schedule_in(0, [h = w.h] { h.resume(); });
    }
  }

  Simulation* sim_;
  std::size_t capacity_;
  std::deque<T> items_;
  std::deque<SendWaiter> send_waiters_;
  std::deque<RecvAwaiter*> recv_waiters_;
};

}  // namespace gflink::sim
