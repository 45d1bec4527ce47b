#pragma once
#include <vector>

#include "sim/sync.hpp"

// Fixture: simulated contention passes R2. sim::Mutex and sim::Semaphore
// model a DMA engine or NIC lane in virtual time; they are not host locks,
// and names that merely contain "thread" or "mutex" are not primitives.
class Cache {
 public:
  int thread_count() const { return thread_count_; }

 private:
  sim::Mutex engine_;
  sim::Semaphore credits_;
  int thread_count_ = 1;
  std::vector<int> mutex_ids_;
};
