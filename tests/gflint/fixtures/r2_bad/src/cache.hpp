#pragma once
#include <atomic>  // finding: host-concurrency header
#include <thread>  // finding: host-concurrency header

// Fixture: host concurrency under src/. Every marked line is one R2
// finding: the simulator runs on one thread, so none of these belong.
class Prefetcher {
 public:
  int warm() {
    auto pending = std::async([] { return 1; });  // finding: std::async
    return pending.get();
  }

 private:
  std::thread worker_;           // finding: std::thread
  std::atomic<int> hits_{0};     // finding: std::atomic
  std::mutex mu_;                // finding: std::mutex
  std::condition_variable cv_;   // finding: std::condition_variable
};
