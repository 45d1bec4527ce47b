// Fixture: token-stream regression corpus. Every pattern below that used to
// trip the regex-era R1/R2/R3 lives inside a comment, a string literal, or a
// raw string — the token-aware engine must report nothing.
//
//   #include <atomic>
//   mgr.memory().allocate(bytes);
//   cuda_malloc(dev, n);
//   std::mutex legacy_mu_;
//   std::thread worker_;
//   metrics.counter("ghost_metric_total").inc(1);

/* Block comment with more of the same:
#include <thread>
   pool.memory().free(buf);
   std::recursive_mutex nested_mu_;
   std::atomic<int> hits_;
   registry.gauge("block_comment_metric").set(2.0);
*/

namespace gflink::core {

const char* kDoc =
    "call mgr.memory().allocate(1) then metrics.counter(\"str_metric\")"
    " on a std::jthread guarded by std::lock_guard<std::mutex>";

const char* kRaw = R"doc(
#include <condition_variable>
  std::shared_mutex table_mu_;
  std::async(std::launch::async, task);
  cuda_free(ptr);
  registry.histogram("raw_string_metric", 0, 1, 8).add(0.5);
)doc";

int widget_count() { return 2; }

}  // namespace gflink::core
