// Stress test for the ThreadPool completion handshake (`stress` label).
//
// parallel_for must return once every iteration has run.  A lost
// completion wakeup leaves the submitter asleep forever, and such a hang
// shows up anywhere from a few thousand to hundreds of thousands of
// back-to-back calls in, so this runs 300k tiny parallel_for calls per
// pool size.  A
// hung thread cannot be joined, so a watchdog reports the stall and
// exits the process instead of letting the test sit out its ctest
// timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "minithread/minithread.hpp"

namespace procap::minithread {
namespace {

constexpr long kCallsPerPool = 300000;
constexpr auto kStallLimit = std::chrono::seconds(2);

/// Exits the process (status 3) if `calls` stops changing for
/// kStallLimit before the watchdog is destroyed.
class Watchdog {
 public:
  Watchdog(const std::atomic<long>& calls, const std::atomic<unsigned>& workers)
      : calls_(calls), workers_(workers), thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void watch() {
    long last = -1;
    auto last_change = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(100),
                           [this] { return done_; })) {
      const long now_calls = calls_.load(std::memory_order_relaxed);
      const auto now = std::chrono::steady_clock::now();
      if (now_calls != last) {
        last = now_calls;
        last_change = now;
      } else if (now - last_change >= kStallLimit) {
        std::fprintf(stderr,
                     "ThreadPoolStress: parallel_for stalled for 2 s after "
                     "%ld completed calls on a %u-worker pool\n",
                     now_calls, workers_.load());
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  }

  const std::atomic<long>& calls_;
  const std::atomic<unsigned>& workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool done_ = false;
  std::thread thread_;
};

TEST(ThreadPoolStress, TinyParallelForsAlwaysReturn) {
  std::atomic<long> calls{0};
  std::atomic<unsigned> workers{0};
  const Watchdog watchdog(calls, workers);
  for (const unsigned w : {1u, 2u, 3u}) {
    workers.store(w);
    calls.store(0);
    ThreadPool pool(w);
    const std::size_t n = w + 1;  // one iteration per participant
    std::atomic<long> iterations{0};
    for (long call = 0; call < kCallsPerPool; ++call) {
      pool.parallel_for(n, [&](std::size_t) {
        iterations.fetch_add(1, std::memory_order_relaxed);
      });
      calls.fetch_add(1, std::memory_order_relaxed);
    }
    EXPECT_EQ(iterations.load(), kCallsPerPool * static_cast<long>(n))
        << w << " workers";
  }
}

}  // namespace
}  // namespace procap::minithread
