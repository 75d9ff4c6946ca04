// minithread.hpp — a miniature OpenMP-like work-sharing runtime.
//
// The paper's applications are parallelized with OpenMP ("24 pinned
// OpenMP threads") where they are not MPI; procap::minimpi covers the MPI
// shape, and this module covers the work-sharing shape: a persistent
// thread pool with parallel_for (static or dynamic scheduling) and a
// deterministic parallel_reduce.  Real-thread instrumented applications
// (the examples) can parallelize their do_work() with it and report
// progress at the loop level exactly as the paper instruments its codes.
//
//   minithread::ThreadPool pool(8);
//   pool.parallel_for(n, [&](std::size_t i) { work(i); });
//   double total = pool.parallel_reduce(
//       n, [&](std::size_t i) { return f(i); });
//
// Reductions are deterministic regardless of scheduling: partial sums are
// kept per chunk and combined in chunk order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace procap::minithread {

/// Persistent work-sharing thread pool.
class ThreadPool {
 public:
  /// Loop scheduling disciplines (the OpenMP static/dynamic pair).
  enum class Schedule {
    kStatic,   ///< contiguous ranges, one per worker
    kDynamic,  ///< workers grab chunks from a shared counter
  };

  /// Spawn `threads` workers (>= 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Run body(i) for every i in [0, n), distributed across the pool.
  /// Blocks until all iterations complete.  If any iteration throws, the
  /// remaining chunks are abandoned and the first exception is rethrown
  /// here.  `chunk` sets the dynamic-schedule chunk size (0 = automatic);
  /// it is ignored for static scheduling.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    Schedule schedule = Schedule::kStatic,
                    std::size_t chunk = 0);

  /// Sum body(i) over [0, n).  Deterministic: partials are combined in
  /// chunk order whatever the schedule or thread timing.
  [[nodiscard]] double parallel_reduce(
      std::size_t n, const std::function<double(std::size_t)>& body,
      Schedule schedule = Schedule::kStatic, std::size_t chunk = 0);

 private:
  struct Job;
  void worker_loop();
  /// Run chunks of `job` until none are left; true iff this call was the
  /// last participant to finish.
  bool run_job(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  Job* current_job_ = nullptr;
  std::uint64_t job_serial_ = 0;
  bool stopping_ = false;
};

}  // namespace procap::minithread
