#include "minithread/minithread.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace procap::minithread {

struct ThreadPool::Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t, std::size_t)>* run_range = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<unsigned> finished{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  unsigned participants = 0;
};

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    throw std::invalid_argument("ThreadPool: need at least one thread");
  }
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::run_job(Job& job) {
  // Chunk-grabbing loop shared by workers and the submitting thread.
  // Read before finishing: once the last participant has counted itself
  // the submitter may return and destroy `job`.
  const unsigned participants = job.participants;
  for (;;) {
    if (job.failed.load(std::memory_order_acquire)) {
      break;
    }
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) {
      break;
    }
    const std::size_t end = std::min(job.n, begin + job.chunk);
    try {
      (*job.run_range)(begin, end);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.failed.exchange(true, std::memory_order_acq_rel)) {
        job.error = std::current_exception();
      }
    }
  }
  return job.finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
         participants;
}

void ThreadPool::worker_loop() {
  std::uint64_t last_serial = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stopping_ || (current_job_ != nullptr &&
                             job_serial_ != last_serial);
      });
      if (stopping_) {
        return;
      }
      job = current_job_;
      last_serial = job_serial_;
    }
    if (run_job(*job)) {
      // Completion handshake: the last participant notifies under
      // mutex_.  The submitter checks `finished` under mutex_ and then
      // blocks; a notify sent without the lock can fall between the two
      // and be lost, leaving parallel_for asleep forever.  Holding
      // mutex_ means the submitter is either before its check (and will
      // see the final count) or already blocked (and gets the notify).
      const std::lock_guard<std::mutex> lock(mutex_);
      job_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              Schedule schedule, std::size_t chunk) {
  const std::function<void(std::size_t, std::size_t)> run_range =
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          body(i);
        }
      };
  if (n == 0) {
    return;
  }
  const unsigned participants = size() + 1;  // workers + this thread
  Job job;
  job.n = n;
  job.run_range = &run_range;
  job.participants = participants;
  if (schedule == Schedule::kStatic || chunk == 0) {
    // Static: ranges sized so each participant takes ~one chunk; dynamic
    // with chunk 0: the same granularity, but grabbed on demand.
    job.chunk = std::max<std::size_t>(1, (n + participants - 1) /
                                             participants);
  }
  if (schedule == Schedule::kDynamic && chunk != 0) {
    job.chunk = chunk;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    current_job_ = &job;
    ++job_serial_;
  }
  work_ready_.notify_all();
  run_job(job);  // the submitting thread participates
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&] {
      return job.finished.load(std::memory_order_acquire) ==
             job.participants;
    });
    current_job_ = nullptr;
  }
  if (job.failed.load()) {
    std::rethrow_exception(job.error);
  }
}

double ThreadPool::parallel_reduce(
    std::size_t n, const std::function<double(std::size_t)>& body,
    Schedule schedule, std::size_t chunk) {
  if (n == 0) {
    return 0.0;
  }
  // Deterministic combination: one partial per fixed-size chunk, summed
  // in chunk order afterwards.
  const std::size_t participants = size() + 1;
  std::size_t reduce_chunk = chunk;
  if (reduce_chunk == 0) {
    reduce_chunk = std::max<std::size_t>(
        1, (n + 4 * participants - 1) / (4 * participants));
  }
  const std::size_t n_chunks = (n + reduce_chunk - 1) / reduce_chunk;
  std::vector<double> partials(n_chunks, 0.0);
  parallel_for(
      n_chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * reduce_chunk;
        const std::size_t end = std::min(n, begin + reduce_chunk);
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          sum += body(i);
        }
        partials[c] = sum;
      },
      schedule, 1);
  double total = 0.0;
  for (const double partial : partials) {
    total += partial;
  }
  return total;
}

}  // namespace procap::minithread
