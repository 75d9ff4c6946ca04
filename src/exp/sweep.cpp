#include "exp/sweep.hpp"

#include <chrono>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"

namespace procap::exp {

namespace detail {

SweepStats run_trials(std::size_t n,
                      const std::function<void(std::size_t)>& trial,
                      const SweepOptions& options) {
  unsigned threads = options.threads != 0
                         ? options.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  if (n > 0 && threads > n) {
    threads = static_cast<unsigned>(n);
  }

  PROCAP_OBS_GAUGE(threads_gauge, "exp.sweep.threads");
  PROCAP_OBS_GAUGE(total_gauge, "exp.sweep.trials_total");
  PROCAP_OBS_GAUGE(done_gauge, "exp.sweep.trials_done");
  PROCAP_OBS_COUNTER(trials_counter, "exp.sweep.trials");
  threads_gauge.set(threads);
  total_gauge.set(static_cast<double>(n));
  done_gauge.set(0.0);

  std::size_t done = 0;
  std::mutex progress_mutex;
  const auto instrumented = [&](std::size_t i) {
    trial(i);
    trials_counter.inc();
    // Count, publish and report under one lock, so callbacks arrive in
    // count order (the last one reports n/n) and the user callback need
    // not be thread-safe.
    const std::lock_guard<std::mutex> lock(progress_mutex);
    ++done;
    done_gauge.set(static_cast<double>(done));
    if (options.on_progress) {
      options.on_progress(done, n);
    }
  };

  const auto start = std::chrono::steady_clock::now();
  if (threads <= 1 || n <= 1) {
    // Serial reference path: same trial code, same order, no pool — the
    // bit-identical baseline the parallel path is tested against.
    for (std::size_t i = 0; i < n; ++i) {
      instrumented(i);
    }
  } else {
    // The submitting thread participates in parallel_for, so a pool of
    // threads - 1 workers yields `threads` concurrent executors.
    minithread::ThreadPool pool(threads - 1);
    pool.parallel_for(n, instrumented, options.schedule,
                      options.chunk == 0 ? 1 : options.chunk);
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  SweepStats stats;
  stats.threads = threads;
  stats.wall_seconds = wall.count();
  return stats;
}

}  // namespace detail

SweepResult<RunTraces> sweep_controller_runs(
    const std::vector<ControllerTrial>& trials, const SweepOptions& options) {
  return sweep<RunTraces>(
      trials.size(),
      [&trials](std::size_t i) {
        const ControllerTrial& t = trials[i];
        if (!t.make_controller) {
          throw std::invalid_argument("sweep_controller_runs: trial " +
                                      std::to_string(i) +
                                      " has no controller factory");
        }
        return run_under_controller(t.app, t.make_controller(), t.options,
                                    t.bounds);
      },
      options);
}

SweepResult<RunTraces> sweep_runs(const std::vector<ScheduleTrial>& trials,
                                  const SweepOptions& options) {
  return sweep<RunTraces>(
      trials.size(),
      [&trials](std::size_t i) {
        const ScheduleTrial& t = trials[i];
        if (!t.make_schedule) {
          throw std::invalid_argument("sweep_runs: trial " +
                                      std::to_string(i) +
                                      " has no schedule factory");
        }
        return run_under_schedule(t.app, t.make_schedule(), t.options);
      },
      options);
}

SweepResult<CapImpact> sweep_cap_impact(const CapImpactGrid& grid,
                                        const SweepOptions& options) {
  const std::size_t seeds = grid.seeds.size();
  return sweep<CapImpact>(
      grid.size(),
      [&grid, seeds](std::size_t i) {
        const Watts cap = grid.caps[i / seeds];
        const std::uint64_t seed = grid.seeds[i % seeds];
        return measure_cap_impact(grid.app, cap, seed, grid.uncapped_for,
                                  grid.capped_for, grid.settle);
      },
      options);
}

}  // namespace procap::exp
