// common.hpp — shared plumbing of the benchmark driver: arguments, the
// result record printed as the last stdout line, wall-clock spans and
// the small statistics every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Captured during static initialization of the driver, before main():
/// the origin of every `setup_s`.
[[nodiscard]] Clock::time_point process_start();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the JSON result object plus the human-readable
/// lines that explain it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the JSON line

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// A failed correctness check: the run is not correct, and the reason
  /// is printed to stderr.
  void check(bool ok, const std::string& what);
};

/// Accumulates wall seconds into `*acc` over the object's lifetime; a
/// null `acc` makes it free (untraced runs pass null).
class Span {
 public:
  explicit Span(double* acc) : acc_(acc) {
    if (acc_ != nullptr) {
      t0_ = Clock::now();
    }
  }
  ~Span() {
    if (acc_ != nullptr) {
      *acc_ += seconds_since(t0_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* acc_;
  Clock::time_point t0_{};
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Peak resident set size of this program since exec, MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Value of a counter in the global obs registry (0 if unregistered).
[[nodiscard]] double registry_value(const std::string& name);

/// One window of like work (a round, a block of epochs, a slice of
/// requests): its op rate and the latency samples it produced.
struct Window {
  double rate = 0.0;
  std::size_t begin = 0;  ///< latency sample range [begin, end)
  std::size_t end = 0;
};

/// The measured phase of one run, cut into windows.
struct Timing {
  std::vector<double> latencies_ms;
  std::vector<Window> windows;

  /// Close the window that started at latency index `begin`.
  void close(std::size_t begin, double ops, double seconds) {
    windows.push_back({ops / seconds, begin, latencies_ms.size()});
  }
  /// Median rate over the fast windows: those at or above the
  /// kFastQuantile of all window rates.
  [[nodiscard]] double fast_rate() const;
  /// Latency samples of the fast windows.
  [[nodiscard]] std::vector<double> fast_latencies() const;
};

/// Co-tenants on a shared host slow vCPUs by up to 2x for stretches of
/// seconds; the CpuPicker steers most windows away from them, and the
/// windows in the top tenth of rates are the ones the host did not slow,
/// so the end-to-end timings come from them (README).
inline constexpr double kFastQuantile = 0.9;

/// The host slows single vCPUs to about half speed for stretches of
/// seconds to minutes, a few vCPUs at a time and each on its own
/// schedule (most likely co-tenants on sibling hyperthreads): four
/// pinned copies of one trial loop read 200 and 380 trials/s side by
/// side.  Each next() times a short scout, the simulator's own kind of
/// work (a 2 s characterization of lammps, the better of two runs), on
/// every CPU of the initial affinity set and pins to the `width` fastest,
/// so the windows that follow run on the vCPUs the host is not slowing
/// at that moment.  `whole_process` pins every thread, not just the caller (scouting pins the caller
/// alone, so other threads must be idle during next()).  The destructor
/// restores the initial set.
class CpuPicker {
 public:
  explicit CpuPicker(std::size_t width = 1, bool whole_process = false);
  ~CpuPicker();
  CpuPicker(const CpuPicker&) = delete;
  CpuPicker& operator=(const CpuPicker&) = delete;
  void next();

 private:
  void pin(const std::vector<int>& cpus, bool all_threads) const;

  std::vector<int> cpus_;
  std::size_t width_;
  bool whole_process_;
};

/// The end-to-end metrics every workload reports (names and units are
/// the benchmark's contract, see BENCHMARK.json).
void set_end_to_end(Result& result, const Timing& timing, double setup_s,
                    double joules_per_progress);

/// Throughput and overhead figures of a traced run from its interleaved
/// plain and traced windows.
void overhead_values(const Timing& plain, const Timing& traced,
                     std::map<std::string, double>& out);

/// Modelled cluster energy per unit of progress, pooled over
/// kClusterMixes job mixes drawn from `seed` (ClusterPowerManager,
/// `progress` strategy, `nodes` nodes, 120 W per node, `epochs` epochs,
/// one thread).  `plan_body` is a fault plan without its `seed` line;
/// each mix gets its own.  Energy and progress are sampled from every
/// node's telemetry once per epoch.  Jobs span 1/32 to 1/4 of a cluster,
/// so one mix packs it so differently (idle nodes draw power and make no
/// progress) that a single mix varies by ~20 % from seed to seed.
[[nodiscard]] double cluster_joules_per_progress(std::uint64_t seed,
                                                 unsigned nodes,
                                                 unsigned epochs,
                                                 const std::string& plan_body);
inline constexpr unsigned kClusterMixes = 128;

/// Every per-layer metric name with its unit, in print order.  Traced
/// runs report all of them; layers a workload does not reach read 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Fill every per-layer metric from `values` (missing names read 0).
void set_per_layer(Result& result, const std::map<std::string, double>& values);

/// Print notes, provenance and the final JSON line; returns the exit code.
int emit(const Args& args, const Result& result);

Result run_capstep(const Args& args);
Result run_controller_zoo(const Args& args);
/// The cluster-churn scenario, run inside the scrape workload (see
/// cluster_churn.cpp): whole rounds, every epoch checked, and with
/// `values` non-null (traced runs) the cluster, job, minithread and
/// trace per-layer figures, measured for about `seconds`.
void run_cluster_churn(const Args& args, double seconds, Result& result,
                       std::map<std::string, double>* values);
Result run_scrape(const Args& args);

}  // namespace perfbench
