// node_trial.hpp — one single-node trial, assembled from the library's
// public pieces the way exp::SimRig and exp::run_under_controller wire
// them (engine, node, broker, RAPL interface, app, monitor, controller
// host), so the benchmark can time each layer from outside: a timing
// sim::Component around the node, its own every() callbacks around
// Monitor::poll and the host tick, and a forwarding Controller around
// decide().  Untraced trials register the node itself and no timers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/suite.hpp"
#include "common.hpp"
#include "fault/plan.hpp"
#include "policy/controller.hpp"
#include "util/series.hpp"

namespace perfbench {

/// Per-layer accumulators of a traced run (wall seconds and counts).
struct NodeLayers {
  double run_s = 0.0;       ///< Engine::run_until wall time
  double advance_s = 0.0;   ///< inside hw::Node::advance/step
  double poll_s = 0.0;      ///< inside progress::Monitor::poll
  double tick_s = 0.0;      ///< inside the host's tick (incl. decide)
  double decide_s = 0.0;    ///< inside Controller::decide
  double sample_s = 0.0;    ///< inside the 10 Hz frequency/duty sampler
  double rig_build_s = 0.0; ///< engine + node + broker + RAPL construction
  double sim_s = 0.0;       ///< simulated seconds advanced
  std::uint64_t spans = 0;
  std::uint64_t ticks = 0;
  std::uint64_t decisions = 0;
  std::uint64_t samples = 0;
  std::uint64_t windows = 0;
  std::uint64_t trials = 0;
};

enum class Host { kDaemon, kNrm };

struct TrialSpec {
  const procap::apps::AppModel* app = nullptr;
  std::function<std::unique_ptr<procap::policy::Controller>()> make_controller;
  std::uint64_t seed = 1;
  procap::Seconds duration = 60.0;
  procap::policy::CapBounds bounds{};
  Host host = Host::kDaemon;
  procap::Watts node_budget = 0.0;  ///< NRM host only
  const procap::fault::FaultPlan* link_plan = nullptr;  ///< link faults
  bool per_tick = false;            ///< Engine::set_per_tick_fallback
};

struct TrialOutcome {
  double total_progress = 0.0;
  procap::Joules pkg_energy = 0.0;   ///< hw::Package::energy() delta
  procap::Joules rapl_energy = 0.0;  ///< RaplInterface::pkg_energy() delta
  procap::Joules energy_unit = 0.0;  ///< RAPL energy LSB
  procap::TimeSeries rates;  ///< monitor progress windows
  procap::TimeSeries caps;   ///< host's programmed caps (0 = uncapped)
  procap::TimeSeries power;  ///< daemon's measured power (daemon host)
  procap::Watts final_limit = 0.0;  ///< PL1 decoded from the MSR at the end
  bool final_limit_enabled = false;
  std::uint64_t ticks = 0;

  [[nodiscard]] double mean_rate(procap::Seconds from,
                                 procap::Seconds to) const;
  [[nodiscard]] double mean_power(procap::Seconds from,
                                  procap::Seconds to) const;
};

/// Run one trial; `layers` non-null turns on the per-layer timers.
[[nodiscard]] TrialOutcome run_node_trial(const TrialSpec& spec,
                                          NodeLayers* layers);

/// True when two outcomes are bit-identical in every recorded value.
[[nodiscard]] bool same_outcome(const TrialOutcome& a, const TrialOutcome& b);

/// Per-layer map entries common to the single-node workloads.
void node_layer_values(const NodeLayers& layers,
                       std::map<std::string, double>& out);

/// Direct calls into the RAPL codecs: mean ns per PkgPowerLimit
/// encode+decode pair and per energy-counter decode.
void rapl_codec_costs(std::map<std::string, double>& out);

/// Number of value changes along a cap series.
[[nodiscard]] std::uint64_t cap_changes(const procap::TimeSeries& caps);

/// Sums the change of named global-registry counters over the rounds
/// bracketed by begin()/end().
class RegistryAccum {
 public:
  explicit RegistryAccum(std::vector<std::string> names)
      : names_(std::move(names)) {}
  void begin();
  void end();
  void into(std::map<std::string, double>& out) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, double> base_;
  std::map<std::string, double> sum_;
};

/// Run whole rounds until `seconds` of wall time have passed (at least
/// `min_rounds`); returns the number run.  `round(r, layers, latencies)`
/// runs round r, appends one latency sample per op and returns its op
/// count.  Each round is one window of `plain`; traced runs alternate
/// plain (layers = null) and traced rounds, so the two throughputs are
/// measured interleaved.
std::size_t run_rounds(
    double seconds, bool trace, std::size_t min_rounds,
    const std::function<std::size_t(std::size_t, NodeLayers*,
                                    std::vector<double>&)>& round,
    NodeLayers& layers, RegistryAccum& accum, Timing& plain, Timing& traced);

}  // namespace perfbench
