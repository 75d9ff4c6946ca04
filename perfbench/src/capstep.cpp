// capstep — the paper's Fig. 4 procedure as a workload.  Set-up
// characterizes the five suite apps (exp::characterize); each round then
// runs one open-loop uncapped -> cap step (ConstantCap) per (app, cap) of
// the Fig. 4 cap ranges, with a fresh app seed per round.  Nearly all
// host time goes to hw cohort/Package advance in steady operating points.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "exp/measure.hpp"
#include "node_trial.hpp"
#include "policy/adapters.hpp"
#include "policy/schedule_shapes.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace procap;

namespace {

struct AppSweep {
  const char* name;
  double cap_lo;
  double cap_hi;
  double uncapped_for = 14.0;
  double capped_for = 24.0;
};

// bench/fig4_model_vs_measured's ranges, 10 W apart: from each app's
// uncapped power down to the stringent region near the static floor.
constexpr AppSweep kSweeps[] = {
    {"lammps", 25.0, 135.0},
    {"amg", 50.0, 150.0},
    {"qmcpack-dmc", 45.0, 130.0},
    {"stream", 30.0, 150.0},
    {"openmc-active", 45.0, 120.0, 24.0, 56.0},
};
constexpr double kCapStep = 10.0;
constexpr Seconds kWarmup = 4.0;
constexpr Seconds kSettle = 6.0;
constexpr Watts kStaticFloor = 21.0;
constexpr Seconds kCharFor = 12.0;  ///< exp::characterize measuring span

struct Cell {
  std::size_t app = 0;
  Watts cap = 0.0;
};

struct Impact {
  double rate_uncapped = 0.0;
  double rate_capped = 0.0;
  double delta = 0.0;
  Watts power_uncapped = 0.0;
  Watts power_capped = 0.0;
  friend bool operator==(const Impact&, const Impact&) = default;
};

Impact impact_of(const TrialOutcome& out, const AppSweep& sweep) {
  const Seconds total = sweep.uncapped_for + sweep.capped_for;
  Impact i;
  i.rate_uncapped = out.mean_rate(kWarmup, sweep.uncapped_for);
  i.rate_capped = out.mean_rate(sweep.uncapped_for + kSettle, total);
  i.delta = i.rate_uncapped - i.rate_capped;
  i.power_uncapped = out.mean_power(kWarmup, sweep.uncapped_for);
  i.power_capped = out.mean_power(sweep.uncapped_for + kSettle, total);
  return i;
}

TrialSpec step_trial(const apps::AppModel& app, const AppSweep& sweep,
                     Watts cap, std::uint64_t seed) {
  TrialSpec spec;
  spec.app = &app;
  spec.seed = seed;
  spec.duration = sweep.uncapped_for + sweep.capped_for;
  const Seconds start_after = sweep.uncapped_for;
  spec.make_controller = [cap, start_after] {
    return std::make_unique<policy::ScheduleController>(
        std::make_unique<policy::ConstantCap>(cap, start_after));
  };
  return spec;
}

}  // namespace

Result run_capstep(const Args& args) {
  Result result;
  std::vector<apps::AppModel> models;
  std::vector<exp::Characterization> chars;
  {
    CpuPicker setup_cpu;  // the set-up runs on the fastest CPU
    setup_cpu.next();
    for (const AppSweep& sweep : kSweeps) {
      models.push_back(apps::by_name(sweep.name));
      chars.push_back(
          exp::characterize(models.back(), 1.6e9, kCharFor, args.seed));
    }
  }
  std::vector<Cell> cells;
  for (std::size_t a = 0; a < std::size(kSweeps); ++a) {
    for (Watts cap = kSweeps[a].cap_lo; cap <= kSweeps[a].cap_hi + 1e-9;
         cap += kCapStep) {
      cells.push_back({a, cap});
    }
  }
  const double setup_s = seconds_since(process_start());

  // Per (app, cap): progress loss over every round's seed.
  std::vector<StreamingStats> delta_stats(cells.size());
  Timing plain;
  Timing traced;
  std::vector<TrialOutcome> round0(cells.size());
  double round0_energy = 0.0;
  double round0_progress = 0.0;
  std::uint64_t cap_change_count = 0;
  NodeLayers layers;
  RegistryAccum accum({"sim.events", "bus.published", "bus.delivered",
                       "bus.dropped", "rapl.cap_writes", "rapl.power_reads",
                       "rapl.energy_reads"});

  const auto round_seed = [&args](std::size_t r) {
    return args.seed * 1000003ULL + r;
  };
  const std::size_t round_count = run_rounds(
      args.seconds, args.trace, args.trace ? 4 : 2,
      [&](std::size_t r, NodeLayers* lp,
          std::vector<double>& latencies) -> std::size_t {
        for (std::size_t c = 0; c < cells.size(); ++c) {
          const AppSweep& sweep = kSweeps[cells[c].app];
          ++result.attempted;
          const auto t0 = Clock::now();
          TrialOutcome out;
          try {
            out = run_node_trial(step_trial(models[cells[c].app], sweep,
                                            cells[c].cap, round_seed(r)),
                                 lp);
          } catch (const std::exception& e) {
            ++result.failed;
            result.check(false, std::string("trial threw: ") + e.what());
            continue;
          }
          latencies.push_back(seconds_since(t0) * 1e3);
          const Impact impact = impact_of(out, sweep);
          delta_stats[c].add(impact.delta);
          const std::string where = std::string(sweep.name) + " cap " +
                                    std::to_string(cells[c].cap) + " seed " +
                                    std::to_string(round_seed(r)) + ": ";
          std::string why = check_energy_pair(out.pkg_energy, out.rapl_energy,
                                              out.energy_unit);
          if (why.empty()) {
            why = check_power_under_cap(impact.power_capped, cells[c].cap,
                                        kStaticFloor);
          }
          if (why.empty()) {
            why = check_caps_in_bounds(out.caps, policy::CapBounds{},
                                       cells[c].cap);
          }
          if (why.empty() && !(out.final_limit_enabled &&
                               std::abs(out.final_limit - cells[c].cap) <=
                                   0.125)) {
            why = "PL1 read back from the MSR is " +
                  std::to_string(out.final_limit) + " W";
          }
          if (!why.empty()) {
            ++result.failed;
            result.check(false, where + why);
          }
          if (lp != nullptr) {
            cap_change_count += cap_changes(out.caps);
          }
          if (r == 0) {
            round0_energy += out.pkg_energy;
            round0_progress += out.total_progress;
            round0[c] = std::move(out);
          }
        }
        return cells.size();
      },
      layers, accum, plain, traced);

  // Properties of the whole grid.
  for (std::size_t a = 0; a < std::size(kSweeps); ++a) {
    std::vector<CapStat> stats;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].app == a) {
        const auto& s = delta_stats[c];
        stats.push_back({cells[c].cap, s.mean(),
                         s.count() > 1 ? s.stddev() / std::sqrt(
                                                          static_cast<double>(
                                                              s.count()))
                                       : 0.0,
                         s.count()});
      }
    }
    const std::string why =
        check_monotone_impact(stats, 0.01 * chars[a].rate_uncapped);
    result.check(why.empty(), std::string(kSweeps[a].name) + ": " + why);
  }
  // Independent paths, on one cell per app: the library's own
  // exp::measure_cap_impact, and the per-tick engine fallback, must both
  // reproduce round 0 bit for bit; the trial's uncapped rate must match
  // the characterization's.
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const bool first_of_app = c == 0 || cells[c - 1].app != cells[c].app;
    if (!first_of_app) {
      continue;
    }
    const std::size_t a = cells[c].app;
    const AppSweep& sweep = kSweeps[a];
    const Impact mine = impact_of(round0[c], sweep);
    const exp::CapImpact lib = exp::measure_cap_impact(
        models[a], cells[c].cap, round_seed(0), sweep.uncapped_for,
        sweep.capped_for, kSettle);
    const Impact theirs{lib.rate_uncapped, lib.rate_capped, lib.delta,
                        lib.power_uncapped, lib.power_capped};
    result.check(mine == theirs,
                 std::string(sweep.name) +
                     ": trial differs from exp::measure_cap_impact");
    TrialSpec spec = step_trial(models[a], sweep, cells[c].cap, round_seed(0));
    spec.per_tick = true;
    result.check(same_outcome(run_node_trial(spec, nullptr), round0[c]),
                 std::string(sweep.name) +
                     ": per-tick fallback is not bit-identical");
    // Both rates count whole iterations over their span, so each may be
    // off by one iteration's progress on top of the 5 % seed spread.
    double quantum = 0.0;
    for (const auto& phase : models[a].spec.phases) {
      quantum = std::max(quantum, phase.progress_per_iter);
    }
    const double allowed =
        0.05 * chars[a].rate_uncapped +
        quantum * (1.0 / (sweep.uncapped_for - kWarmup) + 1.0 / kCharFor);
    result.check(std::abs(mine.rate_uncapped - chars[a].rate_uncapped) <=
                     allowed,
                 std::string(sweep.name) + ": uncapped rate " +
                     std::to_string(mine.rate_uncapped) +
                     " vs characterized " +
                     std::to_string(chars[a].rate_uncapped));
  }

  result.notes.push_back("rounds " + std::to_string(round_count) + " x " +
                         std::to_string(cells.size()) + " trials");
  if (args.trace) {
    std::map<std::string, double> values;
    node_layer_values(layers, values);
    accum.into(values);
    values["policy.cap_changes"] = static_cast<double>(cap_change_count);
    rapl_codec_costs(values);
    overhead_values(plain, traced, values);
    set_per_layer(result, values);
  } else {
    set_end_to_end(result, plain,
                   setup_s, round0_energy / round0_progress);
  }
  return result;
}

}  // namespace perfbench
