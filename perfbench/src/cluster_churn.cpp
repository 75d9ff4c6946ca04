// cluster_churn — a ClusterPowerManager at 16,384 nodes with the
// `progress` strategy, a FlowTracer attached and a pool two threads wide.
// A fault plan keeps crashes (with rejoin), heartbeat loss, hangs and
// slow nodes recurring through the whole round.  It bypasses sim/hw: the
// time goes to SimNode stepping on minithread, job::waterfill
// redistribution and membership.  Each round reruns the same scenario on
// a fresh manager, so every round must end on the same trace hash.
//
// It is not a timed workload of its own: its node-steps/s drifted by 20
// to 35 % between 30 s runs minutes apart, on one vCPU or three, at 4,096
// nodes or 16,384, whichever CPU picker scout chose the vCPUs, while the
// single-node workloads stayed within 4 to 8 % (README).  The scrape
// workload, whose content a cluster run produces, runs its checks on
// every run and its per-layer figures on traced runs.
#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/manager.hpp"
#include "common.hpp"
#include "job/waterfill.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace procap;

namespace {

constexpr unsigned kNodes = 16384;
constexpr unsigned kEpochs = 30;        ///< per round; 1 epoch = 1 sim s
constexpr unsigned kChurnPeriod = 30;   ///< seconds between churn waves
constexpr unsigned kPoolWidth = 2;
constexpr double kNodeStepsPerEpoch = 4.0 * kNodes;  ///< 4 ticks per epoch
static_assert(kEpochs % kChurnPeriod == 0);

/// The churn plan without its seed line.
std::string churn_plan_body() {
  std::ostringstream text;
  for (unsigned t = 0; t < kEpochs; t += kChurnPeriod) {
    text << "node " << t + 3 << " " << t + 13 << " crash frac 0.04\n"
         << "node " << t + 5 << " " << t + 11 << " hbloss frac 0.03\n"
         << "node " << t + 8 << " " << t + 20 << " slow frac 0.05 factor 0.6\n"
         << "node " << t + 10 << " " << t + 16 << " hang id "
         << (t * 977 + 5) % kNodes << "\n";
  }
  return text.str();
}

fault::FaultPlan churn_plan(std::uint64_t seed) {
  std::istringstream in("seed " + std::to_string(seed) + "\n" +
                        churn_plan_body());
  return fault::FaultPlan::parse(in);
}

cluster::ClusterConfig churn_config(std::uint64_t seed, unsigned threads) {
  cluster::ClusterConfig config;
  config.nodes = kNodes;
  config.global_budget = 120.0 * kNodes;
  config.jobs = kNodes / 8;
  config.strategy = "progress";
  config.seed = seed;
  config.threads = threads;
  config.plan = churn_plan(seed);
  return config;
}

/// One round's figures.
struct RoundStats {
  double epoch_s = 0.0;         ///< wall time inside run_epoch
  double redistribute_s = 0.0;  ///< sum of EpochRecord::redistribute_us
  std::uint64_t redistributions = 0;
  std::uint64_t hash = 0;
  std::uint64_t deaths = 0;
  std::uint64_t rejoins = 0;
  obs::FlowTracerStats flows;
};

struct RoundOptions {
  unsigned threads = kPoolWidth;
  bool tracer = true;
  bool checks = true;
};

RoundStats run_round(std::uint64_t seed, const RoundOptions& opt,
                     Result& result, std::vector<double>* redistribute_us) {
  cluster::ClusterPowerManager manager(churn_config(seed, opt.threads));
  obs::FlowTracerOptions trace_options;
  trace_options.seed = seed;
  obs::FlowTracer tracer(trace_options);
  if (opt.tracer) {
    manager.set_tracer(&tracer);
  }
  RoundStats stats;
  std::vector<char> dead(kNodes, 0);
  std::vector<unsigned> died;
  for (unsigned e = 0; e < kEpochs; ++e) {
    ++result.attempted;
    const auto t0 = Clock::now();
    const cluster::EpochRecord& rec = manager.run_epoch();
    stats.epoch_s += seconds_since(t0);
    stats.redistribute_s += rec.redistribute_us * 1e-6;
    if (!rec.held && rec.redistribute_us > 0.0) {
      ++stats.redistributions;
      if (redistribute_us != nullptr) {
        redistribute_us->push_back(rec.redistribute_us);
      }
    }
    if (!opt.checks) {
      continue;
    }
    died.clear();
    for (unsigned i = 0; i < kNodes; ++i) {
      const bool is_dead = manager.liveness(i) == cluster::Liveness::kDead;
      if (is_dead && dead[i] == 0) {
        died.push_back(i);
      }
      dead[i] = is_dead ? 1 : 0;
    }
    std::string why = check_budget(manager.caps(), manager.config().global_budget);
    if (why.empty()) {
      why = check_dead_caps(manager.caps(), died);
    }
    if (why.empty() && manager.invariant_violations() != 0) {
      why = "manager counted invariant violations";
    }
    if (!why.empty()) {
      ++result.failed;
      result.check(false, "epoch " + std::to_string(e) + ": " + why);
    }
  }
  stats.hash = manager.trace_hash();
  stats.deaths = manager.deaths();
  stats.rejoins = manager.rejoins();
  stats.flows = tracer.stats();
  return stats;
}

/// Median wall time of one job::waterfill call over kNodes items.
double waterfill_us(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<job::WaterfillItem> items(kNodes);
  for (auto& item : items) {
    item.weight = rng.uniform(0.2, 1.0);
    item.floor = 30.0;
    item.ceiling = rng.uniform(60.0, 205.0);
  }
  std::vector<double> us;
  for (int i = 0; i < 41; ++i) {
    auto copy = items;
    const auto t0 = Clock::now();
    job::waterfill(copy, 120.0 * kNodes);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return quantile(us, 0.5);
}

}  // namespace

double cluster_joules_per_progress(std::uint64_t seed, unsigned nodes,
                                   unsigned epochs,
                                   const std::string& plan_body) {
  double energy_j = 0.0;
  double progress = 0.0;
  for (unsigned m = 0; m < kClusterMixes; ++m) {
    cluster::ClusterConfig config;
    config.nodes = nodes;
    config.global_budget = 120.0 * nodes;
    config.jobs = nodes / 8;
    config.strategy = "progress";
    config.seed = seed * 1000003ULL + m;
    config.threads = 1;
    std::istringstream plan("seed " + std::to_string(config.seed) + "\n" +
                            plan_body);
    config.plan = fault::FaultPlan::parse(plan);
    cluster::ClusterPowerManager manager(config);
    const Seconds epoch_s =
        to_seconds(config.tick * config.ticks_per_epoch);
    for (unsigned e = 0; e < epochs; ++e) {
      manager.run_epoch();
      for (unsigned i = 0; i < nodes; ++i) {
        const cluster::NodeTelemetry& t = manager.node(i).telemetry();
        energy_j += t.power * epoch_s;
        progress += t.rate * epoch_s;
      }
    }
  }
  return energy_j / progress;
}

void run_cluster_churn(const Args& args, double seconds, Result& result,
                       std::map<std::string, double>* values) {
  const std::uint64_t seed = args.seed;
  const double node_steps_per_round = kNodeStepsPerEpoch * kEpochs;
  const bool traced = values != nullptr;
  RoundStats first;
  std::vector<double> redistribute_us;
  std::vector<double> flow_epoch_s;    // rounds with the FlowTracer
  std::vector<double> noflow_epoch_s;  // rounds without it
  std::vector<double> narrow_epoch_s;  // pool width 1
  std::vector<double> wide_epoch_s;    // pool width 2
  std::map<std::string, double> sums;
  // Traced runs cycle: round with the FlowTracer, round without it (the
  // tracer's own cost), both on the one fastest CPU, then a round at pool
  // width 1 and one at width 2 on the kPoolWidth + 1 fastest CPUs (the
  // caller works in parallel_for too).  Untraced runs check two rounds.
  const std::size_t kinds = traced ? 4 : 1;
  CpuPicker one_cpu(1, /*whole_process=*/true);
  CpuPicker wide(kPoolWidth + 1, /*whole_process=*/true);
  const auto start = Clock::now();
  std::size_t round = 0;
  while (round < 2 * kinds ||
         (traced && seconds_since(start) < seconds) || round % kinds != 0) {
    const std::size_t kind = round % kinds;
    if (traced && kind == 0) {
      one_cpu.next();
    } else if (kind == 2) {
      wide.next();
    }
    RoundOptions opt;
    opt.tracer = kind != 1;
    opt.threads = kind == 2 ? 1 : kPoolWidth;
    const RoundStats s = run_round(seed, opt, result,
                                   kind == 0 ? &redistribute_us : nullptr);
    if (round == 0) {
      first = s;
    } else {
      result.check(s.hash == first.hash,
                   "cluster round " + std::to_string(round) + " at width " +
                       std::to_string(opt.threads) +
                       ": trace hash differs from round 0");
    }
    (kind == 3   ? wide_epoch_s
     : kind == 2 ? narrow_epoch_s
     : kind == 1 ? noflow_epoch_s
                 : flow_epoch_s)
        .push_back(s.epoch_s);
    if (kind == 0) {
      sums["cluster.step_s"] += s.epoch_s - s.redistribute_s;
      sums["cluster.redistribute_s"] += s.redistribute_s;
      sums["cluster.node_steps"] += node_steps_per_round;
      sums["cluster.redistributions"] += static_cast<double>(s.redistributions);
      sums["cluster.deaths"] += static_cast<double>(s.deaths);
      sums["cluster.rejoins"] += static_cast<double>(s.rejoins);
      sums["trace.flows_opened"] += static_cast<double>(s.flows.opened);
      sums["trace.flows_closed"] += static_cast<double>(s.flows.closed);
      sums["trace.flows_orphaned"] += static_cast<double>(s.flows.orphaned);
    }
    ++round;
  }
  result.check(first.deaths > 0 && first.rejoins > 0,
               "no cluster churn: " + std::to_string(first.deaths) +
                   " deaths, " + std::to_string(first.rejoins) + " rejoins");

  // The allocation trace must not depend on the pool width (traced runs
  // already compared their width-1 rounds above).
  if (!traced) {
    RoundOptions narrow;
    narrow.threads = 1;
    narrow.checks = false;
    Result unchecked;
    const RoundStats w1 = run_round(seed, narrow, unchecked, nullptr);
    result.check(w1.hash == first.hash,
                 "cluster trace hash at pool width 1 differs from width 2");
  }

  result.notes.push_back("cluster churn: " + std::to_string(round) +
                         " rounds x " + std::to_string(kEpochs) +
                         " epochs of " + std::to_string(kNodes) + " nodes");
  if (!traced) {
    return;
  }
  const double traced_rounds = sums["cluster.node_steps"] / node_steps_per_round;
  for (const auto& [name, value] : sums) {
    (*values)[name] = value;
  }
  (*values)["cluster.redistribute_p99_us"] = quantile(redistribute_us, 0.99);
  (*values)["cluster.host_ns_per_node_step"] =
      sums["cluster.step_s"] * 1e9 / sums["cluster.node_steps"];
  (*values)["job.waterfill_us"] = waterfill_us(seed);
  (*values)["minithread.speedup_w2"] =
      quantile(narrow_epoch_s, 0.5) / quantile(wide_epoch_s, 0.5);
  (*values)["obs.tracer_cost_s"] =
      (quantile(flow_epoch_s, 0.5) - quantile(noflow_epoch_s, 0.5)) *
      traced_rounds;
}

}  // namespace perfbench
