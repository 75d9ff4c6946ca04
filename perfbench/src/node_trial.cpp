#include "node_trial.hpp"

#include <algorithm>
#include <optional>

#include "apps/app.hpp"
#include "common.hpp"
#include "fault/injectors.hpp"
#include "hw/node.hpp"
#include "msgbus/bus.hpp"
#include "policy/daemon.hpp"
#include "policy/nrm.hpp"
#include "progress/monitor.hpp"
#include "rapl/codec.hpp"
#include "rapl/rapl.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using namespace procap;

namespace {

/// Times the node's span advances; registered in place of the node.
class TimedNode final : public sim::Component {
 public:
  TimedNode(hw::Node& node, NodeLayers& layers)
      : node_(node), layers_(layers) {}

  void step(Nanos now, Nanos dt) override {
    Span span(&layers_.advance_s);
    ++layers_.spans;
    node_.step(now, dt);
  }
  [[nodiscard]] bool batched() const override { return node_.batched(); }
  Nanos advance(Nanos now, Nanos span_ns, Nanos dt,
                sim::SpanContext* ctx) override {
    Span span(&layers_.advance_s);
    ++layers_.spans;
    return node_.advance(now, span_ns, dt, ctx);
  }

 private:
  hw::Node& node_;
  NodeLayers& layers_;
};

/// Forwarding decorator that times decide().
class TimedController final : public policy::Controller {
 public:
  TimedController(std::unique_ptr<policy::Controller> inner,
                  NodeLayers& layers)
      : inner_(std::move(inner)), layers_(layers) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] std::optional<Watts> decide(
      const policy::Observation& observation,
      const policy::CapBounds& bounds) override {
    Span span(&layers_.decide_s);
    ++layers_.decisions;
    return inner_->decide(observation, bounds);
  }
  void reset() override { inner_->reset(); }
  void degrade() override { inner_->degrade(); }
  [[nodiscard]] bool wants_power() const override {
    return inner_->wants_power();
  }
  [[nodiscard]] policy::ControllerStatus status() const override {
    return inner_->status();
  }

 private:
  std::unique_ptr<policy::Controller> inner_;
  NodeLayers& layers_;
};

/// The rig exp::SimRig builds, in the same construction order, minus the
/// engine registration (the trial registers the node or its timer).
struct Rig {
  sim::Engine engine;
  hw::Node node;
  msgbus::Broker broker;
  rapl::RaplInterface rapl;
  Rig()
      : engine(msec(1)),
        node(hw::NodeSpec{}),
        broker(engine.time()),
        rapl(node.msr(), engine.time(), node.package_leaders()) {}
};

}  // namespace

double TrialOutcome::mean_rate(Seconds from, Seconds to) const {
  return rates.mean_in(to_nanos(from), to_nanos(to));
}

double TrialOutcome::mean_power(Seconds from, Seconds to) const {
  return power.mean_in(to_nanos(from), to_nanos(to));
}

TrialOutcome run_node_trial(const TrialSpec& spec, NodeLayers* layers) {
  const auto build_start = Clock::now();
  Rig rig;
  if (layers != nullptr) {
    layers->rig_build_s += seconds_since(build_start);
  }
  rig.engine.set_per_tick_fallback(spec.per_tick ||
                                   rig.engine.per_tick_fallback());
  std::optional<TimedNode> timed_node;
  if (layers != nullptr) {
    timed_node.emplace(rig.node, *layers);
    rig.engine.add(*timed_node);
  } else {
    rig.engine.add(rig.node);
  }
  hw::Package& package = rig.node.package(0);

  msgbus::LinkOptions link;
  std::shared_ptr<fault::LinkFaultInjector> injector;
  if (spec.link_plan != nullptr) {
    injector = std::make_shared<fault::LinkFaultInjector>(*spec.link_plan);
    link.fault = injector;
  }
  apps::SimApp app(package, rig.broker, spec.app->spec, spec.seed);
  progress::Monitor monitor(rig.broker.make_sub(link), spec.app->spec.name,
                            rig.engine.time());

  std::unique_ptr<policy::Controller> controller = spec.make_controller();
  if (layers != nullptr) {
    controller =
        std::make_unique<TimedController>(std::move(controller), *layers);
  }
  double* tick_acc = layers != nullptr ? &layers->tick_s : nullptr;
  double* poll_acc = layers != nullptr ? &layers->poll_s : nullptr;

  std::optional<policy::PowerPolicyDaemon> daemon;
  std::optional<policy::NodeResourceManager> nrm;
  if (spec.host == Host::kDaemon) {
    policy::DaemonConfig config;
    config.bounds = spec.bounds;
    daemon.emplace(rig.rapl, rig.engine.time(), std::move(controller),
                   /*pkg=*/0, config);
    policy::ProgressFeed feed;
    feed.rate = [&monitor] { return monitor.current_rate(); };
    feed.windows = [&monitor] { return monitor.windows(); };
    feed.healthy = [&monitor] {
      return monitor.health() == progress::SignalHealth::kHealthy;
    };
    daemon->set_progress_feed(std::move(feed));
    // Same order as exp::run_under_controller: the monitor polls before
    // the daemon ticks on every shared 1 s boundary.
    rig.engine.every(kNanosPerSecond, [&monitor, poll_acc](Nanos) {
      Span span(poll_acc);
      monitor.poll();
    });
    daemon->set_tick_interval(kNanosPerSecond);
    rig.engine.every(kNanosPerSecond, [&daemon, tick_acc](Nanos) {
      Span span(tick_acc);
      daemon->tick();
    });
  } else {
    policy::NrmConfig config;
    config.min_cap = spec.bounds.min_cap;
    config.max_cap = spec.bounds.max_cap;
    nrm.emplace(rig.rapl, monitor, rig.engine.time(), config);
    nrm->set_controller(std::move(controller));
    nrm->set_node_budget(spec.node_budget);
    // The NRM polls its monitor inside tick().
    rig.engine.every(kNanosPerSecond, [&nrm, tick_acc](Nanos) {
      Span span(tick_acc);
      nrm->tick();
    });
  }

  // exp::run_under_controller samples frequency and duty at 10 Hz; the
  // callback splits spans, so the trial keeps it to do the same work.
  TimeSeries freq_series("frequency_mhz");
  TimeSeries duty_series("duty");
  double* sample_acc = layers != nullptr ? &layers->sample_s : nullptr;
  rig.engine.every(msec(100), [&](Nanos now) {
    Span span(sample_acc);
    freq_series.add(now, as_mhz(package.frequency()));
    duty_series.add(now, package.duty());
  });

  const Joules e0 = package.energy();
  const Joules r0 = rig.rapl.pkg_energy();
  app.set_on_done([&rig] { rig.engine.request_stop(); });
  {
    Span span(layers != nullptr ? &layers->run_s : nullptr);
    rig.engine.run_until([&] { return app.done(); },
                         to_nanos(spec.duration));
  }
  monitor.poll();  // flush the final windows

  TrialOutcome out;
  out.total_progress = app.total_progress();
  out.pkg_energy = package.energy() - e0;
  out.rapl_energy = rig.rapl.pkg_energy() - r0;
  out.energy_unit = rig.rapl.units().energy_unit;
  out.rates = monitor.rates();
  if (daemon) {
    out.caps = daemon->cap_series();
    out.power = daemon->power_series();
  } else {
    out.caps = nrm->cap_series();
  }
  const rapl::PkgPowerLimit limit = rig.rapl.pkg_limit();
  out.final_limit = limit.pl1.power;
  out.final_limit_enabled = limit.pl1.enabled;
  out.ticks = rig.engine.ticks();
  if (layers != nullptr) {
    layers->sim_s += to_seconds(rig.engine.now());
    layers->ticks += rig.engine.ticks();
    layers->samples += monitor.samples();
    layers->windows += monitor.windows();
    ++layers->trials;
  }
  return out;
}

bool same_outcome(const TrialOutcome& a, const TrialOutcome& b) {
  return a.total_progress == b.total_progress &&
         a.pkg_energy == b.pkg_energy && a.rapl_energy == b.rapl_energy &&
         a.rates.samples() == b.rates.samples() &&
         a.caps.samples() == b.caps.samples() &&
         a.power.samples() == b.power.samples() &&
         a.final_limit == b.final_limit;
}

void node_layer_values(const NodeLayers& l, std::map<std::string, double>& out) {
  out["sim.spans"] = static_cast<double>(l.spans);
  out["sim.ticks"] = static_cast<double>(l.ticks);
  out["sim.ticks_per_span"] =
      l.spans > 0 ? static_cast<double>(l.ticks) / static_cast<double>(l.spans)
                  : 0.0;
  out["sim.dispatch_s"] =
      l.run_s - l.advance_s - l.poll_s - l.tick_s - l.sample_s;
  out["hw.advance_s"] = l.advance_s;
  out["hw.host_ns_per_sim_s"] = l.sim_s > 0.0 ? l.advance_s * 1e9 / l.sim_s : 0.0;
  out["progress.poll_s"] = l.poll_s;
  out["progress.samples"] = static_cast<double>(l.samples);
  out["progress.windows"] = static_cast<double>(l.windows);
  out["policy.tick_s"] = l.tick_s;
  out["policy.decide_s"] = l.decide_s;
  out["policy.decisions"] = static_cast<double>(l.decisions);
  out["exp.rig_build_us"] =
      l.trials > 0 ? l.rig_build_s * 1e6 / static_cast<double>(l.trials) : 0.0;
}

namespace {
// Written after each timed loop so the optimizer keeps the loop's work.
volatile std::uint64_t g_sink = 0;
}  // namespace

void rapl_codec_costs(std::map<std::string, double>& out) {
  const rapl::RaplUnits units = rapl::RaplUnits::skylake();
  constexpr int kCalls = 200000;
  std::uint64_t sink = 0;
  auto t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    rapl::PkgPowerLimit limit;
    limit.pl1.power = 20.0 + static_cast<double>(i % 1600) * 0.125;
    limit.pl1.time_window = 0.01;
    limit.pl1.enabled = true;
    const std::uint64_t raw = limit.encode(units);
    sink += static_cast<std::uint64_t>(
        rapl::PkgPowerLimit::decode(raw ^ (sink & 1), units).pl1.power);
  }
  out["rapl.limit_codec_ns"] = seconds_since(t0) * 1e9 / kCalls;
  rapl::EnergyAccumulator acc(units);
  t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    acc.sample(static_cast<std::uint32_t>(i) * 40961u + (sink & 1));
  }
  out["rapl.energy_decode_ns"] = seconds_since(t0) * 1e9 / kCalls;
  g_sink = sink + static_cast<std::uint64_t>(acc.total());
}

std::uint64_t cap_changes(const TimeSeries& caps) {
  std::uint64_t n = 0;
  for (std::size_t i = 1; i < caps.size(); ++i) {
    n += caps[i].value != caps[i - 1].value ? 1 : 0;
  }
  return n;
}

void RegistryAccum::begin() {
  for (const auto& name : names_) {
    base_[name] = registry_value(name);
  }
}

void RegistryAccum::end() {
  for (const auto& name : names_) {
    sum_[name] += registry_value(name) - base_[name];
  }
}

void RegistryAccum::into(std::map<std::string, double>& out) const {
  for (const auto& name : names_) {
    const auto it = sum_.find(name);
    out[name] = it == sum_.end() ? 0.0 : it->second;
  }
}

std::size_t run_rounds(
    double seconds, bool trace, std::size_t min_rounds,
    const std::function<std::size_t(std::size_t, NodeLayers*,
                                    std::vector<double>&)>& round,
    NodeLayers& layers, RegistryAccum& accum, Timing& plain, Timing& traced) {
  std::size_t count = 0;
  const auto start = Clock::now();
  CpuPicker cpu;
  while (count < min_rounds || seconds_since(start) < seconds) {
    if (!trace || count % 2 == 0) {
      cpu.next();  // a plain round and its traced twin share a CPU
    }
    const bool is_traced = trace && count % 2 == 1;
    Timing& timing = is_traced ? traced : plain;
    if (is_traced) {
      accum.begin();
    }
    const std::size_t begin = timing.latencies_ms.size();
    const auto t0 = Clock::now();
    const std::size_t ops =
        round(count, is_traced ? &layers : nullptr, timing.latencies_ms);
    timing.close(begin, static_cast<double>(ops), seconds_since(t0));
    if (is_traced) {
      accum.end();
    }
    ++count;
  }
  return count;
}

}  // namespace perfbench
