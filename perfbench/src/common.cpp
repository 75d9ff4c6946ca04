#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "apps/suite.hpp"
#include "exp/measure.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
// Written by the CPU scout so the optimizer keeps its work.
volatile double g_scout_sink = 0.0;

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}
}  // namespace

Clock::time_point process_start() { return g_process_start; }

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  // VmHWM is this program's own peak.  ru_maxrss is not: Linux carries it
  // across exec, so it keeps the launching interpreter's larger peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double registry_value(const std::string& name) {
  double total = 0.0;
  for (const auto& s : procap::obs::Registry::global().snapshot()) {
    if (s.name == name) {
      total += s.type <= 1 ? s.value : static_cast<double>(s.count);
    }
  }
  return total;
}

CpuPicker::CpuPicker(std::size_t width, bool whole_process)
    : width_(width), whole_process_(whole_process) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
  width_ = std::clamp<std::size_t>(width_, 1, std::max<std::size_t>(1, cpus_.size()));
}

CpuPicker::~CpuPicker() {
  if (!cpus_.empty()) {
    pin(cpus_, whole_process_);
  }
}

void CpuPicker::next() {
  if (cpus_.size() <= width_) {
    return;
  }
  static const procap::apps::AppModel model = procap::apps::by_name("lammps");
  std::vector<std::pair<double, int>> speed;
  for (const int cpu : cpus_) {
    pin({cpu}, false);
    double best = 0.0;
    for (int rep = 0; rep < 2; ++rep) {  // the better of two runs
      const auto s0 = Clock::now();
      g_scout_sink = g_scout_sink +
                     procap::exp::characterize(model, 1.6e9, 2.0, 1).rate_uncapped;
      const double s = seconds_since(s0);
      best = rep == 0 ? s : std::min(best, s);
    }
    speed.emplace_back(best, cpu);
  }
  std::sort(speed.begin(), speed.end());
  std::vector<int> fastest;
  for (std::size_t i = 0; i < width_; ++i) {
    fastest.push_back(speed[i].second);
  }
  pin(fastest, whole_process_);
}

void CpuPicker::pin(const std::vector<int>& cpus, bool all_threads) const {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  if (!all_threads) {
    sched_setaffinity(0, sizeof set, &set);
    return;
  }
  // Every thread of this process: /proc/self/task lists their ids.
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0) {
        sched_setaffinity(tid, sizeof set, &set);
      }
    }
    closedir(dir);
  }
}

namespace {
std::vector<double> window_rates(const Timing& timing) {
  std::vector<double> rates;
  for (const Window& w : timing.windows) {
    rates.push_back(w.rate);
  }
  return rates;
}
}  // namespace

double Timing::fast_rate() const {
  const std::vector<double> rates = window_rates(*this);
  const double cut = quantile(rates, kFastQuantile);
  std::vector<double> fast;
  for (const double r : rates) {
    if (r >= cut) {
      fast.push_back(r);
    }
  }
  return quantile(fast, 0.5);
}

std::vector<double> Timing::fast_latencies() const {
  const double cut = quantile(window_rates(*this), kFastQuantile);
  std::vector<double> out;
  for (const Window& w : windows) {
    if (w.rate >= cut) {
      out.insert(out.end(), latencies_ms.begin() + w.begin,
                 latencies_ms.begin() + w.end);
    }
  }
  return out;
}

void set_end_to_end(Result& result, const Timing& timing, double setup_s,
                    double joules_per_progress) {
  const std::vector<double> fast = timing.fast_latencies();
  result.set("throughput", timing.fast_rate(), "1/s");
  result.set("latency_p50_ms", quantile(fast, 0.50), "ms");
  result.set("latency_p90_ms", quantile(fast, 0.90), "ms");
  result.set("setup_s", setup_s, "s");
  result.set("joules_per_progress", joules_per_progress, "J/progress");
  result.set("peak_rss_mb", peak_rss_mb(), "MiB");
  const std::vector<double> rates = window_rates(timing);
  result.notes.push_back(
      "windows " + std::to_string(rates.size()) + ", rate p10/p50/p90 " +
      std::to_string(quantile(rates, 0.1)) + " / " +
      std::to_string(quantile(rates, 0.5)) + " / " +
      std::to_string(quantile(rates, 0.9)) + ", latency p99 " +
      std::to_string(quantile(fast, 0.99)) + " ms, latency samples " +
      std::to_string(fast.size()) + " of " +
      std::to_string(timing.latencies_ms.size()));
}

void overhead_values(const Timing& plain, const Timing& traced,
                     std::map<std::string, double>& out) {
  const double p = plain.fast_rate();
  const double t = traced.fast_rate();
  out["bench.untraced_throughput"] = p;
  out["bench.traced_throughput"] = t;
  out["bench.trace_overhead_pct"] = t > 0.0 ? (p / t - 1.0) * 100.0 : 0.0;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.spans", "count"},
      {"sim.ticks", "count"},
      {"sim.ticks_per_span", "ticks/span"},
      {"sim.events", "count"},
      {"sim.dispatch_s", "s"},
      {"hw.advance_s", "s"},
      {"hw.host_ns_per_sim_s", "ns/sim_s"},
      {"progress.poll_s", "s"},
      {"progress.samples", "count"},
      {"progress.windows", "count"},
      {"bus.published", "count"},
      {"bus.delivered", "count"},
      {"bus.dropped", "count"},
      {"policy.tick_s", "s"},
      {"policy.decide_s", "s"},
      {"policy.decisions", "count"},
      {"policy.cap_changes", "count"},
      {"rapl.cap_writes", "count"},
      {"rapl.power_reads", "count"},
      {"rapl.energy_reads", "count"},
      {"rapl.limit_codec_ns", "ns"},
      {"rapl.energy_decode_ns", "ns"},
      {"exp.rig_build_us", "us"},
      {"cluster.step_s", "s"},
      {"cluster.redistribute_s", "s"},
      {"cluster.redistribute_p99_us", "us"},
      {"cluster.node_steps", "count"},
      {"cluster.redistributions", "count"},
      {"cluster.deaths", "count"},
      {"cluster.rejoins", "count"},
      {"cluster.host_ns_per_node_step", "ns"},
      {"job.waterfill_us", "us"},
      {"minithread.speedup_w2", "x"},
      {"trace.flows_opened", "count"},
      {"trace.flows_closed", "count"},
      {"trace.flows_orphaned", "count"},
      {"obs.tracer_cost_s", "s"},
      {"obs.render_metrics_ms", "ms"},
      {"obs.render_timeseries_ms", "ms"},
      {"obs.render_cluster_ms", "ms"},
      {"obs.render_traces_ms", "ms"},
      {"obs.handler_s", "s"},
      {"obs.server_s", "s"},
      {"obs.http_requests", "count"},
      {"obs.bytes_served", "bytes"},
      {"obs.gzip_responses", "count"},
      {"bench.untraced_throughput", "1/s"},
      {"bench.traced_throughput", "1/s"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kMetrics;
}

void set_per_layer(Result& result,
                   const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    result.set(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : per_layer_metrics()) {
      known = known || m.first == name;
    }
    if (!known) {
      std::cerr << "internal: unlisted per-layer metric " << name << "\n";
      result.correct = false;
    }
  }
}

int emit(const Args& args, const Result& result) {
  utsname uts{};
  uname(&uts);
  std::cout << "perfbench " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace
            << "\nprovenance: build " << PERFBENCH_BUILD_TYPE << ", compiler "
            << PERFBENCH_COMPILER << ", nproc "
            << std::thread::hardware_concurrency() << ", cpu \""
            << cpu_model() << "\", kernel " << uts.release << "\n";
  for (const auto& note : result.notes) {
    std::cout << note << "\n";
  }
  for (const auto& [name, m] : result.metrics) {
    std::cout << "  " << name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream js;
  js << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace perfbench
