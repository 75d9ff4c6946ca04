// Self-tests of the benchmark's correctness checks: each check must pass
// a good input and fail the same input corrupted.  Where the program can
// produce the input (the Prometheus exposition, /cluster.json), the good
// input is the program's own output.
//
//   python3 perfbench/run.py --selftest
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/manager.hpp"
#include "cluster/telemetry.hpp"
#include "obs/metrics.hpp"

namespace {

int g_failures = 0;
int g_cases = 0;

void expect(bool passes, const std::string& why, const char* name) {
  ++g_cases;
  if (passes != why.empty()) {
    ++g_failures;
    std::cerr << "FAIL " << name << ": expected "
              << (passes ? "pass" : "failure") << ", got '" << why << "'\n";
  }
}

procap::TimeSeries series(const std::vector<double>& values) {
  procap::TimeSeries s("caps");
  procap::Nanos t = 0;
  for (const double v : values) {
    s.add(t, v);
    t += procap::kNanosPerSecond;
  }
  return s;
}

std::string reply(const std::string& body, std::size_t claimed,
                  int status = 200) {
  return "HTTP/1.1 " + std::to_string(status) +
         " OK\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(claimed) + "\r\n\r\n" + body;
}

}  // namespace

int main() {
  using namespace perfbench;
  const double unit = 6.103515625e-5;

  expect(true, check_energy_pair(3500.0, 3500.0 - 0.9 * unit, unit),
         "energy pair within one LSB");
  expect(false, check_energy_pair(3500.0, 3500.0 + 3.0 * unit, unit),
         "energy pair off by three LSBs");

  expect(true, check_power_under_cap(94.6, 95.0, 21.0), "power under cap");
  expect(false, check_power_under_cap(99.0, 95.0, 21.0), "power over cap");
  expect(true, check_power_under_cap(24.0, 20.0, 21.0),
         "cap below the static floor is exempt");

  const std::vector<CapStat> monotone = {
      {30.0, 50.0, 1.0, 4}, {40.0, 40.0, 1.0, 4}, {50.0, 41.0, 1.0, 4}};
  expect(true, check_monotone_impact(monotone, 0.5),
         "impact falls with the cap within seed spread");
  std::vector<CapStat> inverted = monotone;
  inverted[0].mean = 20.0;
  expect(false, check_monotone_impact(inverted, 0.5),
         "impact at a lower cap far below a higher cap's");
  std::vector<CapStat> one_seed = monotone;
  one_seed[1].n = 1;
  expect(false, check_monotone_impact(one_seed, 0.5), "a cap with one seed");

  const procap::policy::CapBounds bounds{40.0, 160.0};
  expect(true, check_caps_in_bounds(series({0.0, 95.0, 110.0}), bounds, 110.0),
         "caps inside bounds and budget");
  expect(false, check_caps_in_bounds(series({0.0, 150.0}), bounds, 110.0),
         "a cap over the node budget");
  expect(false, check_caps_in_bounds(series({30.0}), bounds, 160.0),
         "a cap under CapBounds::min_cap");

  expect(true, check_setpoint_band(105.0, 100.0, 0.10), "rate within band");
  expect(false, check_setpoint_band(120.0, 100.0, 0.10), "rate off the band");

  expect(true, check_budget({100.0, 200.0, 0.0}, 300.0), "caps within budget");
  expect(false, check_budget({100.0, 200.5, 0.0}, 300.0),
         "a cap vector over budget");
  expect(true, check_dead_caps({100.0, 0.0}, {1}), "dead node has cap 0");
  expect(false, check_dead_caps({100.0, 5.0}, {1}), "dead node keeps a cap");

  HttpReply out;
  expect(true, check_http_reply(reply("{\"a\":1}", 7), out), "whole reply");
  expect(false, check_http_reply(reply("{\"a\":", 7), out),
         "body shorter than its Content-Length");
  expect(false, check_http_reply(reply("{\"a\":1}", 7, 500), out),
         "a non-200 status");
  expect(false,
         check_http_reply("HTTP/1.1 200 OK\r\nX: y\r\n\r\n{\"a\":1}", out),
         "no Content-Length");

  // The program's own /cluster.json and exposition, then corrupted.
  procap::cluster::ClusterConfig config;
  config.nodes = 8;
  config.global_budget = 960.0;
  config.jobs = 2;
  config.threads = 1;
  procap::cluster::ClusterPowerManager manager(config);
  auto& registry = procap::obs::Registry::global();
  procap::cluster::ClusterTelemetry telemetry(registry);
  for (int e = 0; e < 3; ++e) {
    manager.run_epoch();
  }
  telemetry.update(manager);
  std::ostringstream doc;
  telemetry.write_cluster_json(doc, 0);
  const std::string cluster_json = doc.str();
  expect(true, check_cluster_caps(cluster_json, manager.assigned()),
         "/cluster.json caps sum to assigned()");
  expect(false, check_cluster_caps(cluster_json, manager.assigned() + 1.0),
         "/cluster.json caps that do not sum to assigned()");
  std::string bumped = cluster_json;
  const std::size_t cap_at = bumped.find("\"cap\":");
  bumped.insert(cap_at + 6, "1");  // 95.5 -> 195.5
  expect(false, check_cluster_caps(bumped, manager.assigned()),
         "/cluster.json with one cap altered");
  expect(false, check_cluster_caps("{\"nodes\":[", manager.assigned()),
         "truncated /cluster.json");

  registry.counter("perfbench.selftest.counter").inc();
  (void)registry.sketch("perfbench.selftest.sketch");
  std::ostringstream exposition;
  registry.write_prometheus(exposition);
  const std::vector<std::string> names = {"perfbench.selftest.counter",
                                          "perfbench.selftest.sketch",
                                          "cluster.node.power"};
  expect(true, check_exposition(exposition.str(), names),
         "exposition lists every registered instrument");
  expect(false, check_exposition(exposition.str(), {"perfbench.never"}),
         "exposition missing an instrument");
  expect(false, check_exposition(exposition.str() + "procap_x{a=\"1\"} ten\n",
                                 names),
         "exposition with an unparsable sample value");

  std::cout << "selftest: " << g_cases - g_failures << " of " << g_cases
            << " cases behaved as expected\n";
  return g_failures == 0 ? 0 : 1;
}
