// checks.hpp — the benchmark's correctness checks as pure functions, so
// the self-tests (perfbench/selftest) can feed each one a corrupted
// input and see it fail.  Each returns an empty string when the input
// passes and a one-line reason when it does not.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "policy/controller.hpp"
#include "util/series.hpp"
#include "util/units.hpp"

namespace perfbench {

/// hw::Package::energy() (analytic integral) against
/// RaplInterface::pkg_energy() (wrapped MSR counter decode): they may
/// differ by the counter's quantization, at most a couple of LSBs.
[[nodiscard]] std::string check_energy_pair(procap::Joules package,
                                            procap::Joules rapl,
                                            procap::Joules energy_unit);

/// Settled mean package power must not exceed the cap by more than the
/// firmware's tracking tolerance; caps at or below the static floor are
/// exempt (no operating point reaches them).
[[nodiscard]] std::string check_power_under_cap(procap::Watts settled,
                                                procap::Watts cap,
                                                procap::Watts static_floor);

/// Mean change in progress at one cap over several seeds.
struct CapStat {
  procap::Watts cap = 0.0;
  double mean = 0.0;
  double sem = 0.0;  ///< standard error of the mean over seeds
  std::size_t n = 0;
};

/// Lowering the cap must not reduce the mean loss of progress, up to
/// the seed spread: for caps sorted ascending, mean[i] >= mean[i+1] -
/// 3 * (sem[i] + sem[i+1]) - slack.  Needs >= 2 seeds per cap.
[[nodiscard]] std::string check_monotone_impact(std::vector<CapStat> stats,
                                                double slack);

/// Every programmed cap (0 = uncapped) lies inside `bounds` and at or
/// below `ceiling`.
[[nodiscard]] std::string check_caps_in_bounds(
    const procap::TimeSeries& caps, const procap::policy::CapBounds& bounds,
    procap::Watts ceiling);

/// |rate / setpoint - 1| <= band.
[[nodiscard]] std::string check_setpoint_band(double rate, double setpoint,
                                              double band);

/// The benchmark's own sum of a cluster cap vector is within budget.
[[nodiscard]] std::string check_budget(const std::vector<double>& caps,
                                       procap::Watts budget);

/// Each node listed in `died` has cap 0.
[[nodiscard]] std::string check_dead_caps(const std::vector<double>& caps,
                                          const std::vector<unsigned>& died);

/// One HTTP/1.1 response as read off the wire.
struct HttpReply {
  int status = 0;
  std::size_t content_length = 0;
  bool gzip = false;
  std::string body;
};

/// Parse one complete response (head + body) from `raw`; fails unless it
/// is a 200 carrying a Content-Length equal to the body length.
[[nodiscard]] std::string check_http_reply(std::string_view raw,
                                           HttpReply& out);

/// The node caps in a full /cluster.json document sum to `assigned`.
[[nodiscard]] std::string check_cluster_caps(std::string_view json,
                                             double assigned);

/// The Prometheus text parses (every sample line is `name[{labels}]
/// value`) and lists each of `instruments` (registry names, dotted).
[[nodiscard]] std::string check_exposition(
    std::string_view text, const std::vector<std::string>& instruments);

}  // namespace perfbench
