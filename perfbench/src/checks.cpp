#include "checks.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace perfbench {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

/// Prometheus family name of a dotted registry name (the exporter's rule:
/// procap_ prefix, every character outside [A-Za-z0-9_:] becomes '_').
std::string exposition_name(const std::string& name) {
  std::string out = "procap_";
  for (const char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                          c == ':'
                      ? c
                      : '_');
  }
  return out;
}

}  // namespace

std::string check_energy_pair(procap::Joules package, procap::Joules rapl,
                              procap::Joules energy_unit) {
  const double tolerance = 2.0 * energy_unit + 1e-9 * std::abs(package);
  if (!(std::abs(package - rapl) <= tolerance)) {
    return "package energy " + fmt(package) + " J vs RAPL " + fmt(rapl) +
           " J differ by more than " + fmt(tolerance) + " J";
  }
  return "";
}

std::string check_power_under_cap(procap::Watts settled, procap::Watts cap,
                                  procap::Watts static_floor) {
  if (cap <= static_floor) {
    return "";
  }
  const double limit = cap * 1.02 + 0.5;
  if (!(settled <= limit)) {
    return "settled power " + fmt(settled) + " W over cap " + fmt(cap) +
           " W (limit " + fmt(limit) + " W)";
  }
  return "";
}

std::string check_monotone_impact(std::vector<CapStat> stats, double slack) {
  std::sort(stats.begin(), stats.end(),
            [](const CapStat& a, const CapStat& b) { return a.cap < b.cap; });
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].n < 2) {
      return "cap " + fmt(stats[i].cap) + " W has " +
             std::to_string(stats[i].n) + " seeds (need >= 2)";
    }
  }
  for (std::size_t i = 0; i + 1 < stats.size(); ++i) {
    const CapStat& lo = stats[i];
    const CapStat& hi = stats[i + 1];
    const double allowed = 3.0 * (lo.sem + hi.sem) + slack;
    if (lo.mean < hi.mean - allowed) {
      return "mean progress loss " + fmt(lo.mean) + " at " + fmt(lo.cap) +
             " W is below " + fmt(hi.mean) + " at " + fmt(hi.cap) +
             " W by more than the seed spread " + fmt(allowed);
    }
  }
  return "";
}

std::string check_caps_in_bounds(const procap::TimeSeries& caps,
                                  const procap::policy::CapBounds& bounds,
                                  procap::Watts ceiling) {
  const double hi = std::min(bounds.max_cap, ceiling);
  for (const auto& s : caps.samples()) {
    if (s.value == 0.0) {
      continue;  // uncapped
    }
    if (!(s.value >= bounds.min_cap && s.value <= hi)) {
      return "cap " + fmt(s.value) + " W at t=" + fmt(procap::to_seconds(s.t)) +
             " s outside [" + fmt(bounds.min_cap) + ", " + fmt(hi) + "] W";
    }
  }
  return "";
}

std::string check_setpoint_band(double rate, double setpoint, double band) {
  if (!(setpoint > 0.0) || !(std::abs(rate / setpoint - 1.0) <= band)) {
    return "mean rate " + fmt(rate) + " is not within " + fmt(band * 100.0) +
           " % of setpoint " + fmt(setpoint);
  }
  return "";
}

std::string check_budget(const std::vector<double>& caps,
                         procap::Watts budget) {
  double sum = 0.0;
  for (const double c : caps) {
    sum += c;
  }
  if (!(sum <= budget * (1.0 + 1e-12) + 1e-6)) {
    return "sum of caps " + fmt(sum) + " W exceeds budget " + fmt(budget) +
           " W";
  }
  return "";
}

std::string check_dead_caps(const std::vector<double>& caps,
                            const std::vector<unsigned>& died) {
  for (const unsigned node : died) {
    if (node >= caps.size() || caps[node] != 0.0) {
      return "node " + std::to_string(node) + " died but keeps cap " +
             (node < caps.size() ? fmt(caps[node]) : std::string("?")) +
             " W";
    }
  }
  return "";
}

std::string check_http_reply(std::string_view raw, HttpReply& out) {
  out = HttpReply{};
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return "response head is not terminated";
  }
  const std::string_view head = raw.substr(0, head_end);
  if (head.rfind("HTTP/1.1 ", 0) != 0 || head.size() < 12) {
    return "not an HTTP/1.1 status line";
  }
  out.status = std::atoi(std::string(head.substr(9, 3)).c_str());
  bool have_length = false;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos < head.size()) {
    const std::size_t next = head.find("\r\n", pos + 2);
    std::string line(head.substr(pos + 2, next == std::string_view::npos
                                              ? std::string_view::npos
                                              : next - pos - 2));
    std::string lower = line;
    std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
      return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    });
    if (lower.rfind("content-length:", 0) == 0) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(line.c_str() + 15, &end, 10);
      have_length = end != line.c_str() + 15;
      out.content_length = static_cast<std::size_t>(n);
    } else if (lower.rfind("content-encoding:", 0) == 0) {
      out.gzip = lower.find("gzip") != std::string::npos;
    }
    pos = next;
  }
  out.body = std::string(raw.substr(head_end + 4));
  if (out.status != 200) {
    return "status " + std::to_string(out.status);
  }
  if (!have_length) {
    return "no Content-Length";
  }
  if (out.body.size() != out.content_length) {
    return "body has " + std::to_string(out.body.size()) +
           " bytes, Content-Length says " +
           std::to_string(out.content_length);
  }
  return "";
}

std::string check_cluster_caps(std::string_view json, double assigned) {
  procap::obs::json::Value doc;
  try {
    doc = procap::obs::json::parse(json);
  } catch (const std::exception& e) {
    return std::string("cluster.json does not parse: ") + e.what();
  }
  const procap::obs::json::Value* nodes = doc.find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->array.empty()) {
    return "cluster.json has no nodes";
  }
  double sum = 0.0;
  for (const auto& node : nodes->array) {
    const procap::obs::json::Value* cap = node.find("cap");
    if (cap == nullptr || !cap->is_number()) {
      return "cluster.json node without a numeric cap";
    }
    sum += cap->number;
  }
  if (!(std::abs(sum - assigned) <= 1e-9 * std::max(1.0, assigned))) {
    return "cluster.json caps sum to " + fmt(sum) + " W, assigned() is " +
           fmt(assigned) + " W";
  }
  return "";
}

std::string check_exposition(std::string_view text,
                             const std::vector<std::string>& instruments) {
  std::set<std::string> families;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    const std::string line(text.substr(start, end - start));
    start = end + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      std::istringstream in(line);
      std::string hash, kind, name, type;
      in >> hash >> kind >> name >> type;
      if (kind == "TYPE") {
        if (name.empty() || type.empty()) {
          return "line " + std::to_string(line_no) + ": malformed # TYPE";
        }
        families.insert(name);
      }
      continue;
    }
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == 0 || name_end == std::string::npos) {
      return "line " + std::to_string(line_no) + ": no metric name";
    }
    std::size_t value_at = name_end;
    if (line[name_end] == '{') {
      // Label values are escaped, so the set ends at the first '}' that
      // is outside a quoted value.
      bool quoted = false;
      std::size_t i = name_end + 1;
      for (; i < line.size(); ++i) {
        if (quoted && line[i] == '\\') {
          ++i;
        } else if (line[i] == '"') {
          quoted = !quoted;
        } else if (!quoted && line[i] == '}') {
          break;
        }
      }
      if (i >= line.size()) {
        return "line " + std::to_string(line_no) + ": unterminated labels";
      }
      value_at = i + 1;
    }
    const std::string value = line.substr(value_at);
    char* parsed_end = nullptr;
    std::strtod(value.c_str(), &parsed_end);
    if (value.empty() || value[0] != ' ' || parsed_end == value.c_str() ||
        *parsed_end != '\0') {
      return "line " + std::to_string(line_no) + ": bad sample value";
    }
  }
  for (const auto& name : instruments) {
    if (families.count(exposition_name(name)) == 0) {
      return "instrument " + name + " missing from /metrics";
    }
  }
  return "";
}

}  // namespace perfbench
