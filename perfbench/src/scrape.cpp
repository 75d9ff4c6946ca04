// scrape — the telemetry plane under closed-loop scrapers.  Set-up runs
// a short cluster (FlowTracer, ClusterTelemetry, TimeSeriesStore) and
// freezes it, so JSON response sizes are fixed; an obs::HttpServer on
// loopback serves /metrics, /timeseries.json, /cluster.json?topk=N and
// /traces.json.  Two keep-alive clients (raw sockets, so the benchmark
// sees every status line and Content-Length) each walk the endpoint mix
// in whole cycles until the run's time is up; some requests ask for gzip.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "cluster/manager.hpp"
#include "cluster/telemetry.hpp"
#include "common.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/sketch.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace procap;

namespace {

constexpr unsigned kNodes = 256;
constexpr unsigned kEpochs = 40;
constexpr unsigned kClients = 2;
/// The set-up cluster's fault plan, without its seed line.
constexpr const char* kPlanBody =
    "node 6 14 crash frac 0.10\n"
    "node 4 24 hbloss frac 0.05\n"
    "node 0 inf slow frac 0.10 factor 0.6\n";
constexpr double kSlice = 0.25;  ///< window length, s
/// Traced runs time the cluster-churn scenario for this long after the
/// scrapers stop.
constexpr double kClusterTracedSeconds = 6.0;

struct Request {
  const char* path;
  bool gzip;
};

// One cycle of a client; both clients walk it, from different offsets.
constexpr Request kMix[] = {
    {"/metrics", false},
    {"/timeseries.json?name=cluster.power.sum", false},
    {"/cluster.json?topk=32", false},
    {"/traces.json?flows=0", false},
    {"/cluster.json?topk=128", true},
    {"/timeseries.json?node=17", true},
    {"/metrics", false},
    {"/traces.json?node=5", true},
};

/// The benchmark's own instruments: /metrics must list every one.
const std::vector<std::string> kOwnInstruments = {
    "perfbench.scrape.clients", "perfbench.scrape.setup_epochs",
    "perfbench.scrape.node_rate"};

/// Minimal keep-alive HTTP/1.1 client over one socket.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  /// Send one GET and read exactly one response (head + Content-Length
  /// bytes, or up to the peer closing) into `raw`.
  bool get(const Request& req, std::string& raw) {
    raw.clear();
    if (fd_ < 0) {
      return false;
    }
    std::string out = std::string("GET ") + req.path +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
                      (req.gzip ? "Accept-Encoding: gzip\r\n" : "") + "\r\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    raw.swap(pending_);
    pending_.clear();
    std::size_t want = std::string::npos;
    char buf[65536];
    for (;;) {
      if (want == std::string::npos) {
        const std::size_t head_end = raw.find("\r\n\r\n");
        if (head_end != std::string::npos) {
          want = head_end + 4 + content_length(raw.substr(0, head_end));
        }
      }
      if (want != std::string::npos && raw.size() >= want) {
        pending_ = raw.substr(want);
        raw.resize(want);
        return true;
      }
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) {
        return false;  // closed or timed out: `raw` holds what came
      }
      raw.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  static std::size_t content_length(const std::string& head) {
    std::string lower = head;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    const std::size_t at = lower.find("\r\ncontent-length:");
    return at == std::string::npos
               ? 0
               : static_cast<std::size_t>(
                     std::strtoull(head.c_str() + at + 17, nullptr, 10));
  }

  int fd_ = -1;
  std::string pending_;
};

struct ClientLog {
  std::vector<double> latencies_ms;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;
  std::vector<std::string> problems;
};

double median_render_ms(const std::function<void(std::ostream&)>& render) {
  std::vector<double> ms;
  for (int i = 0; i < 21; ++i) {
    std::ostringstream os;
    const auto t0 = Clock::now();
    render(os);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return quantile(ms, 0.5);
}

}  // namespace

Result run_scrape(const Args& args) {
  Result result;
  obs::Registry& registry = obs::Registry::global();
  registry.gauge("perfbench.scrape.clients").set(kClients);
  registry.counter("perfbench.scrape.setup_epochs").inc(kEpochs);
  obs::Sketch& node_rate = registry.sketch("perfbench.scrape.node_rate");

  // Fill the content: a short churning cluster run, then frozen.
  cluster::ClusterConfig config;
  config.nodes = kNodes;
  config.global_budget = 120.0 * kNodes;
  config.jobs = kNodes / 8;
  config.strategy = "progress";
  config.seed = args.seed;
  config.threads = 1;
  std::istringstream plan_text("seed " + std::to_string(args.seed) + "\n" +
                               kPlanBody);
  config.plan = fault::FaultPlan::parse(plan_text);
  cluster::ClusterPowerManager manager(config);
  obs::FlowTracerOptions trace_options;
  trace_options.seed = args.seed;
  obs::FlowTracer tracer(trace_options);
  manager.set_tracer(&tracer);
  obs::TimeSeriesStore store(registry);
  store.set_meta("app", "perfbench");
  cluster::ClusterTelemetry telemetry(registry);
  telemetry.set_tracer(&tracer);
  {
    CpuPicker setup_cpu;  // the set-up epochs run on the fastest CPU
    setup_cpu.next();
    for (unsigned e = 0; e < kEpochs; ++e) {
      manager.run_epoch();
      telemetry.update(manager);
      store.sample(manager.now());
    }
  }  // the server threads start on every CPU
  for (unsigned i = 0; i < kNodes; ++i) {
    node_rate.observe(manager.node(i).telemetry().rate);
  }

  // Handlers time themselves while `timing` is on (traced phases).
  std::atomic<bool> timing{false};
  std::atomic<std::uint64_t> handler_ns{0};
  const auto timed = [&](auto&& render) {
    const bool on = timing.load(std::memory_order_relaxed);
    const auto t0 = on ? Clock::now() : Clock::time_point{};
    std::ostringstream os;
    render(os);
    if (on) {
      handler_ns.fetch_add(
          static_cast<std::uint64_t>(seconds_since(t0) * 1e9),
          std::memory_order_relaxed);
    }
    return os.str();
  };
  obs::HttpServer server;
  server.handle("/metrics", [&](const std::string&) {
    return obs::HttpResponse{
        200, "text/plain; version=0.0.4",
        timed([&](std::ostream& os) { registry.write_prometheus(os); })};
  });
  server.handle("/timeseries.json", [&](const std::string& query) {
    const auto params = obs::parse_query(query);
    std::string name;
    std::string labels;
    if (const auto it = params.find("name"); it != params.end()) {
      name = it->second;
    }
    if (const auto it = params.find("node"); it != params.end()) {
      labels = "node=\"" + it->second + "\"";
    }
    return obs::HttpResponse{200, "application/json",
                             timed([&](std::ostream& os) {
                               store.write_json(os, 0, name, labels);
                             })};
  });
  server.handle("/cluster.json", [&](const std::string& query) {
    const auto params = obs::parse_query(query);
    std::size_t topk = 0;
    if (const auto it = params.find("topk"); it != params.end()) {
      topk = static_cast<std::size_t>(std::atol(it->second.c_str()));
    }
    return obs::HttpResponse{200, "application/json",
                             timed([&](std::ostream& os) {
                               telemetry.write_cluster_json(os, topk);
                             })};
  });
  server.handle("/traces.json", [&](const std::string& query) {
    const auto params = obs::parse_query(query);
    obs::TraceQuery tq;
    if (const auto it = params.find("node"); it != params.end()) {
      tq.node = std::atol(it->second.c_str());
    }
    if (const auto it = params.find("flows"); it != params.end()) {
      tq.include_flows = it->second != "0";
    }
    return obs::HttpResponse{200, "application/json",
                             timed([&](std::ostream& os) {
                               tracer.write_traces_json(os, tq);
                             })};
  });
  if (!server.start("127.0.0.1", 0)) {
    throw std::runtime_error("cannot bind a loopback port");
  }
  std::vector<std::unique_ptr<RawClient>> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<RawClient>(server.port()));
  }
  const double setup_s = seconds_since(process_start());

  // Measure: closed loop, whole cycles of the mix per client, in slices.
  // Between slices the clients wait while the CPU picker scouts, then the
  // server and clients run on the kClients + 1 fastest CPUs for one
  // slice; each slice is one window.  Traced runs alternate plain and
  // traced slices (handler timing off and on), a pair per CPU pick.
  const double requests_before = registry_value("obs.http.requests");
  const double gzip_before = registry_value("obs.http.gzip_responses");
  std::vector<ClientLog> logs(kClients);
  std::mutex gate_mutex;
  std::condition_variable gate;
  std::size_t generation = 0;  // slices released so far
  unsigned running = 0;        // clients still inside the current slice
  bool finished = false;
  Clock::time_point slice_end{};
  const auto run_client = [&](unsigned c) {
    ClientLog& log = logs[c];
    std::string raw;
    HttpReply reply;
    const std::size_t n = std::size(kMix);
    for (std::size_t seen = 0;;) {
      Clock::time_point until;
      {
        std::unique_lock lock(gate_mutex);
        gate.wait(lock, [&] { return finished || generation > seen; });
        if (finished) {
          return;
        }
        seen = generation;
        until = slice_end;
      }
      do {
        for (std::size_t k = 0; k < n; ++k) {
          const Request& req = kMix[(k + c * n / kClients) % n];
          const auto t0 = Clock::now();
          const bool got = clients[c]->get(req, raw);
          const double ms = seconds_since(t0) * 1e3;
          ++log.requests;
          const std::string why =
              got ? check_http_reply(raw, reply) : "no complete response";
          if (!why.empty()) {
            ++log.failed;
            if (log.problems.size() < 5) {
              log.problems.push_back(std::string(req.path) + ": " + why);
            }
            continue;
          }
          log.latencies_ms.push_back(ms);
          log.bytes += reply.body.size();
        }
      } while (Clock::now() < until);
      {
        std::lock_guard lock(gate_mutex);
        --running;
      }
      gate.notify_all();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back(run_client, c);
  }
  Timing plain;
  Timing traced;
  {
    CpuPicker cpus(kClients + 1, /*whole_process=*/true);
    const auto start = Clock::now();
    for (std::size_t k = 0; k < 2 || seconds_since(start) < args.seconds;
         ++k) {
      const bool is_traced = args.trace && k % 2 == 1;
      if (!is_traced) {
        cpus.next();
      }
      timing.store(is_traced);
      std::vector<std::size_t> before;
      for (const ClientLog& log : logs) {
        before.push_back(log.latencies_ms.size());
      }
      const auto t0 = Clock::now();
      {
        std::unique_lock lock(gate_mutex);
        slice_end = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kSlice));
        running = kClients;
        ++generation;
        gate.notify_all();
        gate.wait(lock, [&] { return running == 0; });
      }
      const double wall = seconds_since(t0);
      Timing& t = is_traced ? traced : plain;
      const std::size_t begin = t.latencies_ms.size();
      for (std::size_t c = 0; c < kClients; ++c) {
        t.latencies_ms.insert(t.latencies_ms.end(),
                              logs[c].latencies_ms.begin() + before[c],
                              logs[c].latencies_ms.end());
      }
      t.close(begin, static_cast<double>(t.latencies_ms.size() - begin), wall);
    }
    {
      std::lock_guard lock(gate_mutex);
      finished = true;
    }
    gate.notify_all();
    for (auto& thread : threads) {
      thread.join();
    }
  }
  timing.store(false);

  std::uint64_t completed = 0;
  std::uint64_t bytes = 0;
  for (const ClientLog& log : logs) {
    result.attempted += log.requests;
    result.failed += log.failed;
    completed += log.requests;
    bytes += log.bytes;
    for (const auto& p : log.problems) {
      result.check(false, p);
    }
  }

  // Checks against independent paths, on fresh requests.
  RawClient checker(server.port());
  std::string raw;
  HttpReply reply;
  const auto fetch = [&](const Request& req) {
    ++completed;
    const bool got = checker.get(req, raw);
    const std::string why =
        got ? check_http_reply(raw, reply) : "no complete response";
    result.check(why.empty(), std::string(req.path) + ": " + why);
    return why.empty() ? reply.body : std::string();
  };
  const std::string why_cluster =
      check_cluster_caps(fetch({"/cluster.json", false}), manager.assigned());
  result.check(why_cluster.empty(), "/cluster.json: " + why_cluster);
  const std::string exposition = fetch({"/metrics", false});
  const std::string why_metrics = check_exposition(exposition, kOwnInstruments);
  result.check(why_metrics.empty(), "/metrics: " + why_metrics);
  const std::string identity = fetch({"/cluster.json?topk=128", false});
  const std::string zipped = fetch({"/cluster.json?topk=128", true});
  if (obs::gzip_supported()) {
    const auto unzipped = obs::gzip_decompress(zipped);
    result.check(reply.gzip && unzipped && *unzipped == identity,
                 "gzip /cluster.json does not decode to the identity body");
  }
  const double requests_delta =
      registry_value("obs.http.requests") - requests_before;
  result.check(requests_delta == static_cast<double>(completed),
               "server counted " + std::to_string(requests_delta) +
                   " requests, clients completed " + std::to_string(completed));
  const double gzip_delta =
      registry_value("obs.http.gzip_responses") - gzip_before;
  server.stop();

  // The cluster layer: the churn scenario's checks on every run, its
  // per-layer figures on traced runs.
  std::map<std::string, double> values;
  run_cluster_churn(args, kClusterTracedSeconds, result,
                    args.trace ? &values : nullptr);

  result.notes.push_back("requests " + std::to_string(completed) + " by " +
                         std::to_string(kClients) + " clients, gzip " +
                         (obs::gzip_supported() ? "on" : "unavailable"));
  if (args.trace) {
    values["obs.render_metrics_ms"] = median_render_ms(
        [&](std::ostream& os) { registry.write_prometheus(os); });
    values["obs.render_timeseries_ms"] = median_render_ms(
        [&](std::ostream& os) { store.write_json(os, 0, "", "node=\"17\""); });
    values["obs.render_cluster_ms"] = median_render_ms(
        [&](std::ostream& os) { telemetry.write_cluster_json(os, 128); });
    values["obs.render_traces_ms"] = median_render_ms(
        [&](std::ostream& os) { tracer.write_traces_json(os, {}); });
    double traced_latency_s = 0.0;
    for (const double ms : traced.latencies_ms) {
      traced_latency_s += ms * 1e-3;
    }
    const double handler_s = static_cast<double>(handler_ns.load()) * 1e-9;
    values["obs.handler_s"] = handler_s;
    values["obs.server_s"] = traced_latency_s - handler_s;
    values["obs.http_requests"] = requests_delta;
    values["obs.bytes_served"] = static_cast<double>(bytes);
    values["obs.gzip_responses"] = gzip_delta;
    overhead_values(plain, traced, values);
    set_per_layer(result, values);
  } else {
    set_end_to_end(result, plain, setup_s,
                   cluster_joules_per_progress(args.seed, kNodes, kEpochs,
                                               kPlanBody));
  }
  return result;
}

}  // namespace perfbench
