// ddm_load — the load generator / protocol checker for ddm_serve.
//
// Drives N concurrent client connections, each sending a deterministic
// stream of requests (beta varies over a fixed lattice, so runs are
// reproducible), and verifies the serving contract from the OUTSIDE:
//
//   * every request gets exactly one well-formed JSON reply line — a socket
//     timeout counts as a hang and fails the run (the soak harness's "no
//     request may hang past its deadline" assertion);
//   * structured backpressure (`overloaded`, `draining`) and deadline cuts
//     (`deadline_exceeded`, `cancelled`) are tallied, not failed;
//   * latency is captured per request and summarized as p50/p99/max;
//   * --warmup=N sends N unrecorded requests per client first, so the
//     summary measures steady state, not server cold start (plan lowering,
//     pool spin-up) — the mode scripts/run_soak.sh --bench records.
//
// Output is one JSON summary line on stdout (consumed by scripts/run_soak.sh
// and recorded into BENCH_serve.json):
//
//   {"requests":400,"ok":361,"shed":39,"deadline":0,"failed":0,...}
//
// Exit status: 0 when no protocol failures, 1 otherwise, 2 for bad usage.
//
// Usage:
//   ddm_load <port> <clients> <requests-per-client>
//            [--n=6] [--t=2] [--op=threshold|certify|analyze] [--engine=id]
//            [--deadline-ms=0] [--trials=200000] [--timeout-ms=10000]
//            [--warmup=0]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/ndjson.hpp"
#include "net/server.hpp"
#include "util/env.hpp"
#include "util/status.hpp"

namespace {

/// "<kind><client>-<index>": a warmup ('w') or measured ('c') request id.
std::string request_id(char kind, unsigned client, unsigned index) {
  std::string id(1, kind);
  id += std::to_string(client);
  id += '-';
  id += std::to_string(index);
  return id;
}

struct LoadConfig {
  std::uint16_t port = 0;
  unsigned clients = 4;
  unsigned requests = 32;
  std::uint64_t n = 6;
  std::string t = "2";
  std::string op = "threshold";
  std::uint64_t deadline_ms = 0;
  std::uint64_t trials = 200000;
  std::uint64_t timeout_ms = 10000;
  unsigned warmup = 0;  // unrecorded pre-requests per client
  std::string engine;   // forced engine id, "" = server policy
};

struct Tally {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> draining{0};
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> eval_failed{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> failed{0};  // protocol failures: hangs, bad JSON
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void run_client(const LoadConfig& config, unsigned client, Tally& tally,
                std::vector<double>& latencies_ms) {
  const int fd = connect_loopback(config.port);
  if (fd < 0) {
    tally.failed.fetch_add(config.requests);
    return;
  }
  ddm::net::Connection connection(fd);
  connection.set_timeout(std::chrono::milliseconds(config.timeout_ms));
  std::string reply_line;
  // Warmup: same request shape, same lattice, but neither latency nor reply
  // status is recorded — these requests exist to absorb the server's cold
  // start so the measured stream below sees steady state. A hang here is
  // still a protocol failure (no request may hang, warmup included).
  for (unsigned w = 0; w < config.warmup; ++w) {
    const unsigned step = (client * config.warmup + w) % 97;
    const double beta = 0.30 + 0.40 * static_cast<double>(step) / 96.0;
    ddm::net::JsonWriter request;
    request.field("id", request_id('w', client, w))
        .field("op", config.op)
        .field("n", config.n)
        .field("t", config.t);
    if (config.op != "analyze") request.field("beta", beta);
    if (!config.engine.empty()) request.field("engine", config.engine);
    if (config.deadline_ms > 0) request.field("deadline_ms", config.deadline_ms);
    request.field("trials", config.trials);
    if (!connection.write_all(request.str() + "\n") || !connection.read_line(reply_line)) {
      tally.failed.fetch_add(config.requests);
      return;
    }
  }
  for (unsigned i = 0; i < config.requests; ++i) {
    // Deterministic beta lattice in [0.30, 0.70]: same stream every run, and
    // enough distinct values that coalesced batches carry real grids.
    const unsigned step = (client * config.requests + i) % 97;
    const double beta = 0.30 + 0.40 * static_cast<double>(step) / 96.0;
    ddm::net::JsonWriter request;
    request.field("id", request_id('c', client, i))
        .field("op", config.op)
        .field("n", config.n)
        .field("t", config.t);
    if (config.op != "analyze") request.field("beta", beta);
    if (!config.engine.empty()) request.field("engine", config.engine);
    if (config.deadline_ms > 0) request.field("deadline_ms", config.deadline_ms);
    request.field("trials", config.trials);
    const auto start = std::chrono::steady_clock::now();
    if (!connection.write_all(request.str() + "\n") || !connection.read_line(reply_line)) {
      // A hang (timeout), EOF, or write failure: the remaining requests on
      // this connection cannot be attributed, count them all as failed.
      tally.failed.fetch_add(config.requests - i);
      return;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    latencies_ms.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(elapsed).count());
    try {
      const ddm::net::JsonObject reply = ddm::net::parse_flat_object(reply_line);
      const ddm::net::JsonValue* ok = ddm::net::find(reply, "ok");
      if (ok == nullptr || ok->kind != ddm::net::JsonValue::Kind::kBool) {
        tally.failed.fetch_add(1);
        continue;
      }
      if (ok->boolean) {
        tally.ok.fetch_add(1);
        const ddm::net::JsonValue* degraded = ddm::net::find(reply, "degraded");
        if (degraded != nullptr && degraded->kind == ddm::net::JsonValue::Kind::kBool &&
            degraded->boolean) {
          tally.degraded.fetch_add(1);
        }
        continue;
      }
      const std::string error = ddm::net::get_string(reply, "error", "");
      if (error == "overloaded") {
        tally.shed.fetch_add(1);
      } else if (error == "draining") {
        tally.draining.fetch_add(1);
      } else if (error == "deadline_exceeded") {
        tally.deadline.fetch_add(1);
      } else if (error == "cancelled") {
        tally.cancelled.fetch_add(1);
      } else if (error == "evaluation_failed") {
        tally.eval_failed.fetch_add(1);
      } else {
        tally.failed.fetch_add(1);  // bad_request or unknown: a client bug
      }
    } catch (const std::exception&) {
      tally.failed.fetch_add(1);
    }
  }
}

[[nodiscard]] double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  LoadConfig config;
  try {
    if (args.size() < 3) throw ddm::Error("usage: ddm_load <port> <clients> <requests> [flags]");
    config.port = static_cast<std::uint16_t>(
        ddm::util::parse_env_u64("port", args[0].c_str(), 1, 65535, 0));
    config.clients =
        static_cast<unsigned>(ddm::util::parse_env_u64("clients", args[1].c_str(), 1, 512, 0));
    config.requests =
        static_cast<unsigned>(ddm::util::parse_env_u64("requests", args[2].c_str(), 1, 100000, 0));
    for (std::size_t i = 3; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const auto value = [&arg](const char* prefix) -> const char* {
        const std::size_t len = std::strlen(prefix);
        return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
      };
      if (const char* v = value("--n=")) {
        config.n = ddm::util::parse_env_u64("--n", v, 1, 1000, 6);
      } else if (const char* v = value("--t=")) {
        config.t = v;
      } else if (const char* v = value("--op=")) {
        config.op = v;
      } else if (const char* v = value("--engine=")) {
        config.engine = v;
      } else if (const char* v = value("--deadline-ms=")) {
        config.deadline_ms = ddm::util::parse_env_u64("--deadline-ms", v, 0, 3'600'000, 0);
      } else if (const char* v = value("--trials=")) {
        config.trials = ddm::util::parse_env_u64("--trials", v, 1, 100'000'000, 200000);
      } else if (const char* v = value("--timeout-ms=")) {
        config.timeout_ms = ddm::util::parse_env_u64("--timeout-ms", v, 100, 600'000, 10000);
      } else if (const char* v = value("--warmup=")) {
        config.warmup = static_cast<unsigned>(ddm::util::parse_env_u64("--warmup", v, 0, 10000, 0));
      } else {
        throw ddm::Error("ddm_load: unknown argument '" + arg + "'");
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }

  Tally tally;
  std::vector<std::vector<double>> per_client(config.clients);
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  const auto start = std::chrono::steady_clock::now();
  for (unsigned c = 0; c < config.clients; ++c) {
    threads.emplace_back(
        [&config, c, &tally, &per_client] { run_client(config, c, tally, per_client[c]); });
  }
  for (std::thread& thread : threads) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double seconds = std::chrono::duration<double>(elapsed).count();

  std::vector<double> latencies;
  for (const auto& client_latencies : per_client) {
    latencies.insert(latencies.end(), client_latencies.begin(), client_latencies.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const std::uint64_t total =
      static_cast<std::uint64_t>(config.clients) * static_cast<std::uint64_t>(config.requests);
  const std::uint64_t answered = static_cast<std::uint64_t>(latencies.size());

  ddm::net::JsonWriter summary;
  summary.field("requests", total)
      .field("warmup", static_cast<std::uint64_t>(config.warmup) * config.clients)
      .field("answered", answered)
      .field("ok", tally.ok.load())
      .field("shed", tally.shed.load())
      .field("draining", tally.draining.load())
      .field("deadline", tally.deadline.load())
      .field("cancelled", tally.cancelled.load())
      .field("eval_failed", tally.eval_failed.load())
      .field("degraded", tally.degraded.load())
      .field("failed", tally.failed.load())
      .field("seconds", seconds)
      .field("req_per_s", seconds > 0.0 ? static_cast<double>(answered) / seconds : 0.0)
      .field("p50_ms", percentile(latencies, 0.50))
      .field("p99_ms", percentile(latencies, 0.99))
      .field("max_ms", latencies.empty() ? 0.0 : latencies.back());
  std::cout << summary.str() << "\n";
  return tally.failed.load() == 0 ? 0 : 1;
}
