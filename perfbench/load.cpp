// perfbench_load — closed- or open-loop NDJSON load generator for ddm_serve.
//
// Usage:
//   perfbench_load <port> <schedule-file> <records-out> <seconds>
//
// The schedule file (written by run.py from the workload seed) is plain text:
//
//   mode closed|open
//   connections <c>             at most 4; one poll loop drives them all
//   timeout_ms <ms>             a reply later than this is a hang
//   cycle 0|1                   closed loop: restart the sequence when it
//                               runs out (1) or stop there (0)
//   pool <k>                    then k request lines (flat JSON, no "id")
//   sequence <m>                then m lines "<due_ns> <pool-index>"
//
// Closed loop: each connection sends its next request as soon as its
// previous reply arrives, taking entries from `sequence` in order (cycling)
// until <seconds> have passed; due_ns is ignored. Open loop: entry i is due
// at start + due_ns and is sent then, whether or not earlier replies are
// back, on the connection with the fewest requests outstanding; entries
// whose due time lies past <seconds> are not sent. Requests on one
// connection are answered in order (the daemon serves a connection's lines
// one at a time), so replies are matched FIFO per connection and the echoed
// "id" is checked.
//
// Every request produces one 48-byte little-endian record in <records-out>:
//   int32 pool_index, int32 status, int64 due_ns, int64 sent_ns,
//   int64 done_ns, double value, double aux
// status: 0 ok reply, 1 error reply ("ok":false), 2 no reply within the
// timeout (hang), 3 malformed reply or id mismatch. `aux` carries the reply's
// "width" (certify) or "beta_star" (analyze), NaN otherwise. Times are
// nanoseconds from the start of the run. In closed loop due_ns == sent_ns.
// One summary line goes to stdout: {"sent":..,"replies":..,"elapsed_s":..}.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  std::int32_t pool_index = 0;
  std::int32_t status = 2;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  double value = std::numeric_limits<double>::quiet_NaN();
  double aux = std::numeric_limits<double>::quiet_NaN();
};
static_assert(sizeof(Record) == 48, "record layout is part of the file format");

struct Schedule {
  bool open_loop = false;
  int connections = 1;
  std::int64_t timeout_ms = 10000;
  bool cycle = true;
  std::vector<std::string> pool;
  std::vector<std::pair<std::int64_t, std::int32_t>> sequence;
};

struct Connection {
  int fd = -1;
  std::string inbox;
  std::string outbox;
  std::deque<std::size_t> outstanding;  // record indices, FIFO
};

[[noreturn]] void die(const std::string& why) {
  std::cerr << "perfbench_load: " << why << "\n";
  std::exit(2);
}

Schedule read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open schedule '" + path + "'");
  Schedule schedule;
  std::string key;
  while (in >> key) {
    if (key == "mode") {
      std::string mode;
      in >> mode;
      if (mode != "open" && mode != "closed") die("bad mode '" + mode + "'");
      schedule.open_loop = mode == "open";
    } else if (key == "connections") {
      in >> schedule.connections;
      if (schedule.connections < 1 || schedule.connections > 4) die("connections must be 1..4");
    } else if (key == "timeout_ms") {
      in >> schedule.timeout_ms;
    } else if (key == "cycle") {
      int cycle = 1;
      in >> cycle;
      schedule.cycle = cycle != 0;
    } else if (key == "pool") {
      std::size_t count = 0;
      in >> count;
      std::string line;
      std::getline(in, line);
      for (std::size_t i = 0; i < count; ++i) {
        if (!std::getline(in, line) || line.empty() || line.back() != '}') die("bad pool line");
        schedule.pool.push_back(line);
      }
    } else if (key == "sequence") {
      std::size_t count = 0;
      in >> count;
      schedule.sequence.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        std::int64_t due = 0;
        std::int32_t index = 0;
        if (!(in >> due >> index) || index < 0 ||
            static_cast<std::size_t>(index) >= schedule.pool.size()) {
          die("bad sequence entry " + std::to_string(i));
        }
        schedule.sequence.emplace_back(due, index);
      }
    } else {
      die("unknown schedule key '" + key + "'");
    }
  }
  if (schedule.pool.empty() || schedule.sequence.empty()) die("empty pool or sequence");
  return schedule;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die(std::string("socket: ") + std::strerror(errno));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    die(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// The raw text after `"key":` in a flat reply object, or empty.
std::string_view field(std::string_view reply, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key).append("\":");
  const std::size_t at = reply.find(pattern);
  if (at == std::string_view::npos) return {};
  return reply.substr(at + pattern.size());
}

double number_field(std::string_view reply, std::string_view key) {
  const std::string_view raw = field(reply, key);
  if (raw.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::string text(raw.substr(0, raw.find_first_of(",}")));
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return std::numeric_limits<double>::quiet_NaN();
  return value;
}

/// Writes as much of the outbox as the socket takes now.
void flush(Connection& connection) {
  while (!connection.outbox.empty()) {
    const ssize_t wrote =
        ::send(connection.fd, connection.outbox.data(), connection.outbox.size(), MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EINTR) return;
      die(std::string("send: ") + std::strerror(errno));
    }
    connection.outbox.erase(0, static_cast<std::size_t>(wrote));
  }
}

void parse_reply(std::string_view reply, std::size_t expected_id, Record& record) {
  if (reply.size() < 2 || reply.front() != '{' || reply.back() != '}') {
    record.status = 3;
    return;
  }
  const std::string id = std::to_string(expected_id);
  const std::string_view echoed = field(reply, "id");
  if (echoed.size() < id.size() + 2 || echoed.front() != '"' || echoed.substr(1, id.size()) != id ||
      echoed[id.size() + 1] != '"') {
    record.status = 3;
    return;
  }
  const std::string_view ok = field(reply, "ok");
  if (ok.substr(0, 4) == "true") {
    record.status = 0;
    record.value = number_field(reply, "value");
    record.aux = number_field(reply, "width");
    if (std::isnan(record.aux)) record.aux = number_field(reply, "beta_star");
  } else if (ok.substr(0, 5) == "false") {
    record.status = 1;
  } else {
    record.status = 3;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) die("usage: perfbench_load <port> <schedule> <records-out> <seconds>");
  const auto port = static_cast<std::uint16_t>(std::strtoul(argv[1], nullptr, 10));
  const Schedule schedule = read_schedule(argv[2]);
  const double seconds = std::strtod(argv[4], nullptr);
  if (!(seconds > 0)) die("seconds must be positive");
  const auto run_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t timeout_ns = schedule.timeout_ms * 1'000'000;

  std::vector<Connection> connections(static_cast<std::size_t>(schedule.connections));
  for (Connection& connection : connections) connection.fd = connect_loopback(port);

  std::vector<Record> records;
  records.reserve(schedule.open_loop ? schedule.sequence.size() : 1 << 20);
  const Clock::time_point start = Clock::now();
  const auto now_ns = [&start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  };

  std::size_t next = 0;  // next sequence entry to send
  const auto submit = [&](Connection& connection, std::int64_t due, std::int32_t index) {
    Record record;
    record.pool_index = index;
    record.due_ns = due;
    const std::size_t id = records.size();
    const std::string& body = schedule.pool[static_cast<std::size_t>(index)];
    connection.outbox.append("{\"id\":\"").append(std::to_string(id)).append("\",");
    connection.outbox.append(body, 1, std::string::npos).push_back('\n');
    record.sent_ns = now_ns();
    if (!schedule.open_loop) record.due_ns = record.sent_ns;
    connection.outstanding.push_back(id);
    records.push_back(record);
    flush(connection);
  };
  const auto submit_closed = [&](Connection& connection) {
    if (!schedule.cycle && next >= schedule.sequence.size()) return;
    const auto& [due, index] = schedule.sequence[next % schedule.sequence.size()];
    ++next;
    submit(connection, due, index);
  };

  bool sending = true;
  if (!schedule.open_loop) {
    for (Connection& connection : connections) submit_closed(connection);
  }
  std::vector<pollfd> fds(connections.size());
  std::int64_t last_reply_ns = 0;
  char buffer[1 << 16];
  while (true) {
    const std::int64_t now = now_ns();
    if (sending) {
      if (schedule.open_loop) {
        while (next < schedule.sequence.size() && schedule.sequence[next].first <= now) {
          const auto& [due, index] = schedule.sequence[next++];
          if (due > run_ns) {
            next = schedule.sequence.size();
            break;
          }
          Connection* target = &connections.front();
          for (Connection& connection : connections) {
            if (connection.outstanding.size() < target->outstanding.size()) target = &connection;
          }
          submit(*target, due, index);
        }
        if (next >= schedule.sequence.size()) sending = false;
      } else if (now >= run_ns || (!schedule.cycle && next >= schedule.sequence.size())) {
        sending = false;
      }
    }
    bool waiting = false;
    std::int64_t oldest_sent = std::numeric_limits<std::int64_t>::max();
    for (std::size_t c = 0; c < connections.size(); ++c) {
      const Connection& connection = connections[c];
      fds[c].fd = connection.fd;
      fds[c].events = static_cast<short>(POLLIN | (connection.outbox.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
      if (!connection.outstanding.empty()) {
        waiting = true;
        oldest_sent = std::min(oldest_sent, records[connection.outstanding.front()].sent_ns);
      }
    }
    if (!sending && !waiting) break;
    if (waiting && now - oldest_sent > timeout_ns) break;  // hang: the rest stay status 2

    std::int64_t wait_ns = 50'000'000;
    if (sending && schedule.open_loop) {
      wait_ns = std::max<std::int64_t>(0, schedule.sequence[next].first - now);
    }
    if (sending && !schedule.open_loop) wait_ns = std::min(wait_ns, run_ns - now);
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      die(std::string("ppoll: ") + std::strerror(errno));
    }
    for (std::size_t c = 0; c < connections.size(); ++c) {
      Connection& connection = connections[c];
      if ((fds[c].revents & POLLOUT) != 0) flush(connection);
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::recv(connection.fd, buffer, sizeof buffer, 0);
      if (got <= 0) {
        if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        die("server closed a connection with " + std::to_string(connection.outstanding.size()) +
            " requests outstanding");
      }
      connection.inbox.append(buffer, static_cast<std::size_t>(got));
      const std::int64_t done = now_ns();
      std::size_t line_start = 0;
      for (std::size_t eol; (eol = connection.inbox.find('\n', line_start)) != std::string::npos;
           line_start = eol + 1) {
        if (connection.outstanding.empty()) die("reply without a request");
        const std::size_t id = connection.outstanding.front();
        connection.outstanding.pop_front();
        Record& record = records[id];
        record.done_ns = done;
        const std::string_view line =
            std::string_view(connection.inbox).substr(line_start, eol - line_start);
        parse_reply(line, id, record);
        last_reply_ns = done;
        if (sending && !schedule.open_loop) submit_closed(connection);
      }
      connection.inbox.erase(0, line_start);
    }
  }
  for (Connection& connection : connections) ::close(connection.fd);

  std::ofstream out(argv[3], std::ios::binary);
  out.write(reinterpret_cast<const char*>(records.data()),
            static_cast<std::streamsize>(records.size() * sizeof(Record)));
  if (!out) die("cannot write records");
  std::size_t replies = 0;
  for (const Record& record : records) replies += record.status != 2 ? 1 : 0;
  std::cout.precision(17);
  std::cout << "{\"sent\":" << records.size() << ",\"replies\":" << replies
            << ",\"elapsed_s\":" << static_cast<double>(last_reply_ns) / 1e9 << "}\n";
  return 0;
}
