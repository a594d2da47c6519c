#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/status.hpp"

namespace ddm::net {

namespace {

constexpr std::size_t kMaxLineBytes = 64 * 1024;

[[noreturn]] void socket_error(const char* what) {
  throw Error(std::string("ddm_serve: ") + what + ": " + std::strerror(errno));
}

}  // namespace

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) socket_error("socket");
  // Crash-tolerant restart: a killed server leaves TIME_WAIT sockets behind,
  // and the replacement must be able to bind the same port immediately.
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    socket_error("bind");
  }
  if (::listen(fd_, backlog) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    socket_error("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    socket_error("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

int TcpListener::accept_connection() const noexcept {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;  // a non-fatal signal; retry
    return -1;                     // shutdown_listener_fd fired (or hard error)
  }
}

void shutdown_listener_fd(int fd) noexcept {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::set_timeout(std::chrono::milliseconds timeout) noexcept {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool Connection::read_line(std::string& line) {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (buffer_.size() > kMaxLineBytes) return false;
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;  // EOF, timeout, or error
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

bool Connection::write_all(std::string_view data) noexcept {
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-reply yields EPIPE, not SIGPIPE —
    // the serving process must never die to a disconnecting client.
    const ssize_t wrote =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) {
      if (wrote < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

void Connection::finish_reply(std::chrono::milliseconds linger) noexcept {
  if (fd_ < 0) return;
  (void)::shutdown(fd_, SHUT_WR);
  set_timeout(linger);
  char chunk[4096];
  while (::recv(fd_, chunk, sizeof(chunk), 0) > 0) {
  }
}

void Connection::shutdown_now() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace ddm::net
