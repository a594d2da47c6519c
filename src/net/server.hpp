// server.hpp — minimal POSIX TCP plumbing for ddm_serve.
//
// Deliberately small: a loopback-only listener with a shutdown hook that
// unblocks accept() (the SIGTERM drain path needs to interrupt the accept
// loop from a signal handler, so shutdown_listener_fd() is a single
// async-signal-safe syscall), and a buffered line-oriented connection
// wrapper with socket timeouts (a stuck peer must never pin a service
// thread forever — see docs/robustness.md, "Operating ddm_serve").
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace ddm::net {

/// Loopback TCP listener. Binds 127.0.0.1:`port` (0 = kernel-assigned
/// ephemeral port, reported by port()); throws ddm::Error on any socket
/// failure. The fd is CLOEXEC so a crash-restart supervisor never inherits
/// the socket.
class TcpListener {
 public:
  TcpListener(std::uint16_t port, int backlog);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// The bound port (resolves port 0 to the actual ephemeral port).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Raw listening fd, for shutdown_listener_fd from a signal handler.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Blocks for the next connection; returns the connected fd, or -1 once
  /// the listener has been shut down (the drain signal).
  [[nodiscard]] int accept_connection() const noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Unblocks every accept_connection() on `fd` with an error return.
/// Async-signal-safe (one shutdown(2) call) — THE way the SIGTERM handler
/// initiates the drain.
void shutdown_listener_fd(int fd) noexcept;

/// Buffered line I/O over a connected socket; owns and closes the fd.
class Connection {
 public:
  explicit Connection(int fd) noexcept : fd_(fd) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// SO_RCVTIMEO/SO_SNDTIMEO on the socket: a peer that stops reading or
  /// writing for this long makes the I/O calls fail instead of hanging.
  void set_timeout(std::chrono::milliseconds timeout) noexcept;

  /// Reads the next '\n'-terminated line (terminator stripped, CR trimmed).
  /// Returns false on EOF, timeout, error, or a line exceeding the 64 KiB
  /// bound (an unframed peer must not grow the buffer without limit).
  [[nodiscard]] bool read_line(std::string& line);

  /// Writes all of `data`; false on error/timeout.
  [[nodiscard]] bool write_all(std::string_view data) noexcept;

  /// Ends an exchange the server closes (HTTP `Connection: close`): shuts
  /// the write side so the peer reads the whole reply and then EOF, and
  /// drains whatever the peer still sends until it closes too or `linger`
  /// passes. Closing with unread input makes the kernel reset the connection,
  /// which can destroy the reply before the peer has read it.
  void finish_reply(std::chrono::milliseconds linger) noexcept;

  /// Forces subsequent reads on this connection to fail (used to kick
  /// connection threads loose during drain). Async-signal-safe.
  void shutdown_now() noexcept;

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace ddm::net
