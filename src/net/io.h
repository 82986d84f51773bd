#ifndef BAGALG_NET_IO_H_
#define BAGALG_NET_IO_H_

/// \file io.h
/// Socket I/O primitives for bagalgd, written for a hostile world.
///
/// The event loop never blocks in a syscall on behalf of one peer: its
/// reads, writes and accepts are the non-blocking primitives below, which
/// report EAGAIN through `*would_block` instead of waiting. WriteAll is the
/// one blocking primitive, for loopback clients (tests, benches).
///
/// Every primitive here (a) retries EINTR, (b) reports failures as typed
/// Status values — kUnavailable for the transient, connection-scoped kind —
/// and (c) consults the deterministic fault injector (`BAGALG_FAULT=io:...`)
/// so the chaos suite can make any read short, any write fail EPIPE-shaped,
/// and any accept stumble, on a reproducible schedule. Injected faults and
/// real network faults take the same code paths on purpose: the tests that
/// pass under `io:p=0.05` are the proof that a flaky network cannot crash
/// the server, only produce typed io-error outcomes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/result.h"

namespace bagalg::net {

/// Owning file descriptor. Closing retries EINTR once and otherwise
/// swallows errors (there is nothing useful to do with a failed close on a
/// socket being torn down).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Reset();

 private:
  int fd_ = -1;
};

/// Opens a TCP listener on host:port (port 0 = kernel-assigned, read back
/// with LocalPort). SO_REUSEADDR is set so restarts do not trip TIME_WAIT.
Result<Fd> ListenOn(const std::string& host, uint16_t port, int backlog);

/// The port a listener is actually bound to.
Result<uint16_t> LocalPort(int listen_fd);

/// Writes all of `data`, blocking, looping over partial writes. SIGPIPE is
/// suppressed (MSG_NOSIGNAL); a dead peer is an EPIPE-shaped kUnavailable.
/// Injected short writes shrink individual transfers to one byte; injected
/// errors abort the write as kUnavailable.
Status WriteAll(int fd, std::string_view data);

// ------------------------------------------------------- non-blocking io

/// Switches `fd` to O_NONBLOCK.
Status SetNonBlocking(int fd);

/// Reads up to `len` bytes without blocking. Returns 0 with
/// *would_block=true when the socket has no bytes ready; returns 0 with
/// *would_block=false at orderly EOF. An injected short read transfers at
/// most one byte (exercising every caller's resume loop); an injected
/// error is an ECONNRESET-shaped kUnavailable.
Result<size_t> ReadNonBlocking(int fd, char* buf, size_t len,
                               bool* would_block);

/// Writes a prefix of `data` without blocking; returns the byte count
/// actually queued (0 with *would_block=true when the send buffer is
/// full). Injected faults behave as in WriteAll.
Result<size_t> WriteNonBlocking(int fd, std::string_view data,
                                bool* would_block);

/// Accepts one connection without blocking; the returned socket is already
/// O_NONBLOCK. *would_block=true when the backlog is empty. kUnavailable
/// covers the transient accept failures (EMFILE/ENFILE/ECONNABORTED and
/// injected ones) — the accept loop should back off and keep going. Other
/// errors (including a listener shut down for drain) are kCancelled.
Result<Fd> AcceptNonBlocking(int listen_fd, bool* would_block);

/// An eventfd for cross-thread wakeups of an epoll loop: executor threads
/// Signal() it after publishing a completion; a signal-handler may too
/// (write(2) is async-signal-safe). The loop drains it with Drain().
class WakeupFd {
 public:
  static Result<WakeupFd> Create();
  int fd() const { return fd_.get(); }
  /// Makes the fd readable; async-signal-safe; never blocks (the eventfd
  /// counter saturates long before EAGAIN matters for a wakeup).
  void Signal() const;
  /// Consumes all pending signals.
  void Drain() const;

 private:
  Fd fd_;
};

}  // namespace bagalg::net

#endif  // BAGALG_NET_IO_H_
