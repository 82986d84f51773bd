#ifndef BAGALG_NET_SERVER_H_
#define BAGALG_NET_SERVER_H_

/// \file server.h
/// bagalgd — a fault-tolerant multi-client BALG server.
///
/// Architecture (robustness-first, in the order a request meets it):
///
///   epoll event loop ── per-connection state machines ── bounded executor
///        (1 thread)        (reading|executing|writing)        pool
///                                                              │
///                                         per-session ScriptRunner (REPL)
///
///   * One event-loop thread owns every connection. Connections are
///     non-blocking sockets registered level-triggered in epoll; an idle
///     keep-alive connection costs one fd and a small parser buffer — no
///     thread. HTTP/1.1 requests parse incrementally (net/http.h) under
///     hard caps; pipelined requests are answered in order, and keep-alive
///     re-arms the connection for the next request the moment a response
///     finishes writing. Sessions are *not* connections: a session (named
///     by the client) holds a private Database, query journal, flight
///     recorder, budget, and governor defaults — the exact REPL engine
///     (lang::ScriptRunner) behind a mutex — and survives disconnects
///     until closed or the server drains.
///   * Admission control: statement execution happens on a pool of N
///     executor threads fed by a *bounded* queue. A full queue sheds the
///     request with a typed 429 and a Retry-After derived from queue depth
///     — predictable latency for admitted work instead of collapse.
///     Connection and session counts are capped the same way (503).
///     Executors hand results back through a completion queue and an
///     eventfd wakeup; the loop renders and writes the response.
///   * One JSON response path: every JSON reply (success or typed error)
///     is rendered through one envelope and one value encoder
///     (WireJsonStreamer). Framing follows the measured size: the first
///     64 KiB slice is serialized up front, and a body that fits in it goes
///     out with Content-Length; a longer one goes out with chunked
///     transfer-encoding, serialized incrementally against the write
///     buffer's watermarks, so one slow reader holds bounded memory —
///     EPOLLOUT backpressure paces the serializer.
///   * The BAG1 binary protocol (Content-Type: application/x-bag1) skips
///     JSON both ways: the request body is one BAG1 frame holding a binary
///     statement envelope, the response one frame holding the binary
///     result — exact BigNat multiplicities, no quoting, no re-parse.
///   * Cost-budget preflight: when a budget is configured, statements whose
///     statically estimated output exceeds it are refused (E001 → 422)
///     before touching the executor — never executed.
///   * Per-request deadlines and memcaps run through the same
///     ResourceGovernor as the REPL: a tripped statement returns a typed
///     error (504/507/499) with the flight-recorder dump attached, and the
///     session keeps serving.
///   * Graceful drain: RequestShutdown (async-signal-safe, call it from a
///     SIGTERM handler) stops the accept path, sheds queued work as 503,
///     cancels in-flight statements through their session tokens, lets the
///     loop finish writing in-flight responses (a cancelled statement's
///     499 reaches its client), flushes every session journal to
///     journal_dir, then releases Wait().
///
/// Endpoints:
///   POST /v1/statement      {"session":S,"statement":L[,"timeout_ms":N]
///                            [,"memlimit_bytes":N]} → typed outcome;
///                           application/x-bag1 body = BAG1 binary frame
///   POST /v1/session/close  {"session":S} → flush + drop the session
///   GET  /healthz           build identity + serving|draining + gauges
///   GET  /metrics           Prometheus text exposition (global registry)
///   GET  /trace             recent journal entries across live sessions
///
/// Every terminal request outcome is typed: ok / refused / shed / tripped
/// (deadline, memcap, cancel, fault) / io-error / error — see docs/SERVER.md.

#include <cstdint>
#include <memory>
#include <string>

#include "src/net/http.h"
#include "src/util/result.h"

namespace bagalg::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned; read back with port().
  uint16_t port = 0;
  /// Executor pool width — the statement-level concurrency.
  unsigned executors = 4;
  /// Admission queue bound; beyond it requests are shed (429).
  size_t queue_capacity = 64;
  /// Connection cap; beyond it accepts are answered 503 and closed. Idle
  /// connections are nearly free under the event loop, so the default is
  /// sized for keep-alive fleets, not handler threads.
  size_t max_connections = 4096;
  /// Session cap; creating one beyond it is 503.
  size_t max_sessions = 128;
  /// Default per-statement wall deadline for new sessions (0 = off).
  uint64_t default_timeout_ms = 0;
  /// Default per-statement memory cap for new sessions (0 = off).
  uint64_t default_memlimit_bytes = 0;
  /// Cost-budget admission ceiling for new sessions (0 = off): statements
  /// with a statically estimated output above this are refused, E001 → 422.
  uint64_t cost_budget = 0;
  /// When nonempty, session journals are exported here as
  /// <dir>/session-<name>.jsonl on session close and on drain.
  std::string journal_dir;
  HttpLimits http;
  int backlog = 128;
};

/// Point-in-time server statistics (also the /healthz payload's numbers).
struct ServerStats {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t refused = 0;   // budget preflight said no (E001)
  uint64_t shed = 0;      // admission queue full / draining
  uint64_t tripped = 0;   // governor: deadline, memcap, cancel, fault
  uint64_t errors = 0;    // typed statement errors (parse, type, ...)
  uint64_t io_errors = 0; // connections torn by (injected or real) io faults
  uint64_t sessions_created = 0;
  uint64_t sessions_closed = 0;
  uint64_t connections_accepted = 0;
  uint64_t keepalive_reuses = 0;  // requests served on a reused connection
  uint64_t pipelined = 0;  // requests that arrived behind an earlier one
  uint64_t bag1_requests = 0;     // statements on the binary wire path
  uint64_t streamed_responses = 0;  // JSON replies past one slice, chunked
  size_t sessions_live = 0;
  size_t connections_live = 0;
  size_t queue_depth = 0;
  size_t epoll_fds = 0;  // fds registered with the event loop
  bool draining = false;
};

class Server {
 public:
  /// Binds, spawns the executor pool and event loop, and returns a
  /// serving instance.
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);

  /// Stops without draining politely if the caller never asked; prefer
  /// RequestShutdown + Wait.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port.
  uint16_t port() const;

  /// Begins a graceful drain. Async-signal-safe (an atomic store, a
  /// shutdown(2), and an eventfd write): call it straight from a
  /// SIGTERM/SIGINT handler.
  void RequestShutdown();

  /// Blocks until a requested drain completes: accepting stopped, queue
  /// shed, in-flight statements cancelled or finished, their responses
  /// written, the loop joined, session journals flushed.
  void Wait();

  bool draining() const;
  ServerStats stats() const;

 private:
  Server();
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bagalg::net

#endif  // BAGALG_NET_SERVER_H_
