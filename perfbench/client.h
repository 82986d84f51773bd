#ifndef BAGALG_PERFBENCH_CLIENT_H_
#define BAGALG_PERFBENCH_CLIENT_H_

/// \file client.h
/// The benchmark's side of the wire: a bagalgd child process, keep-alive
/// HTTP/1.1 connections with pipelining, and /proc readings.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workload.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

/// bagalgd as a child process. The destructor stops it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary` with `flags` and waits for its "listening" line.
  /// stderr goes to `log_path`. Returns an error message, empty on success.
  std::string Start(const std::string& binary,
                    const std::vector<std::string>& flags,
                    const std::string& log_path);
  /// SIGTERM (graceful drain), then waits; SIGKILL after 30 s.
  void Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  /// Read end of the child's stdout, held open so its writes never fail.
  int stdout_fd_ = -1;
};

/// Peak resident set (VmHWM) of `pid` ("self" for this process), in MiB.
double PeakRssMb(const std::string& pid);
/// CPU time of `pid` ("self" for this process), in seconds, from the
/// process's CPU clock (all threads, exited ones included). With
/// paravirtual steal-time accounting, time the host took the vCPU away is
/// not counted, nor is time spent asleep or runnable but waiting for a
/// CPU; that is what makes it steadier than a wall clock on a shared host.
double CpuSeconds(const std::string& pid);

/// One parsed HTTP response.
struct HttpResponse {
  int status = 0;
  /// Body with any chunked framing removed.
  std::string body;
  /// Bytes the response took on the wire: head, framing and body.
  size_t wire_bytes = 0;
};

/// The full HTTP request for one statement in `session`'s wire format.
std::string StatementRequest(const std::string& session,
                             const std::string& line, Wire wire);

/// A non-blocking keep-alive connection. Requests are queued and flushed as
/// the socket allows; responses are parsed in order as bytes arrive.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to 127.0.0.1:port; false on failure.
  bool Open(int port);
  int fd() const { return fd_; }

  void Queue(const std::string& request) { out_ += request; }
  bool WantsWrite() const { return out_off_ < out_.size(); }
  /// Writes what the socket takes; false on a socket error.
  bool Flush();
  /// Reads what is available; false on EOF or a socket error.
  bool Fill();
  /// Moves the next complete response out of the read buffer. Returns 1 on
  /// success, 0 when more bytes are needed, -1 on a malformed response.
  int Take(HttpResponse* response);

 private:
  int fd_ = -1;
  std::string out_;
  size_t out_off_ = 0;
  std::string in_;
  size_t in_off_ = 0;
};

/// Blocks until every queued byte of `conn` is written and one response is
/// parsed (or `timeout_ms` passes). Empty string on success, else why not.
std::string AwaitResponse(Connection* conn, HttpResponse* response,
                          int timeout_ms = 60000);

/// GET `path` on a fresh connection (Connection: close); the body, or an
/// empty string on failure.
std::string HttpGet(int port, const std::string& path);

}  // namespace perfbench

#endif  // BAGALG_PERFBENCH_CLIENT_H_
