// bagalgd — a fault-tolerant multi-client BALG server.
//
//   $ ./build/examples/bagalgd --port=8080
//   bagalgd listening on 127.0.0.1:8080
//   $ curl -s localhost:8080/v1/statement -d
//       '{"session":"s1","statement":"eval uplus(X, X)"}'
//   {"ok":true,"outcome":"ok","session":"s1","output":"{{a: 2}}", ...}
//
// Flags (all optional):
//   --host=ADDR            listen address        (default 127.0.0.1)
//   --port=N               listen port, 0 = any  (default 0)
//   --executors=N          statement lanes       (default 4)
//   --queue=N              admission queue bound (default 64)
//   --max-connections=N    connection cap        (default 4096)
//   --max-sessions=N       session cap           (default 128)
//   --timeout-ms=N         per-statement wall deadline ceiling (0 = off)
//   --memlimit-bytes=N     per-statement memory cap ceiling    (0 = off)
//   --budget=N             cost-budget admission ceiling       (0 = off)
//   --journal-dir=DIR      flush session journals here on close/drain
//
// JSON replies that fit in one 64 KiB slice go out with Content-Length;
// longer ones are streamed with chunked transfer-encoding.
//
// SIGTERM and SIGINT begin a graceful drain: stop accepting, shed the
// queue as 503, cancel in-flight statements, flush journals, exit 0.
// Chaos: run under BAGALG_FAULT=io:p=0.05:seed=7 to inject short reads,
// disconnects, and accept failures deterministically (docs/SERVER.md).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/net/server.h"
#include "src/util/build_info.h"

using namespace bagalg;

namespace {

// The handler only touches the server through the async-signal-safe
// RequestShutdown (atomic store + shutdown(2)).
net::Server* g_server = nullptr;

void HandleShutdownSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    const std::string flag(arg, eq != nullptr
                                    ? static_cast<size_t>(eq - arg)
                                    : std::strlen(arg));
    const char* value = eq != nullptr ? eq + 1 : "";
    uint64_t n = 0;
    if (flag == "--host") {
      options.host = value;
    } else if (flag == "--port" && ParseUint(value, &n) && n <= 65535) {
      options.port = static_cast<uint16_t>(n);
    } else if (flag == "--executors" && ParseUint(value, &n) && n > 0) {
      options.executors = static_cast<unsigned>(n);
    } else if (flag == "--queue" && ParseUint(value, &n) && n > 0) {
      options.queue_capacity = static_cast<size_t>(n);
    } else if (flag == "--max-connections" && ParseUint(value, &n) && n > 0) {
      options.max_connections = static_cast<size_t>(n);
    } else if (flag == "--max-sessions" && ParseUint(value, &n) && n > 0) {
      options.max_sessions = static_cast<size_t>(n);
    } else if (flag == "--timeout-ms" && ParseUint(value, &n)) {
      options.default_timeout_ms = n;
    } else if (flag == "--memlimit-bytes" && ParseUint(value, &n)) {
      options.default_memlimit_bytes = n;
    } else if (flag == "--budget" && ParseUint(value, &n)) {
      options.cost_budget = n;
    } else if (flag == "--journal-dir") {
      options.journal_dir = value;
    } else {
      std::cerr << "bagalgd: bad flag: " << arg << "\n";
      return 2;
    }
  }

  const std::string host = options.host;
  auto server = net::Server::Start(std::move(options));
  if (!server.ok()) {
    std::cerr << "bagalgd: " << server.status() << "\n";
    return 1;
  }
  g_server = server->get();

  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  // The smoke client parses this exact line to find the bound port; keep
  // it first on stdout and flushed.
  std::cout << "bagalgd listening on " << host << ":"
            << (*server)->port() << "\n"
            << BuildInfoString() << "\n"
            << std::flush;

  (*server)->Wait();

  const net::ServerStats stats = (*server)->stats();
  std::cerr << "bagalgd: drained; requests=" << stats.requests
            << " ok=" << stats.ok << " refused=" << stats.refused
            << " shed=" << stats.shed << " tripped=" << stats.tripped
            << " errors=" << stats.errors << " io_errors=" << stats.io_errors
            << " keepalive_reuses=" << stats.keepalive_reuses
            << " pipelined=" << stats.pipelined
            << " bag1=" << stats.bag1_requests
            << " streamed=" << stats.streamed_responses << "\n";
  return 0;
}
