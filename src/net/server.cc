#include "src/net/server.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <optional>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/analysis/static_cost.h"
#include "src/lang/script.h"
#include "src/net/epoll.h"
#include "src/net/io.h"
#include "src/net/json_reader.h"
#include "src/net/wire.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/build_info.h"

namespace bagalg::net {

namespace {

// Epoll tags: connections use their ids, which start above the reserved
// values and never recycle — a completion for a closed connection can
// never be misdelivered to a newer one.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeupTag = 1;
constexpr uint64_t kFirstConnId = 2;

// Write-buffer watermarks: the streamer refills the out buffer when the
// unwritten remainder drops below the low mark and each refill slice is
// one stream unit — a slow reader therefore holds at most roughly
// high-water bytes of serialized response, never the whole body.
constexpr size_t kWriteLowWater = 64 * 1024;
constexpr size_t kStreamSliceBytes = 64 * 1024;
// At most this many accepts are drained per listener event, so one
// connect storm cannot starve live connections of loop time.
constexpr int kAcceptBatch = 64;
// Per-event read ceiling, for the same fairness reason.
constexpr size_t kReadBatchBytes = 256 * 1024;
// How many responses (sync or in-flight statements) one connection may
// have outstanding before parsing pauses. Parse-ahead keeps the executor
// pool fed and lets consecutive responses coalesce into one write, while
// the cap stops a single pipelining client from monopolizing the
// admission queue.
constexpr size_t kMaxPipelineDepth = 16;

const char kBag1ContentType[] = "application/x-bag1";

/// Session names are also journal file names: the charset excludes every
/// path metacharacter by construction.
bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

/// One resident session: the REPL engine behind a mutex. The cancellation
/// token is a copy of the runner's (they share the flag), kept outside the
/// mutex so drain can cancel an in-flight statement without blocking on it.
struct Session {
  explicit Session(std::string name) : id(std::move(name)) {
    cancel = runner.cancel_token();
  }
  const std::string id;
  std::mutex mu;
  lang::ScriptRunner runner;  // guarded by mu
  CancellationToken cancel;   // lock-free Cancel

  // FIFO turnstile: with parse-ahead, several statements of one session
  // can sit in the executor queue at once, and two lanes could otherwise
  // run them out of program order (`let X` racing `eval X`). Tickets are
  // issued in enqueue order (under the queue mutex), and a lane blocks
  // until its ticket is served. Deadlock-free because the queue pops
  // FIFO: the lane holding the now-serving ticket always exists.
  uint64_t next_ticket = 0;  // guarded by the server's queue mutex
  std::mutex turn_mu;
  std::condition_variable turn_cv;
  uint64_t now_serving = 0;  // guarded by turn_mu
};

/// What one statement execution produced, shipped from the executor back
/// to the event loop through the completion queue. The result travels as
/// a Value (an O(1) shared-tree handle), not serialized text: the loop
/// decides per-connection whether to materialize JSON, stream it chunked,
/// or encode BAG1 binary.
struct StatementResult {
  Status status = Status::Ok();
  std::string output;
  std::optional<Value> result;
  std::string outcome;      // "ok","budget-refused","deadline","memcap",...
  std::string flight;       // flight-recorder dump when the governor tripped
  uint64_t wall_us = 0;
};

struct ExecJob {
  enum class Kind : uint8_t { kStatement, kCloseSession };
  Kind kind = Kind::kStatement;
  uint64_t conn_id = 0;
  uint64_t seq = 0;     // response slot on the connection
  uint64_t ticket = 0;  // session turnstile position
  std::shared_ptr<Session> session;
  std::string session_name;
  std::string statement;
  uint64_t timeout_ms = 0;
  uint64_t memlimit_bytes = 0;
  bool bag1 = false;        // answer on the binary wire path
  bool want_close = false;  // connection closes after the response
};

struct Completion {
  ExecJob job;
  StatementResult result;
};

/// Aggregates the precise per-statement outcome word into the five typed
/// buckets of the acceptance contract.
enum class Bucket { kOk, kRefused, kShed, kTripped, kError };

Bucket BucketFor(const std::string& outcome) {
  if (outcome == "ok") return Bucket::kOk;
  if (outcome == "budget-refused") return Bucket::kRefused;
  if (outcome == "shed" || outcome == "draining") return Bucket::kShed;
  if (outcome == "deadline" || outcome == "memcap" || outcome == "cancel" ||
      outcome == "fault") {
    return Bucket::kTripped;
  }
  return Bucket::kError;
}

/// Outcome word for statements that never reached the journal (parse
/// errors, shed, refusal surfaced only as a Status).
std::string OutcomeForStatus(const Status& status) {
  if (status.ok()) return "ok";
  switch (status.code()) {
    case StatusCode::kBudgetExceeded: return "budget-refused";
    case StatusCode::kDeadlineExceeded: return "deadline";
    case StatusCode::kResourceExhausted: return "memcap";
    case StatusCode::kCancelled: return "cancel";
    case StatusCode::kUnavailable: return "shed";
    default: return "error";
  }
}

uint64_t EffectiveLimit(uint64_t requested, uint64_t server_default) {
  if (requested == 0) return server_default;
  if (server_default == 0) return requested;
  return std::min(requested, server_default);
}

bool IsBag1Request(const HttpRequest& request) {
  const auto it = request.headers.find("content-type");
  return it != request.headers.end() &&
         it->second.find(kBag1ContentType) != std::string::npos;
}

/// One response owed to a connection, in request order. A slot is either
/// ready (bytes materialized, or a chunked head plus a streamer) or still
/// waiting on its statement's completion. Slots only leave the queue from
/// the front, and only once ready — pipelined responses therefore always
/// go out in the order their requests arrived, no matter how the executor
/// lanes interleave.
struct ResponseSlot {
  bool ready = false;
  bool close_after = false;  // connection closes once this slot is written
  std::string bytes;
  std::unique_ptr<WireJsonStreamer> stream;  // chunked body, if streamed
};

/// One connection's state machine, owned exclusively by the loop thread.
/// Parse-ahead: the loop keeps parsing pipelined requests (up to
/// kMaxPipelineDepth outstanding responses) while earlier statements are
/// still executing, so the executor pool stays fed and consecutive
/// responses coalesce into one write.
struct Conn {
  uint64_t id = 0;
  Fd fd;
  HttpReader reader;
  std::string out;      // promoted response bytes awaiting write
  size_t out_off = 0;   // written prefix of `out`
  std::unique_ptr<WireJsonStreamer> stream;  // active chunked body
  std::deque<ResponseSlot> slots;  // responses owed, in request order
  uint64_t base_seq = 0;           // seq of slots.front()
  size_t in_flight = 0;            // slots still waiting on the executor
  bool close_pending = false;   // a close-marked response was queued
  bool close_after_write = false;
  bool read_closed = false;  // EOF/RDHUP seen; no further requests
  bool eof_handled = false;  // the one-shot EOF accounting ran
  bool finish_after_flush = false;  // EOF: close once owed bytes are out
  bool doomed = false;       // close deferred to end of loop iteration
  uint64_t requests_served = 0;
  uint32_t interest = 0;  // epoll mask currently registered

  size_t pending_out() const { return out.size() - out_off; }
  uint64_t next_seq() const { return base_seq + slots.size(); }
  bool idle() const {
    return in_flight == 0 && pending_out() == 0 && stream == nullptr &&
           slots.empty();
  }
};

}  // namespace

class Server::Impl {
 public:
  explicit Impl(ServerOptions options) : options_(std::move(options)) {}

  ~Impl() {
    RequestShutdown();
    Wait();
  }

  Status Start() {
    BAGALG_ASSIGN_OR_RETURN(
        listen_fd_,
        ListenOn(options_.host, options_.port, options_.backlog));
    BAGALG_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_.get()));
    BAGALG_RETURN_IF_ERROR(SetNonBlocking(listen_fd_.get()));
    listen_fd_raw_.store(listen_fd_.get(), std::memory_order_release);
    BAGALG_ASSIGN_OR_RETURN(epoll_, EpollLoop::Create());
    BAGALG_ASSIGN_OR_RETURN(wakeup_, WakeupFd::Create());
    BAGALG_RETURN_IF_ERROR(
        epoll_.Add(listen_fd_.get(), EPOLLIN, kListenerTag));
    BAGALG_RETURN_IF_ERROR(epoll_.Add(wakeup_.fd(), EPOLLIN, kWakeupTag));
    loop_iter_hist_ = obs::GlobalMetrics().GetHistogram(
        "server.epoll.loop_iter_us");
    const unsigned executors = std::max(1u, options_.executors);
    executors_.reserve(executors);
    for (unsigned i = 0; i < executors; ++i) {
      executors_.emplace_back([this] { ExecutorLoop(); });
    }
    loop_thread_ = std::thread([this] { EventLoop(); });
    return Status::Ok();
  }

  uint16_t port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  void RequestShutdown() {
    // Async-signal-safe: an atomic store, a shutdown(2), and an eventfd
    // write. The shutdown makes the listener readable (accept then fails),
    // the eventfd wakes the loop even if it was idle in epoll_wait.
    draining_.store(true, std::memory_order_release);
    const int fd = listen_fd_raw_.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    wakeup_.Signal();
  }

  void Wait() {
    while (!draining()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::lock_guard<std::mutex> lock(teardown_mu_);
    if (torn_down_) return;
    Teardown();
    torn_down_ = true;
  }

  ServerStats stats() const {
    ServerStats s;
    s.requests = requests_.load();
    s.ok = ok_.load();
    s.refused = refused_.load();
    s.shed = shed_.load();
    s.tripped = tripped_.load();
    s.errors = errors_.load();
    s.io_errors = io_errors_.load();
    s.sessions_created = sessions_created_.load();
    s.sessions_closed = sessions_closed_.load();
    s.connections_accepted = connections_accepted_.load();
    s.keepalive_reuses = keepalive_reuses_.load();
    s.pipelined = pipelined_.load();
    s.bag1_requests = bag1_requests_.load();
    s.streamed_responses = streamed_responses_.load();
    s.connections_live = connections_live_.load();
    s.epoll_fds = epoll_fds_.load();
    s.draining = draining();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      s.sessions_live = sessions_.size();
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      s.queue_depth = queue_.size();
    }
    return s;
  }

 private:
  // --------------------------------------------------------- event loop

  void EventLoop() {
    std::vector<ReadyEvent> ready;
    bool accepting = true;
    while (!loop_stop_.load(std::memory_order_acquire)) {
      auto waited = epoll_.Wait(&ready, 500);
      if (!waited.ok()) break;  // epoll itself broken; drain will reap
      const auto iter_start = std::chrono::steady_clock::now();
      if (accepting && draining()) {
        // First drain observation: stop accepting. Existing connections
        // keep their event-driven lifecycle so in-flight responses (and
        // cancellation 499s) still reach their clients.
        (void)epoll_.Remove(listen_fd_.get());
        accepting = false;
      }
      for (const ReadyEvent& ev : ready) {
        if (ev.tag == kListenerTag) {
          if (accepting) HandleListener();
        } else if (ev.tag == kWakeupTag) {
          wakeup_.Drain();
          DrainCompletions();
        } else {
          HandleConnEvent(ev);
        }
      }
      ReapDoomed();
      RefreshLoopGauges(*waited);
      if (*waited > 0) {
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - iter_start);
        loop_iter_hist_->Observe(static_cast<uint64_t>(us.count()));
      }
    }
    // Loop exit: every remaining connection is torn down (drain already
    // gave pending writes their grace period in Teardown).
    for (auto& [id, conn] : conns_) {
      (void)epoll_.Remove(conn->fd.get());
    }
    conns_.clear();
    connections_live_.store(0);
    RefreshLoopGauges(0);
  }

  void RefreshLoopGauges(int ready_count) {
    epoll_fds_.store(epoll_.registered());
    ready_depth_.store(static_cast<uint64_t>(std::max(ready_count, 0)));
    // The state scan is O(connections); amortize it on the fast path. It
    // runs every iteration while draining because busy_conns_ is what
    // Teardown's grace period watches.
    if (!draining() && (++gauge_iter_ & 63) != 0) return;
    size_t reading = 0, executing = 0, writing = 0, busy = 0;
    for (const auto& [id, conn] : conns_) {
      if (conn->in_flight > 0) {
        ++executing;
        ++busy;
      } else if (!conn->idle()) {
        ++writing;
        ++busy;
      } else {
        ++reading;
      }
    }
    conns_reading_.store(reading);
    conns_executing_.store(executing);
    conns_writing_.store(writing);
    size_t pending;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      pending = completions_.size();
    }
    busy_conns_.store(busy + pending);
  }

  // ------------------------------------------------------------- accept

  void HandleListener() {
    for (int i = 0; i < kAcceptBatch; ++i) {
      bool would_block = false;
      auto conn = AcceptNonBlocking(listen_fd_.get(), &would_block);
      if (would_block) return;
      if (!conn.ok()) {
        if (draining() || conn.status().code() == StatusCode::kCancelled) {
          return;
        }
        // Transient refusal (injected or EMFILE-shaped): the pending
        // connection stays in the backlog; the next listener event retries.
        accept_retries_.fetch_add(1);
        return;
      }
      connections_accepted_.fetch_add(1);
      // Response-sized writes must not sit behind Nagle waiting for a
      // delayed ACK: pipelined clients would see 40ms stalls per reply.
      const int one = 1;
      (void)::setsockopt(conn->get(), IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
      if (conns_.size() >= options_.max_connections) {
        // Over the cap: answer with a typed 503 and close. Best-effort —
        // the socket is fresh, so the small write virtually never blocks,
        // and a peer that cannot take it was going to be closed anyway.
        HttpResponse resp = ErrorResponseBody(
            503, Status::Unavailable("connection limit reached"), "shed");
        resp.close = true;
        resp.extra_headers.emplace_back("Retry-After", "1");
        bool wb = false;
        (void)WriteNonBlocking(conn->get(), FormatHttpResponse(resp), &wb);
        shed_.fetch_add(1);
        continue;
      }
      auto c = std::make_unique<Conn>();
      c->id = next_conn_id_++;
      c->fd = std::move(*conn);
      c->reader = HttpReader(options_.http);
      c->interest = EPOLLIN | EPOLLRDHUP;
      if (!epoll_.Add(c->fd.get(), c->interest, c->id).ok()) continue;
      connections_live_.fetch_add(1);
      conns_.emplace(c->id, std::move(c));
    }
  }

  // -------------------------------------------------- connection events

  void HandleConnEvent(const ReadyEvent& ev) {
    auto it = conns_.find(ev.tag);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->doomed) return;
    if (ev.events & EPOLLERR) {
      // The socket is dead; any in-flight response is undeliverable.
      Doom(c, /*io_error=*/!c->idle() || c->reader.mid_request());
      return;
    }
    if (ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
      ReadFromConn(c);
      if (c->doomed) return;
    }
    if (ev.events & EPOLLOUT) {
      DriveConn(c);
      if (c->doomed) return;
    }
    UpdateInterest(c);
  }

  void ReadFromConn(Conn* c) {
    if (c->read_closed) return;
    char chunk[16 * 1024];
    size_t total = 0;
    while (total < kReadBatchBytes) {
      bool would_block = false;
      auto n = ReadNonBlocking(c->fd.get(), chunk, sizeof(chunk),
                               &would_block);
      if (!n.ok()) {
        // Injected or real io fault mid-connection: typed io-error, torn.
        Doom(c, /*io_error=*/true);
        return;
      }
      if (would_block) break;
      if (*n == 0) {
        // Orderly EOF. Buffered complete requests still parse and their
        // responses still deliver (a client may send-then-half-close);
        // only once the parser runs dry does ParseOneRequest decide
        // between a clean close and a vanished-mid-request peer.
        c->read_closed = true;
        break;
      }
      total += *n;
      c->reader.Feed(std::string_view(chunk, *n));
    }
    DriveConn(c);
  }

  /// Advances the connection as far as it can go without blocking: flush
  /// whatever responses are ready (coalescing consecutive ones into one
  /// write), then parse further pipelined requests while earlier
  /// statements still execute. Iterative on purpose — a deep pipeline
  /// must not recurse.
  void DriveConn(Conn* c) {
    while (!c->doomed) {
      (void)FlushConn(c);
      if (c->doomed) return;
      if (c->close_pending || c->slots.size() >= kMaxPipelineDepth) return;
      if (!ParseOneRequest(c)) return;
    }
  }

  /// Parses and dispatches one request. Returns true when it made
  /// progress (caller should keep driving), false when more bytes are
  /// needed or the connection is done.
  bool ParseOneRequest(Conn* c) {
    HttpRequest request;
    auto got = c->reader.Next(&request);
    if (!got.ok()) {
      errors_.fetch_add(1);
      const bool header_cap =
          got.status().message().find("header") != std::string::npos;
      const int status =
          got.status().code() == StatusCode::kParseError
              ? 400
              : (header_cap ? 431 : 413);
      HttpResponse resp = ErrorResponseBody(status, got.status(), "error");
      resp.close = true;
      QueueResponse(c, resp, /*close=*/true);
      return true;
    }
    if (!*got) {
      if (c->read_closed && !c->eof_handled) {
        c->eof_handled = true;
        if (c->reader.mid_request() || c->reader.buffered_bytes() > 0) {
          // The peer vanished mid-request: torn, typed as an io error.
          io_errors_.fetch_add(1);
        }
        if (c->idle()) {
          Doom(c, /*io_error=*/false);
        } else {
          // Responses are still owed (executing or unwritten); deliver
          // them, then close — send-then-half-close clients get answers.
          c->finish_after_flush = true;
        }
      }
      return false;
    }
    requests_.fetch_add(1);
    c->requests_served++;
    if (c->requests_served > 1) keepalive_reuses_.fetch_add(1);
    if (c->reader.buffered_bytes() > 0) pipelined_.fetch_add(1);
    HandleRequest(c, request);
    return true;
  }

  // ----------------------------------------------------------- routing

  void HandleRequest(Conn* c, const HttpRequest& request) {
    const bool want_close = RequestWantsClose(request);
    if (request.method == "POST" && request.path == "/v1/statement") {
      StatementRequest(c, request, want_close);
      return;
    }
    if (request.method == "POST" && request.path == "/v1/session/close") {
      CloseSessionRequest(c, request, want_close);
      return;
    }
    HttpResponse resp;
    if (request.method == "GET" && request.path == "/healthz") {
      resp = Healthz();
    } else if (request.method == "GET" && request.path == "/metrics") {
      resp = Metrics();
    } else if (request.method == "GET" && request.path == "/trace") {
      resp = Trace();
    } else if (request.path == "/healthz" || request.path == "/metrics" ||
               request.path == "/trace" || request.path == "/v1/statement" ||
               request.path == "/v1/session/close") {
      errors_.fetch_add(1);
      resp = ErrorResponseBody(
          405,
          Status::InvalidArgument("method not allowed on " + request.path),
          "error");
    } else {
      errors_.fetch_add(1);
      resp = ErrorResponseBody(
          404, Status::NotFound("no such endpoint: " + request.path),
          "error");
    }
    QueueResponse(c, resp, want_close);
  }

  HttpResponse Healthz() {
    const ServerStats s = stats();
    std::string body = "{\"status\":";
    body += s.draining ? "\"draining\"" : "\"serving\"";
    body += ",\"build\":" + BuildInfoJson();
    body += ",\"engine_default\":\"ir\"";
    body += ",\"sessions\":" + std::to_string(s.sessions_live);
    body += ",\"connections\":" + std::to_string(s.connections_live);
    body += ",\"queue_depth\":" + std::to_string(s.queue_depth);
    body += ",\"requests\":" + std::to_string(s.requests);
    body += ",\"epoll_fds\":" + std::to_string(s.epoll_fds);
    body += "}";
    HttpResponse resp;
    resp.body = std::move(body);
    return resp;
  }

  HttpResponse Metrics() {
    obs::MirrorGovernorStats();
    MirrorServerStats();
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = obs::GlobalMetrics().Snapshot().ToPrometheusText();
    return resp;
  }

  HttpResponse Trace() {
    std::vector<std::shared_ptr<Session>> sessions;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions.reserve(sessions_.size());
      for (const auto& [name, session] : sessions_) {
        sessions.push_back(session);
      }
    }
    std::string body = "{\"sessions\":[";
    bool first_session = true;
    for (const auto& session : sessions) {
      if (!first_session) body += ",";
      first_session = false;
      body += "{\"id\":" + obs::JsonQuote(session->id) + ",\"entries\":[";
      // try_lock: a session mid-statement would otherwise park the whole
      // event loop on its mutex for the statement's duration. Busy
      // sessions report an empty tail rather than stall every peer.
      std::unique_lock<std::mutex> lock(session->mu, std::try_to_lock);
      if (lock.owns_lock()) {
        bool first_entry = true;
        for (const auto& entry : session->runner.journal().Tail(8)) {
          if (!first_entry) body += ",";
          first_entry = false;
          body += entry.ToJsonLine();
        }
      }
      body += "]}";
    }
    body += "]}";
    HttpResponse resp;
    resp.body = std::move(body);
    return resp;
  }

  // --------------------------------------------------------- statements

  void StatementRequest(Conn* c, const HttpRequest& request,
                        bool want_close) {
    const bool bag1 = IsBag1Request(request);
    std::string session_name;
    std::string statement;
    uint64_t timeout_ms = 0;
    uint64_t memlimit_bytes = 0;

    if (bag1) {
      bag1_requests_.fetch_add(1);
      size_t consumed = 0;
      auto frame = DecodeFrame(request.body, &consumed);
      Status bad = Status::Ok();
      WireStatementRequest decoded;
      if (!frame.ok()) {
        bad = frame.status().code() == StatusCode::kUnavailable
                  ? Status::ParseError("wire: truncated BAG1 frame")
                  : frame.status();
      } else if (frame->format != WireFormat::kBinary) {
        bad = Status::ParseError("wire: BAG1 statement frames use the "
                                 "binary format tag");
      } else {
        auto req = DecodeStatementRequest(frame->payload);
        if (!req.ok()) {
          bad = req.status();
        } else {
          decoded = std::move(*req);
        }
      }
      if (!bad.ok()) {
        errors_.fetch_add(1);
        QueueEnvelope(c, ErrorEnvelope(400, bad, "error"), bag1, want_close);
        return;
      }
      session_name = decoded.session.empty() ? "default" : decoded.session;
      statement = std::move(decoded.statement);
      timeout_ms = decoded.timeout_ms;
      memlimit_bytes = decoded.memlimit_bytes;
    } else {
      auto doc = ParseJson(request.body);
      if (!doc.ok() || !doc->is_object()) {
        errors_.fetch_add(1);
        QueueEnvelope(
            c,
            ErrorEnvelope(400,
                          doc.ok() ? Status::InvalidArgument(
                                         "request body must be a JSON object")
                                   : doc.status(),
                          "error"),
            bag1, want_close);
        return;
      }
      session_name = doc->GetString("session", "default");
      const JsonValue* stmt = doc->Find("statement");
      if (stmt == nullptr || !stmt->is_string() || stmt->string.empty()) {
        errors_.fetch_add(1);
        QueueEnvelope(
            c,
            ErrorEnvelope(400,
                          Status::InvalidArgument(
                              "missing \"statement\" string"),
                          "error"),
            bag1, want_close);
        return;
      }
      statement = stmt->string;
      timeout_ms = doc->GetUint("timeout_ms", 0);
      memlimit_bytes = doc->GetUint("memlimit_bytes", 0);
    }

    if (!ValidSessionName(session_name)) {
      errors_.fetch_add(1);
      QueueEnvelope(c,
                    ErrorEnvelope(400,
                                  Status::InvalidArgument(
                                      "session names are [A-Za-z0-9_-]{1,64}"),
                                  "error"),
                    bag1, want_close);
      return;
    }
    if (draining()) {
      QueueEnvelope(c, ShedEnvelope(503, "draining for shutdown"), bag1,
                    want_close);
      return;
    }
    auto session = GetOrCreateSession(session_name);
    if (!session.ok()) {
      QueueEnvelope(c, ShedEnvelope(503, session.status().message()), bag1,
                    want_close);
      return;
    }

    ExecJob job;
    job.kind = ExecJob::Kind::kStatement;
    job.conn_id = c->id;
    job.session = *session;
    job.session_name = session_name;
    job.statement = std::move(statement);
    job.timeout_ms = EffectiveLimit(timeout_ms, options_.default_timeout_ms);
    job.memlimit_bytes =
        EffectiveLimit(memlimit_bytes, options_.default_memlimit_bytes);
    job.bag1 = bag1;
    job.want_close = want_close;

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (draining()) {
        QueueEnvelope(c, ShedEnvelope(503, "draining for shutdown"), bag1,
                      want_close);
        return;
      }
      if (queue_.size() >= options_.queue_capacity) {
        const size_t depth = queue_.size();
        const unsigned lanes = std::max(1u, options_.executors);
        Envelope shed = ShedEnvelope(429, "admission queue full");
        shed.retry_after = std::to_string(1 + depth / lanes);
        QueueEnvelope(c, shed, bag1, want_close);
        return;
      }
      // Slot seq and session ticket are both issued here, under the queue
      // mutex that orders the push: queue order == ticket order, which is
      // what makes the executor turnstile deadlock-free.
      job.seq = NewAsyncSlot(c, want_close);
      job.ticket = job.session->next_ticket++;
      queue_.push_back(std::move(job));
    }
    queue_cv_.notify_one();
  }

  void CloseSessionRequest(Conn* c, const HttpRequest& request,
                           bool want_close) {
    auto doc = ParseJson(request.body);
    if (!doc.ok() || !doc->is_object()) {
      errors_.fetch_add(1);
      QueueResponse(
          c,
          ErrorResponseBody(400,
                            doc.ok() ? Status::InvalidArgument(
                                           "request body must be a JSON "
                                           "object")
                                     : doc.status(),
                            "error"),
          want_close);
      return;
    }
    const std::string session_name = doc->GetString("session", "");
    std::shared_ptr<Session> session;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      auto it = sessions_.find(session_name);
      if (it != sessions_.end()) {
        session = it->second;
        sessions_.erase(it);  // slot frees immediately; flush runs async
      }
    }
    if (session == nullptr) {
      errors_.fetch_add(1);
      QueueResponse(
          c,
          ErrorResponseBody(
              404, Status::NotFound("no such session: " + session_name),
              "error"),
          want_close);
      return;
    }
    // The flush can block on the session mutex behind an in-flight
    // statement, so it runs on the executor pool, never the loop thread.
    ExecJob job;
    job.kind = ExecJob::Kind::kCloseSession;
    job.conn_id = c->id;
    job.session = std::move(session);
    job.session_name = session_name;
    job.want_close = want_close;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      // Session closes are admitted even at capacity: the close is what
      // relieves pressure, shedding it would wedge a full server.
      job.seq = NewAsyncSlot(c, want_close);
      job.ticket = job.session->next_ticket++;
      queue_.push_back(std::move(job));
    }
    queue_cv_.notify_one();
  }

  // ---------------------------------------------------------- sessions

  Result<std::shared_ptr<Session>> GetOrCreateSession(
      const std::string& name) {
    std::shared_ptr<Session> created;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      auto it = sessions_.find(name);
      if (it != sessions_.end()) return it->second;
      if (sessions_.size() >= options_.max_sessions) {
        return Status::Unavailable("session limit reached (" +
                                   std::to_string(options_.max_sessions) +
                                   ")");
      }
      created = std::make_shared<Session>(name);
      sessions_.emplace(name, created);
    }
    sessions_created_.fetch_add(1);
    {
      // No contention possible yet, but the runner's invariants are "hold
      // mu"; configure the session defaults under it.
      std::lock_guard<std::mutex> lock(created->mu);
      created->runner.set_timeout_ms(options_.default_timeout_ms);
      created->runner.set_memlimit_bytes(options_.default_memlimit_bytes);
      if (options_.cost_budget > 0) {
        analysis::CostBudget budget;
        budget.max_estimated_size = BigNat(options_.cost_budget);
        created->runner.set_budget(budget);
      }
    }
    return created;
  }

  void FlushSessionJournal(Session& session) {
    if (options_.journal_dir.empty()) return;
    std::lock_guard<std::mutex> lock(session.mu);
    // ValidSessionName guarantees the id is path-metacharacter-free.
    (void)session.runner.journal().ExportJsonl(
        options_.journal_dir + "/session-" + session.id + ".jsonl");
  }

  // --------------------------------------------------------- executors

  void ExecutorLoop() {
    while (true) {
      ExecJob job;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [this] {
          return stop_executors_ || !queue_.empty();
        });
        if (queue_.empty()) {
          if (stop_executors_) return;
          continue;
        }
        job = std::move(queue_.front());
        queue_.pop_front();
        if (draining() && job.kind == ExecJob::Kind::kStatement) {
          // Queued-but-not-started work is shed, not run: drain latency
          // must not depend on queue depth. The turnstile still advances
          // — later tickets of the session must not wait forever on a
          // statement that never ran.
          lock.unlock();
          WaitTurn(*job.session, job.ticket);
          AdvanceTurn(*job.session);
          StatementResult shed;
          shed.status = Status::Unavailable("draining for shutdown");
          shed.outcome = "draining";
          PublishCompletion(std::move(job), std::move(shed));
          continue;
        }
        active_executions_.fetch_add(1);
      }
      StatementResult result = job.kind == ExecJob::Kind::kCloseSession
                                   ? ExecuteClose(job)
                                   : Execute(job);
      PublishCompletion(std::move(job), std::move(result));
      active_executions_.fetch_sub(1);
      idle_cv_.notify_all();
    }
  }

  /// Blocks the lane until the session serves this ticket. Safe: tickets
  /// are issued in queue order and lanes pop FIFO, so the lane holding
  /// the now-serving ticket is always running (or about to).
  static void WaitTurn(Session& session, uint64_t ticket) {
    std::unique_lock<std::mutex> lock(session.turn_mu);
    session.turn_cv.wait(lock,
                         [&] { return session.now_serving == ticket; });
  }

  static void AdvanceTurn(Session& session) {
    {
      std::lock_guard<std::mutex> lock(session.turn_mu);
      ++session.now_serving;
    }
    session.turn_cv.notify_all();
  }

  void PublishCompletion(ExecJob job, StatementResult result) {
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(
          Completion{std::move(job), std::move(result)});
    }
    wakeup_.Signal();
  }

  StatementResult Execute(ExecJob& job) {
    Session& session = *job.session;
    WaitTurn(session, job.ticket);
    StatementResult result;
    {
      std::lock_guard<std::mutex> lock(session.mu);
      session.runner.set_timeout_ms(job.timeout_ms);
      session.runner.set_memlimit_bytes(job.memlimit_bytes);
      const uint64_t journal_before = session.runner.journal().total();
      const auto start = std::chrono::steady_clock::now();
      Result<std::string> output = session.runner.RunLine(job.statement);
      const auto wall = std::chrono::steady_clock::now() - start;

      result.wall_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(wall)
              .count());
      result.flight = session.runner.TakeFlightDump();
      if (output.ok()) {
        result.output = *output;
        if (session.runner.last_result().has_value()) {
          result.result = *session.runner.last_result();
        }
      } else {
        result.status = output.status();
      }
      if (session.runner.journal().total() > journal_before) {
        const auto tail = session.runner.journal().Tail(1);
        if (!tail.empty()) result.outcome = tail.back().outcome;
      }
      if (result.outcome.empty()) {
        result.outcome = OutcomeForStatus(result.status);
      }
    }
    AdvanceTurn(session);
    obs::MirrorGovernorStats();
    return result;
  }

  StatementResult ExecuteClose(ExecJob& job) {
    WaitTurn(*job.session, job.ticket);
    FlushSessionJournal(*job.session);
    AdvanceTurn(*job.session);
    sessions_closed_.fetch_add(1);
    StatementResult result;
    result.outcome = "ok";
    return result;
  }

  // -------------------------------------------------------- completions

  void DrainCompletions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      batch.swap(completions_);
    }
    for (Completion& completion : batch) {
      auto it = conns_.find(completion.job.conn_id);
      if (it == conns_.end() || it->second->doomed) {
        // The connection died while the statement ran: the typed outcome
        // still counts, the bytes have nowhere to go.
        CountBucket(BucketFor(completion.result.outcome));
        continue;
      }
      Conn* c = it->second.get();
      const uint64_t idx = completion.job.seq - c->base_seq;
      if (idx >= c->slots.size()) {
        // Unreachable by construction (an unready slot blocks promotion);
        // defensive against miscounted sequences.
        CountBucket(BucketFor(completion.result.outcome));
        continue;
      }
      ResponseSlot& slot = c->slots[static_cast<size_t>(idx)];
      if (completion.job.kind == ExecJob::Kind::kCloseSession) {
        RenderCloseCompletion(&slot, completion);
      } else {
        RenderStatementCompletion(&slot, completion);
      }
      slot.ready = true;
      --c->in_flight;
      DriveConn(c);
      if (!c->doomed) UpdateInterest(c);
    }
  }

  void CountBucket(Bucket bucket) {
    switch (bucket) {
      case Bucket::kOk: ok_.fetch_add(1); break;
      case Bucket::kRefused: refused_.fetch_add(1); break;
      case Bucket::kShed: shed_.fetch_add(1); break;
      case Bucket::kTripped: tripped_.fetch_add(1); break;
      case Bucket::kError: errors_.fetch_add(1); break;
    }
  }

  void RenderCloseCompletion(ResponseSlot* slot, Completion& completion) {
    ok_.fetch_add(1);
    HttpResponse resp;
    resp.body = "{\"ok\":true,\"outcome\":\"ok\",\"closed\":" +
                obs::JsonQuote(completion.job.session_name) + "}";
    resp.close = completion.job.want_close;
    slot->close_after = resp.close;
    slot->bytes = FormatHttpResponse(resp);
  }

  void RenderStatementCompletion(ResponseSlot* slot,
                                 Completion& completion) {
    StatementResult& result = completion.result;
    CountBucket(BucketFor(result.outcome));
    static obs::Histogram* const request_wall_us =
        obs::GlobalMetrics().GetHistogram("server.request.wall_us");
    request_wall_us->Observe(result.wall_us);

    if (result.status.ok()) {
      Envelope env;
      env.http_status = 200;
      env.ok = true;
      env.outcome = "ok";
      env.session = completion.job.session_name;
      env.output = std::move(result.output);
      env.wall_us = result.wall_us;
      if (result.result.has_value()) {
        env.has_result = true;
        env.result = std::move(*result.result);
      }
      RenderEnvelope(slot, env, completion.job.bag1,
                     completion.job.want_close);
      return;
    }
    const int http_status =
        result.outcome == "draining" ? 503
                                     : HttpStatusForCode(result.status.code());
    Envelope env = ErrorEnvelope(http_status, result.status, result.outcome,
                                 result.flight);
    env.wall_us = result.wall_us;
    if (IsRetryable(result.status.code())) env.retry_after = "1";
    RenderEnvelope(slot, env, completion.job.bag1,
                   completion.job.want_close);
  }

  // -------------------------------------------------- response rendering

  /// The wire-format-independent shape of a statement response; rendered
  /// as a JSON envelope, a chunked streamed JSON envelope, or a BAG1
  /// binary frame depending on size and the request's wire path.
  struct Envelope {
    int http_status = 200;
    bool ok = true;
    std::string outcome = "ok";
    std::string session;  // success JSON envelopes include it
    std::string output;
    bool has_result = false;
    Value result;
    uint64_t wall_us = 0;
    Status error = Status::Ok();
    std::string flight;
    std::string retry_after;  // nonempty → Retry-After header
  };

  Envelope ErrorEnvelope(int http_status, const Status& status,
                         std::string_view outcome,
                         std::string_view flight = "") {
    Envelope env;
    env.http_status = http_status;
    env.ok = false;
    env.outcome = std::string(outcome);
    env.error = status;
    env.flight = std::string(flight);
    return env;
  }

  Envelope ShedEnvelope(int http_status, std::string_view why) {
    shed_.fetch_add(1);
    Envelope env = ErrorEnvelope(http_status,
                                 Status::Unavailable(std::string(why)),
                                 "shed");
    env.retry_after = "1";
    return env;
  }

  std::string JsonEnvelopeBody(const Envelope& env) {
    if (env.ok) {
      std::string body = "{\"ok\":true,\"outcome\":\"ok\",\"session\":" +
                         obs::JsonQuote(env.session);
      body += ",\"output\":" + obs::JsonQuote(env.output);
      if (env.has_result) {
        body += ",\"result\":" + ValueToWireJson(env.result);
      }
      body += ",\"wall_us\":" + std::to_string(env.wall_us) + "}";
      return body;
    }
    std::string body = "{\"ok\":false,\"outcome\":";
    body += obs::JsonQuote(env.outcome);
    body += ",\"error\":{\"code\":";
    body += obs::JsonQuote(StatusCodeName(env.error.code()));
    body += ",\"message\":";
    body += obs::JsonQuote(env.error.message());
    body += ",\"retryable\":";
    body += IsRetryable(env.error.code()) ? "true" : "false";
    body += "}";
    if (!env.flight.empty()) {
      body += ",\"flight\":" + obs::JsonQuote(env.flight);
    }
    body += "}";
    return body;
  }

  /// Plain JSON error response for non-statement endpoints (keeps the
  /// exact envelope the handler-thread server emitted).
  HttpResponse ErrorResponseBody(int http_status, const Status& status,
                                 std::string_view outcome,
                                 std::string_view flight = "") {
    Envelope env = ErrorEnvelope(http_status, status, outcome, flight);
    HttpResponse resp;
    resp.status = http_status;
    resp.body = JsonEnvelopeBody(env);
    return resp;
  }

  bool ShouldStream(const Envelope& env) const {
    return env.ok && env.has_result && env.result.IsBag() &&
           options_.stream_entries_threshold > 0 &&
           env.result.bag().entries().size() >=
               options_.stream_entries_threshold;
  }

  /// Renders an envelope into a response slot: a BAG1 binary frame, a
  /// chunked streamed JSON envelope, or a materialized JSON body.
  void RenderEnvelope(ResponseSlot* slot, const Envelope& env, bool bag1,
                      bool want_close) {
    HttpResponse resp;
    resp.status = env.http_status;
    if (!env.retry_after.empty()) {
      resp.extra_headers.emplace_back("Retry-After", env.retry_after);
    }
    if (bag1) {
      WireStatementResponse wire;
      wire.ok = env.ok;
      wire.outcome = env.outcome;
      wire.output = env.output;
      wire.wall_us = env.wall_us;
      wire.has_result = env.has_result;
      if (env.has_result) wire.result = env.result;
      if (!env.ok) {
        wire.error_code = StatusCodeName(env.error.code());
        wire.error_message = env.error.message();
        wire.retryable = IsRetryable(env.error.code());
      }
      wire.flight = env.flight;
      resp.content_type = kBag1ContentType;
      resp.body = EncodeFrame(WireFormat::kBinary,
                              EncodeStatementResponse(wire));
      resp.close = want_close;
      slot->close_after = resp.close;
      slot->bytes = FormatHttpResponse(resp);
      return;
    }
    if (ShouldStream(env)) {
      streamed_responses_.fetch_add(1);
      std::string prefix = "{\"ok\":true,\"outcome\":\"ok\",\"session\":" +
                           obs::JsonQuote(env.session);
      prefix += ",\"output\":" + obs::JsonQuote(env.output);
      prefix += ",\"result\":";
      std::string suffix =
          ",\"wall_us\":" + std::to_string(env.wall_us) + "}";
      resp.close = want_close;
      slot->close_after = resp.close;
      slot->bytes = FormatHttpResponseHead(resp, /*chunked=*/true, 0);
      slot->stream = std::make_unique<WireJsonStreamer>(
          std::move(prefix), env.result, std::move(suffix));
      return;
    }
    resp.body = JsonEnvelopeBody(env);
    resp.close = want_close;
    slot->close_after = resp.close;
    slot->bytes = FormatHttpResponse(resp);
  }

  /// Queues a ready (synchronous) envelope response in request order.
  void QueueEnvelope(Conn* c, const Envelope& env, bool bag1,
                     bool want_close) {
    c->slots.emplace_back();
    ResponseSlot* slot = &c->slots.back();
    RenderEnvelope(slot, env, bag1, want_close);
    slot->ready = true;
    if (slot->close_after) c->close_pending = true;
  }

  /// Queues a ready (synchronous) plain response in request order.
  /// Deliberately does NOT drive the connection: callers inside DriveConn
  /// would recurse (one stack frame per pipelined request); the enclosing
  /// DriveConn loop — or the explicit DriveConn in DrainCompletions —
  /// picks it up iteratively.
  void QueueResponse(Conn* c, HttpResponse resp, bool close) {
    resp.close = resp.close || close;
    c->slots.emplace_back();
    ResponseSlot* slot = &c->slots.back();
    slot->ready = true;
    slot->close_after = resp.close;
    slot->bytes = FormatHttpResponse(resp);
    if (resp.close) c->close_pending = true;
  }

  /// Reserves the next in-order response slot for a statement headed to
  /// the executor pool. The completion fills it by sequence number.
  uint64_t NewAsyncSlot(Conn* c, bool want_close) {
    const uint64_t seq = c->next_seq();
    c->slots.emplace_back();
    ++c->in_flight;
    if (want_close) c->close_pending = true;
    return seq;
  }

  /// Moves ready responses, in order, from the slot queue into the write
  /// buffer — consecutive ready slots coalesce into one write. Stops at
  /// the first unready slot, when a streamed response takes over the
  /// buffer, or after promoting a close-marked response (nothing after
  /// it can be sent).
  void PromoteSlots(Conn* c) {
    while (c->stream == nullptr && !c->slots.empty() &&
           c->slots.front().ready && !c->close_after_write) {
      ResponseSlot& slot = c->slots.front();
      c->out += slot.bytes;
      c->close_after_write |= slot.close_after;
      if (slot.stream != nullptr) c->stream = std::move(slot.stream);
      c->slots.pop_front();
      ++c->base_seq;
    }
  }

  /// Promotes ready responses and writes as much as the socket takes.
  /// Returns true when everything promotable is out (the connection may
  /// be idle or waiting on an executor), false when write-blocked or the
  /// connection closed.
  bool FlushConn(Conn* c) {
    while (true) {
      PromoteSlots(c);
      if (c->stream != nullptr && c->pending_out() < kWriteLowWater) {
        std::string slice;
        const bool more = c->stream->Produce(kStreamSliceBytes, &slice);
        AppendHttpChunk(slice, &c->out);
        if (!more) {
          AppendHttpLastChunk(&c->out);
          c->stream.reset();
        }
      }
      if (c->pending_out() == 0 && c->stream == nullptr) break;
      bool would_block = false;
      auto n = WriteNonBlocking(
          c->fd.get(),
          std::string_view(c->out).substr(c->out_off), &would_block);
      if (!n.ok()) {
        Doom(c, /*io_error=*/true);
        return false;
      }
      if (would_block) return false;
      c->out_off += *n;
      // Keep the consumed prefix from growing without bound on long
      // streamed responses.
      if (c->out_off > 512 * 1024 && c->out_off >= c->out.size() / 2) {
        c->out.erase(0, c->out_off);
        c->out_off = 0;
      }
    }
    c->out.clear();
    c->out_off = 0;
    if (c->close_after_write ||
        (c->finish_after_flush && c->slots.empty())) {
      Doom(c, /*io_error=*/false);
      return false;
    }
    return true;
  }

  // -------------------------------------------------- interest & close

  void UpdateInterest(Conn* c) {
    if (c->doomed) return;
    uint32_t want = EPOLLRDHUP;
    // Reads stay armed while statements execute (pipelined bytes drain
    // into the parser buffer), pausing once the buffer holds a full
    // window of unparsed requests — bounded memory per connection — or
    // once a close-marked response makes further requests unanswerable.
    const size_t pause_at =
        2 * (options_.http.max_header_bytes + options_.http.max_body_bytes);
    if (!c->read_closed && !c->close_pending &&
        c->reader.buffered_bytes() < pause_at) {
      want |= EPOLLIN;
    }
    if (c->pending_out() > 0 || c->stream != nullptr) want |= EPOLLOUT;
    if (want != c->interest) {
      if (epoll_.Modify(c->fd.get(), want, c->id).ok()) {
        c->interest = want;
      }
    }
  }

  /// Marks a connection for teardown at the end of the loop iteration.
  /// Deferred so no event-handling frame is left holding a dangling Conn*.
  void Doom(Conn* c, bool io_error) {
    if (c->doomed) return;
    c->doomed = true;
    if (io_error) io_errors_.fetch_add(1);
    (void)epoll_.Remove(c->fd.get());
    doomed_.push_back(c->id);
  }

  void ReapDoomed() {
    for (const uint64_t id : doomed_) {
      if (conns_.erase(id) > 0) connections_live_.fetch_sub(1);
    }
    doomed_.clear();
  }

  // ------------------------------------------------------------- drain

  void Teardown() {
    // Phase 1 — run the executor pool dry. Wake the executors so they
    // shed everything still queued, then keep cancelling in-flight
    // statements until the pool idles. The repeat matters: RunLine re-arms
    // the session token at statement start, so a single Cancel can race a
    // statement that slipped past the drain check; a periodic sweep
    // always lands.
    queue_cv_.notify_all();
    while (true) {
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        if (queue_.empty() && active_executions_.load() == 0) break;
      }
      CancelAllSessions();
      std::unique_lock<std::mutex> lock(queue_mu_);
      idle_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
        return queue_.empty() && active_executions_.load() == 0;
      });
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stop_executors_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : executors_) t.join();
    executors_.clear();

    // Phase 2 — let the loop deliver what the executors produced: every
    // completion rendered and every in-flight response written (a
    // cancelled statement's 499 must reach its client). Bounded: a peer
    // that stopped reading forfeits its bytes after the grace period.
    wakeup_.Signal();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline &&
           busy_conns_.load() > 0) {
      wakeup_.Signal();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // Phase 3 — stop the loop and tear down the remaining connections.
    loop_stop_.store(true, std::memory_order_release);
    wakeup_.Signal();
    if (loop_thread_.joinable()) loop_thread_.join();

    // Phase 4 — flush journals and publish the final metrics mirror.
    std::vector<std::shared_ptr<Session>> sessions;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const auto& [name, session] : sessions_) {
        sessions.push_back(session);
      }
      sessions_.clear();
    }
    for (const auto& session : sessions) {
      FlushSessionJournal(*session);
      sessions_closed_.fetch_add(1);
    }
    obs::MirrorGovernorStats();
    MirrorServerStats();
    listen_fd_.Reset();
    listen_fd_raw_.store(-1, std::memory_order_release);
  }

  void CancelAllSessions() {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [name, session] : sessions_) {
      session->cancel.Cancel();
    }
  }

  // ------------------------------------------------------------ shared

  void MirrorServerStats() {
    auto& metrics = obs::GlobalMetrics();
    const ServerStats s = stats();
    metrics.GetCounter("server.requests")->RaiseTo(s.requests);
    metrics.GetCounter("server.outcome.ok")->RaiseTo(s.ok);
    metrics.GetCounter("server.outcome.refused")->RaiseTo(s.refused);
    metrics.GetCounter("server.outcome.shed")->RaiseTo(s.shed);
    metrics.GetCounter("server.outcome.tripped")->RaiseTo(s.tripped);
    metrics.GetCounter("server.outcome.error")->RaiseTo(s.errors);
    metrics.GetCounter("server.io.errors")->RaiseTo(s.io_errors);
    metrics.GetCounter("server.accept.retries")
        ->RaiseTo(accept_retries_.load());
    metrics.GetCounter("server.sessions.created")
        ->RaiseTo(s.sessions_created);
    metrics.GetCounter("server.sessions.closed")->RaiseTo(s.sessions_closed);
    metrics.GetCounter("server.connections.accepted")
        ->RaiseTo(s.connections_accepted);
    metrics.GetCounter("server.http.keepalive.reuses")
        ->RaiseTo(s.keepalive_reuses);
    metrics.GetCounter("server.http.pipelined")->RaiseTo(s.pipelined);
    metrics.GetCounter("server.wire.bag1.requests")
        ->RaiseTo(s.bag1_requests);
    metrics.GetCounter("server.http.streamed")
        ->RaiseTo(s.streamed_responses);
    metrics.GetGauge("server.sessions.live")
        ->Set(static_cast<int64_t>(s.sessions_live));
    metrics.GetGauge("server.connections.live")
        ->Set(static_cast<int64_t>(s.connections_live));
    metrics.GetGauge("server.queue.depth")
        ->Set(static_cast<int64_t>(s.queue_depth));
    metrics.GetGauge("server.epoll.fds")
        ->Set(static_cast<int64_t>(s.epoll_fds));
    metrics.GetGauge("server.epoll.ready.depth")
        ->Set(static_cast<int64_t>(ready_depth_.load()));
    metrics.GetGauge("server.conn.state.reading")
        ->Set(static_cast<int64_t>(conns_reading_.load()));
    metrics.GetGauge("server.conn.state.executing")
        ->Set(static_cast<int64_t>(conns_executing_.load()));
    metrics.GetGauge("server.conn.state.writing")
        ->Set(static_cast<int64_t>(conns_writing_.load()));
  }

  const ServerOptions options_;
  Fd listen_fd_;
  std::atomic<int> listen_fd_raw_{-1};
  uint16_t port_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> loop_stop_{false};
  std::mutex teardown_mu_;
  bool torn_down_ = false;  // guarded by teardown_mu_

  // Loop-thread-only state (no locks: single owner).
  EpollLoop epoll_;
  WakeupFd wakeup_;
  std::thread loop_thread_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::vector<uint64_t> doomed_;
  uint64_t next_conn_id_ = kFirstConnId;
  uint64_t gauge_iter_ = 0;
  obs::Histogram* loop_iter_hist_ = nullptr;

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<ExecJob> queue_;      // guarded by queue_mu_
  bool stop_executors_ = false;    // guarded by queue_mu_
  std::atomic<uint64_t> active_executions_{0};
  std::vector<std::thread> executors_;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;  // guarded by completions_mu_

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> tripped_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint64_t> accept_retries_{0};
  std::atomic<uint64_t> sessions_created_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> keepalive_reuses_{0};
  std::atomic<uint64_t> pipelined_{0};
  std::atomic<uint64_t> bag1_requests_{0};
  std::atomic<uint64_t> streamed_responses_{0};
  std::atomic<size_t> connections_live_{0};
  std::atomic<size_t> epoll_fds_{0};
  std::atomic<uint64_t> ready_depth_{0};
  std::atomic<size_t> conns_reading_{0};
  std::atomic<size_t> conns_executing_{0};
  std::atomic<size_t> conns_writing_{0};
  std::atomic<size_t> busy_conns_{0};
};

Server::Server() = default;
Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  auto server = std::unique_ptr<Server>(new Server());
  server->impl_ = std::make_unique<Impl>(std::move(options));
  BAGALG_RETURN_IF_ERROR(server->impl_->Start());
  return server;
}

uint16_t Server::port() const { return impl_->port(); }
void Server::RequestShutdown() { impl_->RequestShutdown(); }
void Server::Wait() { impl_->Wait(); }
bool Server::draining() const { return impl_->draining(); }
ServerStats Server::stats() const { return impl_->stats(); }

}  // namespace bagalg::net
