// bagbench — runs one workload of the bagalg end-to-end benchmark.
//
//   bagbench --workload=point|analytic|bulk --seed=N --seconds=S --trace=0|1
//            --bagalgd=PATH --out=DIR
//
// perfbench/run.py builds this binary and bagalgd, runs it, validates the
// artifacts it leaves in DIR and passes its last stdout line on. See
// perfbench/README.md for the workloads, the metrics and the phases.
//
// --trace=0 measures the end-to-end metrics with nothing but the
// benchmark's own clocks: the CPU clock of the process that executes the
// statements for the bounded metrics, the wall clock for the figures on
// the host line. --trace=1 is the separate traced run: it records
// spans around every call the benchmark makes into the system's layers,
// writes them as Chrome trace JSON (DIR/trace.json), scrapes /metrics
// around each phase (DIR/prom_*.txt) and reports the per-layer metrics.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/client.h"
#include "perfbench/workload.h"
#include "src/algebra/database.h"
#include "src/algebra/eval.h"
#include "src/algebra/typecheck.h"
#include "src/analysis/static_cost.h"
#include "src/exec/compile.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/lang/parser.h"
#include "src/lang/script.h"
#include "src/net/json_reader.h"
#include "src/net/wire.h"
#include "src/obs/flight.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/build_info.h"
#include "src/util/governor.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using bagalg::Bag;
using bagalg::Database;
using bagalg::Evaluator;
using bagalg::Expr;
using bagalg::Value;
namespace net = bagalg::net;
namespace obs = bagalg::obs;

// ------------------------------------------------------------- settings

/// Pinned bagalgd settings. The budget admits every workload statement, so
/// the budget preflight runs on every statement as in a deployment.
constexpr uint64_t kBudget = 1'000'000'000'000ull;
constexpr uint64_t kTimeoutMs = 60'000;
const std::vector<std::string>& ServerFlags() {
  static const std::vector<std::string> flags = {
      "--port=0", "--executors=2", "--budget=" + std::to_string(kBudget),
      "--timeout-ms=" + std::to_string(kTimeoutMs)};
  return flags;
}
/// Environment pinned for this process and bagalgd, whatever the caller
/// exported; a null value means unset (the deployment default). Kernels
/// run serially: a fork-join pool as wide as the host's vCPUs waits on the
/// slowest of them, so on a shared host its timings follow the neighbours'
/// load (and at these bag sizes the pool makes no workload faster).
struct PinnedEnv {
  const char* name;
  const char* value;
};
const PinnedEnv kPinnedEnv[] = {{"BAGALG_THREADS", "1"},
                                {"BAGALG_IR_VERIFY", nullptr},
                                {"BAGALG_EXEC_ENGINE", nullptr},
                                {"BAGALG_FAULT", nullptr}};
/// Set-ups per trace-0 run; setup_s is their median.
constexpr int kSetups = 5;
/// Span budget of the traced run's Chrome trace.
constexpr size_t kMaxSpans = 60'000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bagalgd;
  std::string out = ".";
};

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(at));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }
double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0;
}

/// One latency sample: when the statement was due (or called), how long
/// it took, and how late the benchmark's own thread was to send (or call)
/// it.
struct Sample {
  uint64_t at_ns;
  double latency_us;
  double lag_us;
};

/// A latency window in which the benchmark's own thread was late to send
/// (99th percentile of its lag) by more than this factor times the median
/// of that lag over all windows measured the host's scheduler, not the
/// system: the vCPUs of a shared virtual machine are descheduled for 5-30
/// ms at a time while the host is busy. Such windows are left out.
constexpr double kLateWindowFactor = 3;

/// Windowed statistics. Samples are cut into windows of about 500 (at most
/// 100 windows) and a metric is the median of the per-window values, so a
/// stall of the host (a descheduled vCPU costs ~10 ms) moves a few
/// windows, not the result.
size_t Windows(size_t samples) {
  return std::clamp<size_t>(samples / 500, 1, 100);
}

/// Statements completed per second in each window of [start, end).
std::vector<double> RateWindows(const std::vector<uint64_t>& done_ns,
                                uint64_t start, uint64_t end) {
  const size_t n = Windows(done_ns.size());
  const double len = static_cast<double>(end - start) / static_cast<double>(n);
  std::vector<double> rates(n, 0);
  for (uint64_t t : done_ns) {
    const size_t w = std::min(
        n - 1, static_cast<size_t>(static_cast<double>(t - start) / len));
    rates[w] += 1;
  }
  for (double& r : rates) r /= len / 1e9;
  return rates;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------- oracle

/// What a statement must return: the printable output and, for
/// eval/count/exec, the structured result.
struct Expected {
  std::string output;
  bool has_result = false;
  Value result;
};

/// Splits "verb rest" at the first space.
std::pair<std::string, std::string> SplitVerb(const std::string& line) {
  const size_t space = line.find(' ');
  return {line.substr(0, space), line.substr(space + 1)};
}

/// Applies "let NAME = LITERAL" to `db`; returns the printable output.
bagalg::Result<std::string> ApplyLet(const std::string& line, Database* db) {
  const std::string rest = SplitVerb(line).second;
  const size_t eq = rest.find('=');
  const std::string name = rest.substr(0, rest.find(' '));
  BAGALG_ASSIGN_OR_RETURN(Value v,
                          bagalg::lang::ParseValue(rest.substr(eq + 1)));
  BAGALG_RETURN_IF_ERROR(db->Put(name, v.bag()));
  return name + " : " + v.type().ToString();
}

/// The expected result of every cycle position of `session`, computed with
/// the tree-walking evaluator on the benchmark's own copy of the session's
/// database, replaying `let` writes in order.
bagalg::Result<std::vector<Expected>> ComputeOracle(
    const SessionSpec& session) {
  Database db;
  for (const std::string& line : session.load) {
    BAGALG_RETURN_IF_ERROR(ApplyLet(line, &db).status());
  }
  Evaluator evaluator;
  std::vector<Expected> expected;
  for (const Statement& stmt : session.cycle) {
    Expected e;
    if (stmt.kind == StmtKind::kLet) {
      BAGALG_ASSIGN_OR_RETURN(e.output, ApplyLet(stmt.line, &db));
    } else {
      BAGALG_ASSIGN_OR_RETURN(
          Expr expr, bagalg::lang::ParseExpr(SplitVerb(stmt.line).second));
      BAGALG_ASSIGN_OR_RETURN(e.result, evaluator.Eval(expr, db));
      e.has_result = true;
      e.output = stmt.kind == StmtKind::kCount
                     ? e.result.bag().TotalCount().ToString()
                     : e.result.ToString();
    }
    expected.push_back(std::move(e));
  }
  return expected;
}

// ---------------------------------------------------- response checking

/// The raw bytes of a response already decoded and found correct for one
/// cycle position. A later response with byte-identical output and result
/// is correct too; any other response is decoded and compared in full.
struct VerifiedBytes {
  bool set = false;
  std::string output;
  std::string result;
};

uint32_t ReadU32(std::string_view b, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(b[at + static_cast<size_t>(i)]);
  }
  return v;
}

uint64_t ReadU64(std::string_view b, size_t at) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(b[at + static_cast<size_t>(i)]);
  }
  return v;
}

/// Slices a success envelope into its output and result bytes and reads
/// wall_us, without decoding the result. False when the body is not a
/// success envelope of the expected shape.
bool SliceEnvelope(const SessionSpec& session, std::string_view body,
                   std::string_view* output, std::string_view* result,
                   uint64_t* wall_us) {
  if (session.wire == Wire::kJson) {
    const std::string prefix = "{\"ok\":true,\"outcome\":\"ok\",\"session\":" +
                               obs::JsonQuote(session.name) + ",\"output\":";
    if (body.rfind(prefix, 0) != 0) return false;
    size_t i = prefix.size() + 1;
    while (i < body.size() && body[i] != '"') i += body[i] == '\\' ? 2 : 1;
    if (i >= body.size()) return false;
    *output = body.substr(prefix.size(), i + 1 - prefix.size());
    const size_t wall = body.rfind(",\"wall_us\":");
    if (wall == std::string_view::npos || wall < i + 1) return false;
    constexpr std::string_view kResult = ",\"result\":";
    const std::string_view tail = body.substr(i + 1, wall - i - 1);
    if (tail.rfind(kResult, 0) == 0) {
      *result = tail.substr(kResult.size());
    } else if (tail.empty()) {
      *result = {};
    } else {
      return false;
    }
    *wall_us = std::strtoull(body.data() + wall + 11, nullptr, 10);
    return true;
  }
  // BAG1: 12-byte frame header, then ok u8, outcome str, output str,
  // wall_us u64, has_result u8, value, and on success 13 bytes of empty
  // error fields (code str, message str, retryable u8, flight str).
  if (body.size() < net::kFrameHeaderBytes + 1) return false;
  const std::string_view p = body.substr(net::kFrameHeaderBytes);
  if (p[0] != 1 || p.size() < 5) return false;
  size_t at = 1;
  if (ReadU32(p, at) != 2 || p.substr(at + 4, 2) != "ok") return false;
  at += 4 + 2;
  if (p.size() < at + 4) return false;
  const uint32_t out_len = ReadU32(p, at);
  if (p.size() < at + 4 + out_len + 9 + 13) return false;
  *output = p.substr(at + 4, out_len);
  at += 4 + out_len;
  *wall_us = ReadU64(p, at);
  at += 9;  // wall_us + has_result
  *result = p.substr(at, p.size() - 13 - at);
  constexpr std::string_view kNoError("\0\0\0\0\0\0\0\0\0\0\0\0\0", 13);
  return p.substr(p.size() - 13) == kNoError;
}

/// `let` responses that carried a result. ScriptRunner documents
/// last_result() as empty after commands without a result, but `let` keeps
/// the previous statement's result and bagalgd sends it along. The
/// benchmark counts this known defect (README.md) instead of failing on it.
uint64_t stale_let_results = 0;

/// Decodes the output and result slices of a success envelope and compares
/// them with `expected`.
bool DecodeAndCompare(const SessionSpec& session, std::string_view output,
                      std::string_view result, const Expected& expected) {
  if (session.wire == Wire::kJson) {
    auto text = net::ParseJson(output);
    if (!text.ok() || !text->is_string() || text->string != expected.output) {
      return false;
    }
    if (!expected.has_result) return true;
    auto value = net::WireJsonToValue(result);
    return value.ok() && *value == expected.result;
  }
  if (output != expected.output) return false;
  if (!expected.has_result) return true;
  auto value = net::WireBinaryToValue(result);
  return value.ok() && *value == expected.result;
}

/// Prints the first few failures to stderr, for diagnosis.
void ReportFailure(const std::string& session, const std::string& got,
                   const std::string& want) {
  static int reported = 0;
  if (++reported > 5) return;
  std::fprintf(stderr, "bagbench: wrong result in %s\n  got:  %s\n  want: %s\n",
               session.c_str(), got.c_str(), want.c_str());
}

/// Checks one response against the oracle; fills *wall_us on success.
bool CheckResponse(const SessionSpec& session, const HttpResponse& response,
                   const Expected& expected, VerifiedBytes* verified,
                   uint64_t* wall_us) {
  std::string_view output;
  std::string_view result;
  bool ok = response.status == 200 &&
            SliceEnvelope(session, response.body, &output, &result, wall_us);
  if (ok && !expected.has_result && !result.empty()) {
    ++stale_let_results;
    result = {};
  }
  if (ok && !(verified->set && output == verified->output &&
              result == verified->result)) {
    ok = DecodeAndCompare(session, output, result, expected);
    if (ok) {
      verified->set = true;
      verified->output.assign(output);
      verified->result.assign(result);
    }
  }
  if (!ok) {
    ReportFailure(session.name, response.body.substr(0, 300),
                  expected.output.substr(0, 300));
  }
  return ok;
}

// ----------------------------------------------------------------- spans

/// The benchmark's own spans, kept in memory and written at exit as Chrome
/// trace JSON in the schema of tools/schemas/trace.schema.json. Spans are
/// recorded after the fact from the benchmark's clocks, never left open
/// across a call into the system, so the system's ambient spans cannot land
/// here. Timestamps keep nanosecond digits: obs::WriteChromeTrace rounds
/// to six significant digits, which breaks parent/child containment once a
/// trace runs longer than a second.
class SpanLog {
 public:
  struct Child {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  explicit SpanLog(uint64_t epoch_ns) : epoch_ns_(epoch_ns) {}

  /// Records a root span and its children as one group, or drops the whole
  /// group when the span budget is spent.
  void Add(const std::string& name, const char* category, uint64_t start_ns,
           uint64_t end_ns, uint64_t request_id, const std::string& session,
           const std::vector<Child>& children) {
    if (events_.size() + 1 + children.size() > kMaxSpans) {
      ++dropped_;
      return;
    }
    const uint64_t root = events_.size() + 1;
    const std::string args = ",\"request_id\":" + std::to_string(request_id) +
                             ",\"session\":" + obs::JsonQuote(session);
    Event(name, category, 0, start_ns, end_ns, args);
    for (const Child& c : children) {
      Event(c.name, category, root, c.start_ns, c.end_ns, args);
    }
  }

  size_t size() const { return events_.size(); }
  uint64_t dropped() const { return dropped_; }

  bool Write(const std::string& path) const {
    std::ofstream file(path);
    file << "{\"traceEvents\":[";
    for (size_t i = 0; i < events_.size(); ++i) {
      file << (i ? ",\n" : "\n") << events_[i];
    }
    file << "\n],\"displayTimeUnit\":\"ms\"}\n";
    file.flush();
    return static_cast<bool>(file);
  }

 private:
  void Event(const std::string& name, const char* category, uint64_t parent,
             uint64_t start_ns, uint64_t end_ns, const std::string& args) {
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(start_ns - epoch_ns_) / 1000.0,
                  static_cast<double>(end_ns - start_ns) / 1000.0);
    events_.push_back("{\"name\":" + obs::JsonQuote(name) + ",\"cat\":\"" +
                      category + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," +
                      times + ",\"args\":{\"cpu_us\":0,\"depth\":" +
                      (parent == 0 ? "0" : "1") +
                      ",\"id\":" + std::to_string(events_.size() + 1) +
                      ",\"parent\":" + std::to_string(parent) + args + "}}");
  }

  uint64_t epoch_ns_;
  uint64_t dropped_ = 0;
  std::vector<std::string> events_;
};

// ----------------------------------------------------- the benchmark run

/// Per-session state shared by every phase.
struct Session {
  const SessionSpec* spec = nullptr;
  std::vector<Expected> expected;
  std::vector<VerifiedBytes> verified;
  /// The full HTTP request of each cycle position, built once.
  std::vector<std::string> requests;
  /// Next cycle position to issue.
  size_t pos = 0;
};

struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct InFlight {
  size_t pos;
  uint64_t due_ns;
  uint64_t sent_ns;
  uint64_t request_id;
};

struct Client {
  Connection conn;
  Session* session = nullptr;
  std::deque<InFlight> inflight;
};

/// Results of one drive phase.
struct PhaseResult {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// When each statement completed, for those that completed in the phase.
  std::vector<uint64_t> done_ns;
  /// Latency samples: open loop from the due time, closed loop from the
  /// send, in process the time the caller waited on RunLine.
  std::vector<Sample> latency;
  /// Open loop: send time - due time. In process: the harness's gap
  /// between one RunLine call returning and the next starting.
  std::vector<double> lag_us;
  std::vector<double> roundtrip_us;
  std::vector<double> wall_us;
  double req_bytes = 0;
  double resp_bytes = 0;
  uint64_t responses = 0;
  double client_cpu_s = 0;
  /// CPU time of the process that executes the statements: bagalgd, or in
  /// process the RunLine calls.
  double exec_cpu_s = 0;
  /// In process: time spent outside RunLine calls.
  double harness_s = 0;
  std::string error;
};

/// A measurement split into segments that alternate with another one, so
/// that a slow spell of the host falls on both alike.
using Segments = std::vector<PhaseResult>;

double Seconds(const Segments& segments) {
  double total = 0;
  for (const PhaseResult& r : segments) {
    total += static_cast<double>(r.end_ns - r.start_ns) / 1e9;
  }
  return total;
}

/// Median over the windows of all segments of statements per second.
double Rate(const Segments& segments) {
  std::vector<double> rates;
  for (const PhaseResult& r : segments) {
    const std::vector<double> w = RateWindows(r.done_ns, r.start_ns, r.end_ns);
    rates.insert(rates.end(), w.begin(), w.end());
  }
  return Median(rates);
}

/// The latency q-quantile over the samples of all segments, taken in
/// windows of consecutive samples (see Windows): the median of the
/// per-window quantiles, leaving out the windows the benchmark's thread
/// was late in (see kLateWindowFactor). *kept and *total count windows.
double Latency(const Segments& segments, double q, size_t* kept = nullptr,
               size_t* total = nullptr) {
  std::vector<Sample> samples;
  for (const PhaseResult& r : segments) {
    samples.insert(samples.end(), r.latency.begin(), r.latency.end());
  }
  const size_t n = Windows(samples.size());
  std::vector<double> quantiles(n);
  std::vector<double> lags(n);
  for (size_t w = 0; w < n; ++w) {
    std::vector<double> latency;
    std::vector<double> lag;
    for (size_t i = samples.size() * w / n; i < samples.size() * (w + 1) / n;
         ++i) {
      latency.push_back(samples[i].latency_us);
      lag.push_back(samples[i].lag_us);
    }
    quantiles[w] = Quantile(latency, q);
    lags[w] = Quantile(lag, 0.99);
  }
  const double limit = kLateWindowFactor * Median(lags);
  std::vector<double> on_time;
  for (size_t w = 0; w < n; ++w) {
    if (lags[w] <= limit) on_time.push_back(quantiles[w]);
  }
  if (kept != nullptr) *kept = on_time.size();
  if (total != nullptr) *total = n;
  return Median(on_time);
}

/// Sum of a per-segment quantity.
template <typename Field>
double Sum(const Segments& segments, Field field) {
  double total = 0;
  for (const PhaseResult& r : segments) total += static_cast<double>(r.*field);
  return total;
}

/// The 99th percentile of the lag samples of all segments.
double LagP99(const Segments& segments) {
  std::vector<double> lags;
  for (const PhaseResult& r : segments) {
    lags.insert(lags.end(), r.lag_us.begin(), r.lag_us.end());
  }
  return Quantile(lags, 0.99);
}

enum class Mode { kClosed, kOpen };

class Bench {
 public:
  Bench(Options options, WorkloadSpec spec)
      : options_(std::move(options)),
        spec_(std::move(spec)),
        spans_(NowNs()) {}

  int Run();

 private:
  // Set-up shared by both modes.
  std::string PrepareSessions();
  std::string StartServer();
  std::string LoadOverServer();
  // Server workloads.
  void Issue(Client& client, uint64_t due_ns);
  PhaseResult Drive(std::vector<std::unique_ptr<Client>>& clients, Mode mode,
                    double seconds, bool traced, bool one_cycle = false);
  std::string OpenClients(size_t count,
                          std::vector<std::unique_ptr<Client>>* clients);
  PhaseResult SerialNet(double seconds);
  int RunServer();
  // Analytic.
  std::string LoadRunner(bagalg::lang::ScriptRunner* runner);
  PhaseResult DriveRunner(bagalg::lang::ScriptRunner& runner, double seconds,
                          bool traced);
  int RunAnalytic();
  // Traced run: in-process layer decomposition.
  void Decompose(double seconds, std::vector<Metric>* metrics);
  void Scrape(const std::string& tag);
  double PromDelta(const std::string& family, const std::string& before,
                   const std::string& after) const;

  void Account(bool ok) {
    ++counts_.attempted;
    if (!ok) ++counts_.failed;
  }
  void AddNetMetrics(const PhaseResult& serial, double trace_overhead,
                     std::vector<Metric>* metrics);
  void AddLatencyNotes(const Segments& segments, size_t kept,
                       size_t windows);
  std::vector<Metric> EndToEnd(const std::vector<double>& setups,
                               const std::vector<double>& setups_wall,
                               const Segments& closed, double peak_rss_mb);
  void AddWallMetrics(const Segments& closed, std::vector<Metric>* metrics);
  int Finish(std::vector<Metric> metrics);

  Options options_;
  WorkloadSpec spec_;
  std::vector<Session> sessions_;
  ServerProcess server_;
  Counts counts_;
  SpanLog spans_;
  uint64_t next_request_id_ = 1;
  std::map<std::string, std::string> scrapes_;
  std::vector<std::string> notes_;
};

std::string Bench::PrepareSessions() {
  sessions_.clear();
  for (const SessionSpec& spec : spec_.sessions) {
    Session s;
    s.spec = &spec;
    auto expected = ComputeOracle(spec);
    if (!expected.ok()) {
      return "oracle failed on " + spec.name + ": " +
             expected.status().ToString();
    }
    s.expected = std::move(*expected);
    s.verified.resize(spec.cycle.size());
    for (const Statement& stmt : spec.cycle) {
      s.requests.push_back(StatementRequest(spec.name, stmt.line, spec.wire));
    }
    sessions_.push_back(std::move(s));
  }
  return "";
}

std::string Bench::StartServer() {
  return server_.Start(options_.bagalgd, ServerFlags(),
                       options_.out + "/bagalgd.log");
}

/// Runs every session's `let` set-up lines serially over one connection.
std::string Bench::LoadOverServer() {
  Connection conn;
  if (!conn.Open(server_.port())) return "connect failed";
  for (Session& s : sessions_) {
    for (const std::string& line : s.spec->load) {
      conn.Queue(StatementRequest(s.spec->name, line, s.spec->wire));
      HttpResponse response;
      const std::string err = AwaitResponse(&conn, &response);
      if (!err.empty()) return "load: " + err;
      if (response.status != 200) return "load refused: " + response.body;
    }
  }
  return "";
}

std::string Bench::OpenClients(size_t count,
                               std::vector<std::unique_ptr<Client>>* clients) {
  clients->clear();
  for (size_t i = 0; i < count; ++i) {
    auto client = std::make_unique<Client>();
    client->session = &sessions_[i % sessions_.size()];
    if (!client->conn.Open(server_.port())) return "connect failed";
    clients->push_back(std::move(client));
  }
  return "";
}

void Bench::Issue(Client& client, uint64_t due_ns) {
  Session& s = *client.session;
  const size_t pos = s.pos;
  s.pos = (s.pos + 1) % s.requests.size();
  client.conn.Queue(s.requests[pos]);
  const uint64_t now = NowNs();
  client.inflight.push_back(
      InFlight{pos, due_ns == 0 ? now : due_ns, now, next_request_id_++});
}

/// One closed- or open-loop phase over `clients`, from this one thread.
/// Closed: each connection sends its next statement when the previous
/// reply has arrived and been checked; with `one_cycle`, a connection stops
/// after one pass over its session's cycle (or when time is up). Open:
/// statements are due at a fixed rate regardless of replies, spread
/// round-robin over the connections, and latency runs from the due time.
PhaseResult Bench::Drive(std::vector<std::unique_ptr<Client>>& clients,
                         Mode mode, double seconds, bool traced,
                         bool one_cycle) {
  PhaseResult r;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  r.start_ns = start;
  r.end_ns = end;
  const double interval_ns =
      mode == Mode::kOpen ? 1e9 / spec_.open_loop_rate : 0;
  uint64_t next = 0;  // open loop: index of the next due statement
  auto due_at = [&](uint64_t index) {
    return start +
           static_cast<uint64_t>(static_cast<double>(index) * interval_ns);
  };
  const double cpu0 = CpuSeconds("self");
  const double exec_cpu0 = CpuSeconds(std::to_string(server_.pid()));
  std::vector<size_t> issued(clients.size(), 0);
  auto more = [&](size_t i) {
    return !one_cycle || issued[i] < clients[i]->session->requests.size();
  };
  if (mode == Mode::kClosed) {
    for (size_t i = 0; i < clients.size(); ++i) {
      Issue(*clients[i], 0);
      ++issued[i];
    }
  }
  const uint64_t drain_deadline = end + 60'000'000'000ull;
  std::vector<pollfd> fds(clients.size());
  for (;;) {
    uint64_t now = NowNs();
    if (mode == Mode::kOpen) {
      for (;;) {
        const uint64_t due = due_at(next);
        if (due > now || due >= end) break;
        Client& c = *clients[next % clients.size()];
        Issue(c, due);
        r.lag_us.push_back(Us(c.inflight.back().sent_ns - due));
        ++next;
      }
    }
    bool idle = true;
    for (size_t i = 0; i < clients.size(); ++i) {
      Client& c = *clients[i];
      if (!c.conn.Flush()) r.error = "write failed";
      if (!c.inflight.empty()) idle = false;
      fds[i] = pollfd{c.conn.fd(),
                      static_cast<short>(POLLIN |
                                         (c.conn.WantsWrite() ? POLLOUT : 0)),
                      0};
    }
    if (!r.error.empty()) break;
    if ((now >= end || one_cycle) && idle) break;
    if (now >= drain_deadline) {
      r.error = "responses still outstanding 60 s after the phase ended";
      break;
    }
    // Sleep until the next statement is due (open loop) or a reply comes.
    uint64_t timeout_ns = 10'000'000;
    if (mode == Mode::kOpen && now < end) {
      const uint64_t due = due_at(next);
      timeout_ns = std::min(timeout_ns, due > now ? due - now : 0);
    }
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0) continue;
    for (size_t i = 0; i < clients.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Client& c = *clients[i];
      const bool open = c.conn.Fill();
      HttpResponse response;
      int taken = 0;
      while ((taken = c.conn.Take(&response)) == 1) {
        const uint64_t done = NowNs();
        if (c.inflight.empty()) {
          r.error = "unexpected response";
          break;
        }
        const InFlight f = c.inflight.front();
        c.inflight.pop_front();
        Session& s = *c.session;
        uint64_t wall_us = 0;
        const bool ok = CheckResponse(*s.spec, response, s.expected[f.pos],
                                      &s.verified[f.pos], &wall_us);
        const uint64_t checked = NowNs();
        Account(ok);
        ++r.responses;
        if (done <= end) r.done_ns.push_back(done);
        // Open loop: from the due time. Closed loop: due when sent.
        r.latency.push_back(Sample{f.due_ns, Us(done - f.due_ns),
                                   Us(f.sent_ns - f.due_ns)});
        if (traced) {
          spans_.Add("client.statement", "bench", f.sent_ns, checked,
                     f.request_id, s.spec->name,
                     {{"client.check", done, checked}});
        }
        if (mode == Mode::kClosed && done < end && more(i)) {
          Issue(c, 0);
          ++issued[i];
        }
      }
      if (taken < 0) r.error = "malformed response";
      if (!open && !c.inflight.empty()) r.error = "connection closed";
    }
    if (!r.error.empty()) break;
  }
  r.client_cpu_s = CpuSeconds("self") - cpu0;
  r.exec_cpu_s = CpuSeconds(std::to_string(server_.pid())) - exec_cpu0;
  for (auto& c : clients) {
    for (size_t k = 0; k < c->inflight.size(); ++k) Account(false);
    c->inflight.clear();
  }
  return r;
}

/// Serial round trips over one keep-alive connection, sessions in turn.
PhaseResult Bench::SerialNet(double seconds) {
  PhaseResult r;
  Connection conn;
  if (!conn.Open(server_.port())) {
    r.error = "connect failed";
    return r;
  }
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  const double exec_cpu0 = CpuSeconds(std::to_string(server_.pid()));
  size_t turn = 0;
  // At least one full cycle of every session, then until time is up.
  std::vector<size_t> issued(sessions_.size(), 0);
  auto covered = [&] {
    for (size_t i = 0; i < sessions_.size(); ++i) {
      if (issued[i] < sessions_[i].requests.size()) return false;
    }
    return true;
  };
  while (NowNs() < end || !covered()) {
    const size_t si = turn++ % sessions_.size();
    Session& s = sessions_[si];
    ++issued[si];
    const size_t pos = s.pos;
    s.pos = (s.pos + 1) % s.requests.size();
    const uint64_t request_id = next_request_id_++;
    const uint64_t sent = NowNs();
    conn.Queue(s.requests[pos]);
    HttpResponse response;
    const std::string err = AwaitResponse(&conn, &response);
    const uint64_t done = NowNs();
    if (!err.empty()) {
      Account(false);
      r.error = "serial: " + err;
      break;
    }
    uint64_t wall_us = 0;
    const bool ok = CheckResponse(*s.spec, response, s.expected[pos],
                                  &s.verified[pos], &wall_us);
    const uint64_t checked = NowNs();
    Account(ok);
    ++r.responses;
    r.roundtrip_us.push_back(Us(done - sent));
    r.wall_us.push_back(static_cast<double>(wall_us));
    r.req_bytes += static_cast<double>(s.requests[pos].size());
    r.resp_bytes += static_cast<double>(response.wire_bytes);
    spans_.Add("net.roundtrip", "bench", sent, checked, request_id,
               s.spec->name, {{"client.check", done, checked}});
  }
  r.exec_cpu_s = CpuSeconds(std::to_string(server_.pid())) - exec_cpu0;
  return r;
}

void Bench::Scrape(const std::string& tag) {
  const std::string text = HttpGet(server_.port(), "/metrics");
  scrapes_[tag] = text;
  std::ofstream(options_.out + "/prom_" + tag + ".txt") << text;
}

/// Sum of the samples of `family` (an exact sample name) in `after` minus
/// those in `before`.
double Bench::PromDelta(const std::string& family, const std::string& before,
                        const std::string& after) const {
  auto read = [&](const std::string& text) {
    std::istringstream in(text);
    std::string line;
    double sum = 0;
    while (std::getline(in, line)) {
      if (line.rfind(family + " ", 0) == 0 ||
          line.rfind(family + "{", 0) == 0) {
        sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
      }
    }
    return sum;
  };
  return read(scrapes_.at(after)) - read(scrapes_.at(before));
}

// ------------------------------------------------------------- analytic

std::string Bench::LoadRunner(bagalg::lang::ScriptRunner* runner) {
  runner->set_timeout_ms(kTimeoutMs);
  bagalg::analysis::CostBudget budget;
  budget.max_estimated_size = bagalg::BigNat(kBudget);
  runner->set_budget(budget);
  for (const std::string& line : sessions_[0].spec->load) {
    auto out = runner->RunLine(line);
    if (!out.ok()) return "load: " + out.status().ToString();
  }
  return "";
}

/// Checks a RunLine outcome against the oracle.
bool CheckRunLine(const bagalg::Result<std::string>& out,
                  const bagalg::lang::ScriptRunner& runner,
                  const Expected& expected) {
  bool ok = out.ok() && *out == expected.output;
  if (ok && !expected.has_result) {
    if (runner.last_result().has_value()) ++stale_let_results;
  } else if (ok) {
    ok = runner.last_result().has_value() &&
         *runner.last_result() == expected.result;
  }
  if (!ok) {
    ReportFailure("analytic",
                  out.ok() ? out->substr(0, 300) : out.status().ToString(),
                  expected.output.substr(0, 300));
  }
  return ok;
}

/// Closed loop of RunLine calls on this thread. Latency is the time the
/// caller waits on each call.
PhaseResult Bench::DriveRunner(bagalg::lang::ScriptRunner& runner,
                               double seconds, bool traced) {
  PhaseResult r;
  Session& s = sessions_[0];
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  r.start_ns = start;
  r.end_ns = end;
  uint64_t outside_ns = 0;
  uint64_t prev_end = start;
  for (;;) {
    const double cpu0 = CpuSeconds("self");
    const uint64_t t0 = NowNs();
    if (t0 >= end) break;
    outside_ns += t0 - prev_end;
    r.lag_us.push_back(Us(t0 - prev_end));
    const size_t pos = s.pos;
    s.pos = (s.pos + 1) % s.spec->cycle.size();
    auto out = runner.RunLine(s.spec->cycle[pos].line);
    const uint64_t t1 = NowNs();
    r.exec_cpu_s += CpuSeconds("self") - cpu0;
    const bool ok = CheckRunLine(out, runner, s.expected[pos]);
    prev_end = NowNs();
    Account(ok);
    ++r.responses;
    if (t1 <= end) r.done_ns.push_back(t1);
    r.latency.push_back(Sample{t0, Us(t1 - t0), r.lag_us.back()});
    if (traced) {
      spans_.Add("client.statement", "bench", t0, prev_end,
                 next_request_id_++, s.spec->name,
                 {{"lang.runline", t0, t1}, {"client.check", t1, prev_end}});
    }
  }
  r.harness_s = static_cast<double>(outside_ns) / 1e9;
  return r;
}

// ------------------------------------------- traced layer decomposition

/// Replays the workload's statements in process, timing each call into a
/// layer's public function separately, then the whole statement through
/// lang::ScriptRunner::RunLine, and reports per-layer medians. The calls
/// mirror what RunLine does for the statement: parse, the journal's cost
/// analysis plus the budget preflight, then the evaluator or IR lowering
/// and execution, then rendering. TypeOf is nested inside the cost
/// analysis and the lowering, so it is reported but not subtracted.
void Bench::Decompose(double seconds, std::vector<Metric>* metrics) {
  struct Replica {
    Session* session;
    Database db;
    Evaluator evaluator;
    std::unique_ptr<bagalg::lang::ScriptRunner> runner;
    size_t pos = 0;
  };
  // Mirrors ScriptRunner's always-on flight-recorder mode: spans are made
  // and fed to a ring, never buffered.
  obs::FlightRecorder flight;
  obs::Tracer quiet(/*enabled=*/true);
  quiet.set_buffering(false);
  quiet.set_flight_recorder(&flight);

  bagalg::analysis::CostBudget budget;
  budget.max_estimated_size = bagalg::BigNat(kBudget);

  std::vector<std::unique_ptr<Replica>> replicas;
  for (Session& s : sessions_) {
    auto r = std::make_unique<Replica>();
    r->session = &s;
    for (const std::string& line : s.spec->load) {
      if (!ApplyLet(line, &r->db).ok()) Account(false);
    }
    r->evaluator.set_tracer(&quiet);
    r->runner = std::make_unique<bagalg::lang::ScriptRunner>();
    r->runner->set_timeout_ms(kTimeoutMs);
    r->runner->set_budget(budget);
    for (const std::string& line : s.spec->load) {
      if (!r->runner->RunLine(line).ok()) Account(false);
    }
    replicas.push_back(std::move(r));
  }

  std::map<std::string, std::vector<double>> us;
  struct Tally {
    uint64_t steps = 0, eval_stmts = 0, exec_stmts = 0, rows = 0;
    uint64_t batches = 0, fallbacks = 0, checkpoints = 0, governed = 0;
  };
  Tally tally;
  obs::Counter* const ir_rows = obs::GlobalMetrics().GetCounter("ir.rows");
  obs::Counter* const ir_batches =
      obs::GlobalMetrics().GetCounter("ir.batches");

  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  size_t turn = 0;
  size_t done_cycles = 0;
  while (NowNs() < end || done_cycles < replicas.size()) {
    Replica& r = *replicas[turn++ % replicas.size()];
    Session& s = *r.session;
    const size_t pos = r.pos;
    r.pos = (r.pos + 1) % s.spec->cycle.size();
    if (r.pos == 0) ++done_cycles;
    const Statement& stmt = s.spec->cycle[pos];
    const std::string expr_text = SplitVerb(stmt.line).second;
    // Each statement's layer calls run twice and only the second pass is
    // kept, so they run with caches as warm as the RunLine call after them.
    std::map<std::string, double> cur;
    Tally cur_tally;
    std::vector<SpanLog::Child> children;
    uint64_t root0 = 0;
    bool ok = true;
    double attributed = 0;
    std::optional<Value> result;
    // Times fn() as one child span named `name`; returns microseconds.
    auto timed = [&children](const char* name, const auto& fn) {
      const uint64_t t0 = NowNs();
      fn();
      const uint64_t t1 = NowNs();
      children.push_back({name, t0, t1});
      return Us(t1 - t0);
    };
    for (int pass = 0; pass < 2; ++pass) {
      cur.clear();
      cur_tally = Tally();
      children.clear();
      attributed = 0;
      result.reset();
      ok = true;
      root0 = NowNs();

      // net: decode the request envelope exactly as bagalgd receives it.
      const std::string& request = s.requests[pos];
      const std::string body = request.substr(request.find("\r\n\r\n") + 4);
      cur["net.envelope_decode_us"] = timed("net.envelope_decode", [&] {
        if (s.spec->wire == Wire::kJson) {
          auto doc = net::ParseJson(body);
          ok = ok && doc.ok() && doc->GetString("statement") == stmt.line;
        } else {
          size_t consumed = 0;
          auto frame = net::DecodeFrame(body, &consumed);
          ok = ok && frame.ok() &&
               net::DecodeStatementRequest(frame->payload).ok();
        }
      });

      if (stmt.kind == StmtKind::kLet) {
        const double parse = timed("lang.parse", [&] {
          ok = ok && ApplyLet(stmt.line, &r.db).ok();
        });
        cur["lang.parse_us"] = parse;
        attributed += parse;
      } else {
        bagalg::Result<Expr> expr = bagalg::Status::Ok();
        const double parse = timed("lang.parse", [&] {
          expr = bagalg::lang::ParseExpr(expr_text);
        });
        cur["lang.parse_us"] = parse;
        ok = ok && expr.ok();
        if (ok) {
          const Expr& e = *expr;
          cur["algebra.typecheck_us"] = timed("algebra.typecheck", [&] {
            ok = ok && bagalg::TypeOf(e, r.db.schema()).ok();
          });
          // The journal's verdict plus the budget preflight.
          const double cost = timed("analysis.cost", [&] {
            ok = ok && bagalg::analysis::AnalyzeCost(
                           e, r.db.schema(),
                           bagalg::analysis::CostFacts::Exact(r.db))
                           .ok();
            ok = ok && bagalg::analysis::CheckBudget(e, r.db, budget).ok();
          });
          cur["analysis.cost_us"] = cost;
          attributed += parse + cost;
          bagalg::GovernorOptions gov_options;
          gov_options.wall_limit_ns = kTimeoutMs * 1'000'000ull;
          bagalg::ResourceGovernor governor(gov_options);
          const uint64_t checkpoints0 =
              bagalg::ResourceGovernor::Stats().checkpoints;
          if (stmt.kind == StmtKind::kExec) {
            ++cur_tally.exec_stmts;
            bagalg::Result<bagalg::ir::IrPlan> plan = bagalg::Status::Ok();
            const double lower = timed("ir.lower", [&] {
              plan = bagalg::ir::LowerToIr(e, r.db);
            });
            cur["ir.lower_us"] = lower;
            const uint64_t rows0 = ir_rows->value();
            const uint64_t batches0 = ir_batches->value();
            bagalg::Result<Bag> bag = bagalg::Status::Ok();
            const double exec = timed("ir.exec", [&] {
              bagalg::GovernorScope scope(&governor);
              if (plan.ok()) {
                bagalg::ir::ExecIrOptions exec_options;
                exec_options.tracer = &quiet;
                bag = bagalg::ir::ExecuteIr(*plan, r.db, exec_options);
              } else {
                bag = bagalg::exec::RunVolcanoPipeline(e, r.db);
              }
            });
            if (!plan.ok()) ++cur_tally.fallbacks;
            cur["ir.exec_us"] = exec;
            cur_tally.rows += ir_rows->value() - rows0;
            cur_tally.batches += ir_batches->value() - batches0;
            attributed += lower + exec;
            ok = ok && bag.ok();
            if (ok) result = Value::FromBag(*bag);
          } else {
            ++cur_tally.eval_stmts;
            const uint64_t steps0 = r.evaluator.stats().steps;
            bagalg::Result<Value> v = bagalg::Status::Ok();
            const double eval = timed("algebra.eval", [&] {
              r.evaluator.set_governor(&governor);
              v = r.evaluator.Eval(e, r.db);
              r.evaluator.set_governor(nullptr);
            });
            cur["algebra.eval_us"] = eval;
            cur_tally.steps += r.evaluator.stats().steps - steps0;
            attributed += eval;
            ok = ok && v.ok();
            if (ok) result = *v;
          }
          cur_tally.checkpoints +=
              bagalg::ResourceGovernor::Stats().checkpoints - checkpoints0;
          ++cur_tally.governed;
        }
        if (result.has_value()) {
          std::string rendered;
          const double render = timed("core.render", [&] {
            rendered = stmt.kind == StmtKind::kCount
                           ? result->bag().TotalCount().ToString()
                           : result->ToString();
          });
          cur["core.render_us"] = render;
          attributed += render;
          ok = ok && rendered == s.expected[pos].output &&
               *result == s.expected[pos].result;
          cur["net.result_encode_us"] = timed("net.result_encode", [&] {
            const std::string wire = s.spec->wire == Wire::kJson
                                         ? net::ValueToWireJson(*result)
                                         : net::ValueToWireBinary(*result);
            ok = ok && !wire.empty();
          });
        }
      }

    }

    // The whole statement through the interpreter.
    bagalg::Result<std::string> out = std::string();
    const double runline = timed("lang.runline", [&] {
      out = r.runner->RunLine(stmt.line);
    });
    cur["lang.runline_us"] = runline;
    cur["lang.unattributed_us"] = runline - attributed;
    for (const auto& [name, value] : cur) us[name].push_back(value);
    tally.steps += cur_tally.steps;
    tally.eval_stmts += cur_tally.eval_stmts;
    tally.exec_stmts += cur_tally.exec_stmts;
    tally.rows += cur_tally.rows;
    tally.batches += cur_tally.batches;
    tally.fallbacks += cur_tally.fallbacks;
    tally.checkpoints += cur_tally.checkpoints;
    tally.governed += cur_tally.governed;
    ok = ok && CheckRunLine(out, *r.runner, s.expected[pos]);
    Account(ok);
    spans_.Add("bench.statement", "layer", root0, NowNs(), next_request_id_++,
               s.spec->name, children);
  }

  auto median = [&](const std::string& name) { return Median(us[name]); };
  auto per = [](uint64_t n, uint64_t d) {
    return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
  };
  for (const char* name :
       {"net.envelope_decode_us", "net.result_encode_us", "lang.parse_us",
        "algebra.typecheck_us", "analysis.cost_us", "algebra.eval_us",
        "ir.lower_us", "ir.exec_us", "core.render_us", "lang.runline_us",
        "lang.unattributed_us"}) {
    metrics->push_back({name, median(name), "us"});
  }
  const std::vector<Metric> counts = {
      {"algebra.eval_steps_per_stmt", per(tally.steps, tally.eval_stmts),
       "count"},
      {"ir.rows_per_stmt", per(tally.rows, tally.exec_stmts), "count"},
      {"ir.batches_per_stmt", per(tally.batches, tally.exec_stmts), "count"},
      {"ir.fallback_share", per(tally.fallbacks, tally.exec_stmts), "share"},
      {"governor.checkpoints_per_stmt",
       per(tally.checkpoints, tally.governed), "count"},
  };
  metrics->insert(metrics->end(), counts.begin(), counts.end());
}

// ------------------------------------------------------------------ runs

int Bench::RunServer() {
  const size_t connections = spec_.sessions.size();
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<double> setups, setups_wall;
  const int setups_wanted = options_.trace ? 1 : kSetups;
  for (int i = 0; i < setups_wanted; ++i) {
    if (i > 0) {
      clients.clear();
      server_.Stop();
    }
    for (Session& s : sessions_) s.pos = 0;
    const uint64_t t0 = NowNs();
    std::string err = StartServer();
    if (err.empty()) err = LoadOverServer();
    if (err.empty()) err = OpenClients(connections, &clients);
    if (!err.empty()) {
      std::fprintf(stderr, "bagbench: %s\n", err.c_str());
      return 2;
    }
    // Warm-up: one closed-loop pass over every session's cycle. (Rounds
    // that wait for every connection leave the threads idle between them,
    // and then time the host's wake-ups instead of the statements.)
    const PhaseResult warm = Drive(clients, Mode::kClosed,
                                   kTimeoutMs / 1000.0, false, true);
    if (!warm.error.empty()) {
      std::fprintf(stderr, "bagbench: warm-up: %s\n", warm.error.c_str());
      return 2;
    }
    setups.push_back(CpuSeconds(std::to_string(server_.pid())));
    setups_wall.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::string healthz = HttpGet(server_.port(), "/healthz");
  notes_.push_back("\"healthz\":" + (healthz.empty() ? "null" : healthz));

  std::vector<Metric> metrics;
  const double s = options_.seconds;
  if (!options_.trace) {
    // The whole run is one closed loop; CPU per statement, throughput and
    // latency come from the same statements. (An open loop at a fixed rate
    // turns every stall of a shared host into a queue, so it runs in the
    // traced run only.)
    Segments closed;
    closed.push_back(Drive(clients, Mode::kClosed, s, false));
    if (!closed.back().error.empty()) {
      std::fprintf(stderr, "bagbench: %s\n", closed.back().error.c_str());
      return 2;
    }
    notes_.push_back("\"client_cpu_share\":" +
                     std::to_string(Sum(closed, &PhaseResult::client_cpu_s) /
                                    Seconds(closed)));
    return Finish(EndToEnd(setups, setups_wall, closed,
                           PeakRssMb(std::to_string(server_.pid()))));
  }

  // Traced run: the closed loop, untraced and traced in alternating
  // quarters, for two fifths of the run; then the open loop, the serial
  // round trips and the in-process layer decomposition, a fifth each.
  const double phase = s / 5;
  Scrape("closed_before");
  Segments untraced, traced;
  for (int i = 0; i < 2; ++i) {
    untraced.push_back(Drive(clients, Mode::kClosed, phase / 2, false));
    traced.push_back(Drive(clients, Mode::kClosed, phase / 2, true));
  }
  Scrape("closed_after");
  Scrape("open_before");
  Segments open;
  open.push_back(Drive(clients, Mode::kOpen, phase, false));
  Scrape("open_after");
  Scrape("serial_before");
  PhaseResult serial = SerialNet(phase);
  Scrape("serial_after");
  for (const Segments* segments : {&untraced, &traced, &open}) {
    for (const PhaseResult& p : *segments) {
      if (!p.error.empty()) serial.error = p.error;
    }
  }
  if (!serial.error.empty()) {
    std::fprintf(stderr, "bagbench: %s\n", serial.error.c_str());
    return 2;
  }
  AddNetMetrics(serial, 1.0 - Share(Rate(traced), Rate(untraced)), &metrics);
  AddWallMetrics(untraced, &metrics);
  metrics.push_back({"server.cpu_ms_per_kstmt",
                     Sum(untraced, &PhaseResult::exec_cpu_s) * 1e6 /
                         Sum(untraced, &PhaseResult::responses),
                     "ms"});
  metrics.push_back({"lat.p99_us", Latency(open, 0.99), "us"});
  metrics.push_back({"gen.lag_p99_us", LagP99(open), "us"});
  metrics.push_back(
      {"client.cpu_share",
       Sum(open, &PhaseResult::client_cpu_s) / Seconds(open), "share"});
  clients.clear();
  server_.Stop();
  Decompose(phase, &metrics);
  return Finish(std::move(metrics));
}

int Bench::RunAnalytic() {
  std::vector<double> setups, setups_wall;
  std::unique_ptr<bagalg::lang::ScriptRunner> runner;
  Session& s = sessions_[0];
  const int setups_wanted = options_.trace ? 1 : kSetups;
  for (int i = 0; i < setups_wanted; ++i) {
    s.pos = 0;
    const double cpu0 = CpuSeconds("self");
    const uint64_t t0 = NowNs();
    runner = std::make_unique<bagalg::lang::ScriptRunner>();
    const std::string err = LoadRunner(runner.get());
    if (!err.empty()) {
      std::fprintf(stderr, "bagbench: %s\n", err.c_str());
      return 2;
    }
    for (size_t pos = 0; pos < s.spec->cycle.size(); ++pos) {
      auto out = runner->RunLine(s.spec->cycle[pos].line);
      Account(CheckRunLine(out, *runner, s.expected[pos]));
    }
    setups.push_back(CpuSeconds("self") - cpu0);
    setups_wall.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<Metric> metrics;
  if (!options_.trace) {
    Segments closed;
    closed.push_back(DriveRunner(*runner, options_.seconds, false));
    return Finish(EndToEnd(setups, setups_wall, closed, PeakRssMb("self")));
  }

  // As for the server workloads, with the serial round trips of the same
  // statements through a bagalgd started for them.
  const double phase = options_.seconds / 5;
  Segments untraced, traced;
  for (int i = 0; i < 2; ++i) {
    untraced.push_back(DriveRunner(*runner, phase / 2, false));
    traced.push_back(DriveRunner(*runner, phase / 2, true));
  }
  runner.reset();
  // The same statements through bagalgd, serially, for the net layer.
  for (Session& session : sessions_) session.pos = 0;
  std::string err = StartServer();
  if (err.empty()) err = LoadOverServer();
  if (!err.empty()) {
    std::fprintf(stderr, "bagbench: %s\n", err.c_str());
    return 2;
  }
  Scrape("serial_before");
  PhaseResult serial = SerialNet(phase);
  Scrape("serial_after");
  if (!serial.error.empty()) {
    std::fprintf(stderr, "bagbench: %s\n", serial.error.c_str());
    return 2;
  }
  AddNetMetrics(serial, 1.0 - Share(Rate(traced), Rate(untraced)), &metrics);
  AddWallMetrics(untraced, &metrics);
  metrics.push_back({"server.cpu_ms_per_kstmt",
                     serial.exec_cpu_s * 1e6 /
                         static_cast<double>(serial.responses),
                     "ms"});
  metrics.push_back({"lat.p99_us", Latency(untraced, 0.99), "us"});
  metrics.push_back({"gen.lag_p99_us", LagP99(untraced), "us"});
  metrics.push_back(
      {"client.cpu_share",
       Sum(untraced, &PhaseResult::harness_s) / Seconds(untraced), "share"});
  server_.Stop();
  Decompose(phase, &metrics);
  return Finish(std::move(metrics));
}

/// Sample and window counts behind the latency metrics, for the host line.
void Bench::AddLatencyNotes(const Segments& segments, size_t kept,
                            size_t windows) {
  size_t samples = 0;
  for (const PhaseResult& r : segments) samples += r.latency.size();
  notes_.push_back("\"lat_samples\":" + std::to_string(samples));
  notes_.push_back("\"lat_p99_us\":" +
                   std::to_string(Latency(segments, 0.99)));
  notes_.push_back("\"lat_windows_on_time\":\"" + std::to_string(kept) +
                   "/" + std::to_string(windows) + "\"");
  notes_.push_back("\"gen_lag_p99_us\":" +
                   std::to_string(LagP99(segments)));
}

void Bench::AddNetMetrics(const PhaseResult& serial, double trace_overhead,
                          std::vector<Metric>* metrics) {
  std::vector<double> outside;
  for (size_t i = 0; i < serial.roundtrip_us.size(); ++i) {
    outside.push_back(serial.roundtrip_us[i] - serial.wall_us[i]);
  }
  const double n = static_cast<double>(serial.responses);
  const double requests = PromDelta("bagalg_server_requests_total",
                                    "serial_before", "serial_after");
  const std::vector<Metric> net = {
      {"net.roundtrip_us", Median(serial.roundtrip_us), "us"},
      {"net.outside_runline_us", Median(outside), "us"},
      {"server.runline_us", Median(serial.wall_us), "us"},
      {"net.req_bytes_per_stmt", serial.req_bytes / n, "B"},
      {"net.resp_bytes_per_stmt", serial.resp_bytes / n, "B"},
      {"net.keepalive_reuse_share",
       Share(PromDelta("bagalg_server_http_keepalive_reuses_total",
                       "serial_before", "serial_after"),
             requests),
       "share"},
      {"net.streamed_share",
       Share(PromDelta("bagalg_server_http_streamed_total", "serial_before",
                       "serial_after"),
             n),
       "share"},
      {"trace.overhead_share", trace_overhead, "share"},
  };
  metrics->insert(metrics->end(), net.begin(), net.end());
}

/// A fixed integer loop, timed once per run and only recorded: it tells
/// two hosts apart, it never rescales a metric.
double CalibrationMs() {
  const uint64_t t0 = NowNs();
  bagalg::Rng rng(1);
  uint64_t acc = 0;
  for (int i = 0; i < 20'000'000; ++i) acc += rng.Next() >> 60;
  const uint64_t t1 = NowNs();
  volatile uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(t1 - t0) / 1e6;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? "," : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

/// The end-to-end metrics of a trace-0 run, from the CPU time of each
/// set-up and the closed loop. The wall-clock figures of the same run
/// (throughput, latency, set-up time) go on the host line.
std::vector<Metric> Bench::EndToEnd(const std::vector<double>& setups,
                                    const std::vector<double>& setups_wall,
                                    const Segments& closed,
                                    double peak_rss_mb) {
  std::vector<Metric> wall;
  AddWallMetrics(closed, &wall);
  std::string note = "\"wall\":{";
  for (const Metric& m : wall) {
    note += obs::JsonQuote(m.name) + ":" + JsonNumber(m.value) + ",";
  }
  notes_.push_back(note + "\"setups_s\":" + JsonList(setups_wall) + "}");
  notes_.push_back("\"setups_cpu_s\":" + JsonList(setups));
  return {
      {"setup_s", Median(setups), "s"},
      {"cpu_us_per_stmt",
       Sum(closed, &PhaseResult::exec_cpu_s) * 1e6 /
           Sum(closed, &PhaseResult::responses),
       "us"},
      {"ok_share",
       1.0 - Share(static_cast<double>(counts_.failed),
                   static_cast<double>(counts_.attempted)),
       "share"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// Closed-loop throughput and latency, as the wall clock reads them.
void Bench::AddWallMetrics(const Segments& closed,
                           std::vector<Metric>* metrics) {
  size_t kept = 0;
  size_t windows = 0;
  metrics->push_back({"wall.stmt_per_s", Rate(closed), "1/s"});
  metrics->push_back({"wall.lat_p50_us", Latency(closed, 0.5), "us"});
  metrics->push_back(
      {"wall.lat_p90_us", Latency(closed, 0.9, &kept, &windows), "us"});
  AddLatencyNotes(closed, kept, windows);
}

int Bench::Finish(std::vector<Metric> metrics) {
  // Host facts and run notes: informational lines before the result line.
  std::string host = "{\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"compiler\":" + obs::JsonQuote(__VERSION__) +
                     ",\"build\":" + bagalg::BuildInfoJson() +
                     ",\"bagalgd_flags\":[";
  for (size_t i = 0; i < ServerFlags().size(); ++i) {
    host += (i ? "," : "") + obs::JsonQuote(ServerFlags()[i]);
  }
  host += "],\"env\":{";
  bool first = true;
  for (const PinnedEnv& env : kPinnedEnv) {
    host += std::string(first ? "" : ",") + "\"" + env.name + "\":\"" +
            (env.value != nullptr ? env.value : "unset") + "\"";
    first = false;
  }
  host += "},\"calibration_ms\":" + JsonNumber(CalibrationMs()) +
          ",\"workload\":" + obs::JsonQuote(options_.workload) +
          ",\"seed\":" + std::to_string(options_.seed) + ",\"seconds\":" +
          JsonNumber(options_.seconds) + ",\"trace\":" +
          (options_.trace ? "1" : "0");
  host += ",\"stale_let_results\":" + std::to_string(stale_let_results);
  for (const std::string& note : notes_) host += "," + note;
  host += "}";
  std::printf("host: %s\n", host.c_str());
  std::ofstream(options_.out + "/host.json") << host << "\n";

  if (options_.trace) {
    if (!spans_.Write(options_.out + "/trace.json")) {
      std::fprintf(stderr, "bagbench: cannot write trace.json\n");
      ++counts_.failed;
    }
    std::printf("trace: %zu spans, %llu statement groups over budget\n",
                spans_.size(),
                static_cast<unsigned long long>(spans_.dropped()));
  }
  std::string out = "{\"correct\":";
  out += counts_.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(counts_.attempted) +
         ",\"failed\":" + std::to_string(counts_.failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + obs::JsonQuote(metrics[i].name) +
           ":{\"value\":" + JsonNumber(metrics[i].value) +
           ",\"unit\":" + obs::JsonQuote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return counts_.failed == 0 ? 0 : 1;
}

int Bench::Run() {
  const std::string err = PrepareSessions();
  if (!err.empty()) {
    std::fprintf(stderr, "bagbench: %s\n", err.c_str());
    return 2;
  }
  return spec_.in_process ? RunAnalytic() : RunServer();
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      options->workload = value;
    } else if (key == "seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      options->trace = value == "1";
    } else if (key == "bagalgd") {
      options->bagalgd = value;
    } else if (key == "out") {
      options->out = value;
    } else {
      return false;
    }
  }
  return options->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &options) ||
      !MakeWorkload(options.workload, options.seed, &spec)) {
    std::fprintf(stderr,
                 "usage: bagbench --workload=point|analytic|bulk --seed=N "
                 "--seconds=S --trace=0|1 --bagalgd=PATH --out=DIR\n");
    return 2;
  }
  for (const PinnedEnv& env : kPinnedEnv) {
    if (env.value != nullptr) {
      setenv(env.name, env.value, 1);
    } else {
      unsetenv(env.name);
    }
  }
  Bench bench(std::move(options), std::move(spec));
  return bench.Run();
}
