// Tests for the bagalgd server stack (src/net): the defensive JSON reader,
// wire serialization and framing, the HTTP layer's caps and status mapping,
// and the server itself end-to-end over loopback — sessions, admission
// control, governor trips with flight dumps, and graceful drain.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/value.h"
#include "src/net/http.h"
#include "src/net/io.h"
#include "src/net/json_reader.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/util/fault.h"
#include "src/util/status.h"

namespace bagalg::net {
namespace {

// ------------------------------------------------------------ json_reader

TEST(JsonReaderTest, ParsesScalarsAndNesting) {
  auto doc = ParseJson(R"js({"a": 1.5, "b": [true, null, "x\nA"]})js");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(a->number, 1.5);
  const JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_EQ(b->items[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(b->items[2].string, "x\nA");
}

TEST(JsonReaderTest, GetStringAndGetUint) {
  auto doc = ParseJson(R"js({"s": "hi", "n": 42, "f": 1.5, "neg": -3})js");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("s"), "hi");
  EXPECT_EQ(doc->GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(doc->GetString("n", "dflt"), "dflt");  // wrong type
  EXPECT_EQ(doc->GetUint("n"), 42u);
  EXPECT_EQ(doc->GetUint("f", 7), 7u);    // not integral
  EXPECT_EQ(doc->GetUint("neg", 7), 7u);  // negative
  EXPECT_EQ(doc->GetUint("missing", 9), 9u);
}

TEST(JsonReaderTest, SurrogatePairDecodes) {
  auto doc = ParseJson(R"js("😀")js");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->string, "\xF0\x9F\x98\x80");
  EXPECT_FALSE(ParseJson(R"js("\ud83d")js").ok());   // lone high surrogate
  EXPECT_FALSE(ParseJson(R"js("\ude00")js").ok());   // lone low surrogate
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated",
        "{\"a\" 1}", "[1] trailing", "nan", "\"\x01\""}) {
    auto doc = ParseJson(bad);
    EXPECT_FALSE(doc.ok()) << "accepted: " << bad;
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kParseError) << bad;
    }
  }
}

TEST(JsonReaderTest, DepthCapHolds) {
  std::string deep;
  for (int i = 0; i < kMaxJsonDepth + 8; ++i) deep += "[";
  auto doc = ParseJson(deep);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("deep"), std::string::npos);
  // At the cap it still parses.
  std::string ok_doc(static_cast<size_t>(kMaxJsonDepth), '[');
  ok_doc += std::string(static_cast<size_t>(kMaxJsonDepth), ']');
  EXPECT_TRUE(ParseJson(ok_doc).ok());
}

// ------------------------------------------------------------------ wire

TEST(WireTest, SerializesNestedValues) {
  const AtomId a = GlobalAtomTable().Intern("wire_a");
  Bag::Builder builder(Type::Atom());
  builder.Add(Value::Atom(a), 3);
  const Bag bag = *std::move(builder).Build();
  EXPECT_EQ(ValueToWireJson(Value::Atom(a)), "{\"atom\":\"wire_a\"}");
  EXPECT_EQ(ValueToWireJson(Value::Tuple({Value::Atom(a), Value::Atom(a)})),
            "{\"tuple\":[{\"atom\":\"wire_a\"},{\"atom\":\"wire_a\"}]}");
  EXPECT_EQ(BagToWireJson(bag),
            "{\"bag\":{\"type\":\"{{U}}\",\"entries\":[{\"v\":{\"atom\":"
            "\"wire_a\"},\"n\":\"3\"}]}}");
}

TEST(WireTest, HugeMultiplicitiesTravelAsStrings) {
  const AtomId a = GlobalAtomTable().Intern("wire_big");
  Bag::Builder builder(Type::Atom());
  builder.Add(Value::Atom(a), BigNat::TwoPow(100));
  const std::string json = BagToWireJson(*std::move(builder).Build());
  // 2^100 — far past double precision; must appear quoted and exact.
  EXPECT_NE(json.find("\"1267650600228229401496703205376\""),
            std::string::npos)
      << json;
}

TEST(WireTest, FrameRoundTrips) {
  const std::string payload = "{\"atom\":\"x\"}";
  const std::string frame = EncodeFrame(WireFormat::kJson, payload);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  size_t consumed = 0;
  auto decoded = DecodeFrame(frame, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded->payload, payload);
  EXPECT_EQ(decoded->format, WireFormat::kJson);
}

TEST(WireTest, FrameDecodeIsDefensive) {
  const std::string frame = EncodeFrame(WireFormat::kJson, "payload");
  size_t consumed = 0;
  // A prefix is retryable (kUnavailable), not an error.
  auto partial = DecodeFrame(std::string_view(frame).substr(0, 5), &consumed);
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(consumed, 0u);
  // Wrong magic fails immediately, even on a short buffer.
  auto bad = DecodeFrame("XXXX", &consumed);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  // An absurd length is refused before any allocation.
  std::string huge = frame.substr(0, kFrameHeaderBytes);
  huge[8] = '\xFF';
  huge[9] = '\xFF';
  huge[10] = '\xFF';
  huge[11] = '\x7F';
  auto oversized = DecodeFrame(huge, &consumed);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kParseError);
}

// ------------------------------------------------------------------ http

TEST(HttpTest, StatusMappingFollowsRetryabilityContract) {
  // The three retryable codes map to statuses clients may retry; every
  // permanent code maps to one they must not.
  for (const StatusCode code :
       {StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kUnavailable}) {
    EXPECT_TRUE(IsRetryable(code));
    const int http = HttpStatusForCode(code);
    EXPECT_TRUE(http == 429 || http == 499 || http == 503 || http == 504)
        << http;
  }
  EXPECT_EQ(HttpStatusForCode(StatusCode::kBudgetExceeded), 422);
  EXPECT_FALSE(IsRetryable(StatusCode::kBudgetExceeded));
  EXPECT_EQ(HttpStatusForCode(StatusCode::kResourceExhausted), 507);
  EXPECT_FALSE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_EQ(HttpStatusForCode(StatusCode::kParseError), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kOk), 200);
}

// Feeds raw bytes to ReadHttpRequest through a socketpair.
class HttpParseFixture {
 public:
  HttpParseFixture() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reader_ = Fd(fds[0]);
    writer_ = Fd(fds[1]);
  }

  Result<HttpRequest> Feed(std::string_view bytes, HttpLimits limits = {}) {
    EXPECT_TRUE(WriteAll(writer_.get(), bytes).ok());
    writer_.Reset();  // EOF after the payload
    return ReadHttpRequest(reader_.get(), &buffer_, limits, nullptr);
  }

 private:
  Fd reader_, writer_;
  std::string buffer_;
};

TEST(HttpTest, ParsesRequestWithBody) {
  HttpParseFixture fixture;
  auto request = fixture.Feed(
      "POST /v1/statement?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->path, "/v1/statement");
  EXPECT_EQ(request->query, "x=1");
  EXPECT_EQ(request->headers.at("host"), "localhost");
  EXPECT_EQ(request->body, "hello");
}

TEST(HttpTest, RejectsOversizedBody) {
  HttpParseFixture fixture;
  HttpLimits limits;
  limits.max_body_bytes = 4;
  auto request = fixture.Feed(
      "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789", limits);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kResourceExhausted);
}

TEST(HttpTest, RejectsMalformedRequestLine) {
  HttpParseFixture fixture;
  auto request = fixture.Feed("GARBAGE\r\n\r\n");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kParseError);
}

TEST(HttpTest, MidRequestEofIsAnIoError) {
  HttpParseFixture fixture;
  auto request = fixture.Feed(
      "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------- server

// Minimal blocking HTTP client for loopback tests: one request per
// connection (Connection: close), returns status line + body.
struct ClientResponse {
  int status = 0;
  std::string body;
  std::string raw;
};

ClientResponse Fetch(uint16_t port, const std::string& method,
                     const std::string& path, const std::string& body) {
  ClientResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                        "Content-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!WriteAll(fd, request).ok()) {
    ::close(fd);
    return out;
  }
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    out.raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  if (out.raw.size() > 12) out.status = std::atoi(out.raw.c_str() + 9);
  const size_t split = out.raw.find("\r\n\r\n");
  if (split != std::string::npos) out.body = out.raw.substr(split + 4);
  return out;
}

ClientResponse PostStatement(uint16_t port, const std::string& json) {
  return Fetch(port, "POST", "/v1/statement", json);
}

TEST(ServerTest, StatementsRunAndSessionsAreIsolated) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  auto let = PostStatement(
      port, R"js({"session":"alpha","statement":"let X = {{a, a, b}}"})js");
  EXPECT_EQ(let.status, 200) << let.raw;
  EXPECT_NE(let.body.find("\"outcome\":\"ok\""), std::string::npos);

  auto eval = PostStatement(
      port, R"js({"session":"alpha","statement":"eval uplus(X, X)"})js");
  EXPECT_EQ(eval.status, 200) << eval.raw;
  EXPECT_NE(eval.body.find("\"result\":{\"bag\""), std::string::npos);
  EXPECT_NE(eval.body.find("\"n\":\"4\""), std::string::npos);

  // A different session must not see alpha's database.
  auto other = PostStatement(
      port, R"js({"session":"beta","statement":"eval uplus(X, X)"})js");
  EXPECT_EQ(other.status, 404) << other.raw;
  EXPECT_NE(other.body.find("NotFound"), std::string::npos);

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST(ServerTest, LetRepliesCarryNoResult) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  auto eval = PostStatement(
      port, R"js({"session":"s","statement":"eval '{{a, b}}"})js");
  EXPECT_EQ(eval.status, 200) << eval.raw;
  EXPECT_NE(eval.body.find("\"result\""), std::string::npos) << eval.body;

  // The let right after a result-producing statement replies without one.
  auto let = PostStatement(
      port, R"js({"session":"s","statement":"let X = {{a, a, b}}"})js");
  EXPECT_EQ(let.status, 200) << let.raw;
  auto doc = ParseJson(let.body);
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << let.body;
  EXPECT_EQ(doc->Find("result"), nullptr) << let.body;

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, IllTypedExecOnAnEmptyInputIsA400) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port,
                R"js({"session":"e","statement":"schema E : {{[U]}}"})js");
  auto refused = PostStatement(
      port,
      R"js({"session":"e","statement":"exec map(p -> proj(9, p), E)"})js");
  EXPECT_EQ(refused.status, 400) << refused.raw;
  EXPECT_NE(refused.body.find("TypeError"), std::string::npos)
      << refused.body;

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, BudgetRefusalIsTypedAndPermanent) {
  ServerOptions options;
  options.cost_budget = 1000;  // pow({{..16 atoms..}}) estimates 2^16 >> 1000
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port,
                R"js({"session":"b","statement":)js"
                R"js("let X = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p}}"})js");
  auto refused =
      PostStatement(port, R"js({"session":"b","statement":"eval pow(X)"})js");
  EXPECT_EQ(refused.status, 422) << refused.raw;
  EXPECT_NE(refused.body.find("\"outcome\":\"budget-refused\""),
            std::string::npos)
      << refused.body;
  EXPECT_NE(refused.body.find("\"retryable\":false"), std::string::npos);

  // Small statements still run: the session survived the refusal.
  auto ok = PostStatement(port, R"js({"session":"b","statement":"count X"})js");
  EXPECT_EQ(ok.status, 200) << ok.raw;

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().refused, 1u);
}

TEST(ServerTest, DeadlineTripReturns504WithFlightDump) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port,
                R"js({"session":"t","statement":)js"
                R"js("let X = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p}}"})js");
  auto tripped = PostStatement(
      port,
      R"js({"session":"t","statement":"eval pow(pow(X))","timeout_ms":30})js");
  EXPECT_EQ(tripped.status, 504) << tripped.raw;
  EXPECT_NE(tripped.body.find("\"outcome\":\"deadline\""), std::string::npos);
  EXPECT_NE(tripped.body.find("\"retryable\":true"), std::string::npos);
  EXPECT_NE(tripped.body.find("\"flight\""), std::string::npos);
  EXPECT_NE(tripped.raw.find("Retry-After"), std::string::npos);

  // The session survives its trip — REPL semantics.
  auto ok = PostStatement(port, R"js({"session":"t","statement":"count X"})js");
  EXPECT_EQ(ok.status, 200) << ok.raw;

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().tripped, 1u);
}

TEST(ServerTest, SessionCapSheds) {
  ServerOptions options;
  options.max_sessions = 1;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  auto first =
      PostStatement(port, R"js({"session":"one","statement":"count '{{a}}"})js");
  EXPECT_EQ(first.status, 200) << first.raw;
  auto second =
      PostStatement(port, R"js({"session":"two","statement":"count '{{a}}"})js");
  EXPECT_EQ(second.status, 503) << second.raw;
  EXPECT_NE(second.body.find("\"retryable\":true"), std::string::npos);
  EXPECT_NE(second.raw.find("Retry-After"), std::string::npos);

  // Closing the resident session frees the slot.
  auto closed =
      Fetch(port, "POST", "/v1/session/close", R"js({"session":"one"})js");
  EXPECT_EQ(closed.status, 200) << closed.raw;
  auto third =
      PostStatement(port, R"js({"session":"two","statement":"count '{{a}}"})js");
  EXPECT_EQ(third.status, 200) << third.raw;

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, MalformedRequestsAreTyped400s) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  EXPECT_EQ(PostStatement(port, "{not json").status, 400);
  EXPECT_EQ(PostStatement(port, R"js({"statement": 7})js").status, 400);
  EXPECT_EQ(
      PostStatement(port,
                    R"js({"session":"../etc","statement":"count '{{a}}"})js")
          .status,
      400);
  EXPECT_EQ(Fetch(port, "GET", "/nope", "").status, 404);
  EXPECT_EQ(Fetch(port, "GET", "/v1/statement", "").status, 405);

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, ObservabilityEndpointsServe) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port, R"js({"session":"obs","statement":"count '{{a, b}}"})js");

  auto health = Fetch(port, "GET", "/healthz", "");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"serving\""), std::string::npos);
  EXPECT_NE(health.body.find("\"build\""), std::string::npos);
  EXPECT_NE(health.body.find("\"engine_default\""), std::string::npos);

  auto metrics = Fetch(port, "GET", "/metrics", "");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE bagalg_server_requests_total counter"),
            std::string::npos);

  auto trace = Fetch(port, "GET", "/trace", "");
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"id\":\"obs\""), std::string::npos);
  EXPECT_NE(trace.body.find("\"outcome\":\"ok\""), std::string::npos);

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, DrainCancelsInFlightAndFlushesJournals) {
  ServerOptions options;
  options.journal_dir = ::testing::TempDir();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port,
                R"js({"session":"drain","statement":)js"
                R"js("let X = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p}}"})js");

  // A statement that would run ~forever, launched from a helper thread;
  // the drain below must cancel it rather than wait it out.
  ClientResponse slow;
  std::thread in_flight([&] {
    slow = PostStatement(
        port, R"js({"session":"drain","statement":"eval pow(pow(X))"})js");
  });
  // Give it time to pass admission and start executing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  (*server)->RequestShutdown();
  (*server)->Wait();
  in_flight.join();

  // The in-flight statement ended in a typed outcome: cancelled by the
  // drain (or, if the race went the other way, shed before starting).
  EXPECT_TRUE(slow.status == 499 || slow.status == 503 || slow.status == 0)
      << slow.raw;
  if (slow.status == 499) {
    EXPECT_NE(slow.body.find("\"outcome\":\"cancel\""), std::string::npos);
  }

  // The session journal was flushed on drain.
  const std::string path =
      options.journal_dir + "/session-drain.jsonl";
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << path;
  char first[16] = {};
  EXPECT_GT(std::fread(first, 1, sizeof(first) - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(first).substr(0, 10), "{\"header\":");

  // After drain every new connection is refused or reset — the listener
  // is gone.
  auto after = Fetch(port, "GET", "/healthz", "");
  EXPECT_EQ(after.status, 0);
}

TEST(ServerTest, ConcurrentSessionsSurviveMixedLoad) {
  ServerOptions options;
  options.executors = 4;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0}, typed_errors{0}, unexpected{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string session = "mix" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        ClientResponse r;
        switch (i % 3) {
          case 0:
            r = PostStatement(port, "{\"session\":\"" + session +
                                        "\",\"statement\":"
                                        "\"count pow('{{a,b,c}})\"}");
            break;
          case 1:  // parse error: typed 400
            r = PostStatement(port, "{\"session\":\"" + session +
                                        "\",\"statement\":\"eval ((\"}");
            break;
          default:  // deadline trip on a big statement
            r = PostStatement(
                port, "{\"session\":\"" + session +
                          "\",\"statement\":\"count pow(pow('{{a,b,c,d,e,f,"
                          "g,h,i,j,k,l,m,n,o,p}}))\",\"timeout_ms\":10}");
            break;
        }
        if (r.status == 200) {
          ok.fetch_add(1);
        } else if (r.status == 400 || r.status == 504 || r.status == 429 ||
                   r.status == 503 || r.status == 507) {
          typed_errors.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(ok.load() + typed_errors.load(), kThreads * kPerThread);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(typed_errors.load(), 0);

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads * kPerThread));
}

// ------------------------------------------------- HttpReader increments

TEST(HttpReaderTest, TwoRequestsInOneFeedBothParse) {
  // The pipelined-second-request regression: bytes after a parsed body
  // must stay buffered for the next Next(), byte-exact.
  HttpReader reader;
  reader.Feed(
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\none"
      "POST /b HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  HttpRequest first;
  auto got = reader.Next(&first);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  EXPECT_EQ(first.path, "/a");
  EXPECT_EQ(first.body, "one");
  EXPECT_GT(reader.buffered_bytes(), 0u);
  HttpRequest second;
  got = reader.Next(&second);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  EXPECT_EQ(second.path, "/b");
  EXPECT_EQ(second.body, "hello");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(HttpReaderTest, ArbitrarySplitBoundariesParseIdentically) {
  // recv never promises request-aligned chunks: feeding the same stream
  // one byte at a time must yield the same two requests. This also walks
  // the head terminator across every possible Feed split.
  const std::string stream =
      "POST /v1/statement HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi"
      "GET /healthz HTTP/1.1\r\n\r\n";
  for (size_t step = 1; step <= 7; ++step) {
    HttpReader reader;
    std::vector<HttpRequest> requests;
    for (size_t off = 0; off < stream.size(); off += step) {
      reader.Feed(stream.substr(off, step));
      while (true) {
        HttpRequest request;
        auto got = reader.Next(&request);
        ASSERT_TRUE(got.ok()) << got.status() << " step=" << step;
        if (!*got) break;
        requests.push_back(std::move(request));
      }
    }
    ASSERT_EQ(requests.size(), 2u) << "step=" << step;
    EXPECT_EQ(requests[0].path, "/v1/statement");
    EXPECT_EQ(requests[0].body, "hi");
    EXPECT_EQ(requests[1].path, "/healthz");
    EXPECT_EQ(requests[1].method, "GET");
  }
}

TEST(HttpReaderTest, PipelinedBytesDoNotCountAgainstNextHeaderCap) {
  // A parsed request's leftovers must never be billed to the *following*
  // request's header cap until they are that request's header bytes.
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpReader reader(limits);
  const std::string big_body(48, 'x');
  reader.Feed("POST /a HTTP/1.1\r\nContent-Length: " +
              std::to_string(big_body.size()) + "\r\n\r\n" + big_body +
              "GET /b HTTP/1.1\r\n\r\n");
  HttpRequest request;
  auto got = reader.Next(&request);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  got = reader.Next(&request);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  EXPECT_EQ(request.path, "/b");
}

TEST(HttpReaderTest, KeepAliveSemantics) {
  HttpReader reader;
  reader.Feed("GET /a HTTP/1.1\r\n\r\n");
  HttpRequest http11;
  ASSERT_TRUE(*reader.Next(&http11));
  EXPECT_FALSE(RequestWantsClose(http11));

  reader.Feed("GET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
  HttpRequest explicit_close;
  ASSERT_TRUE(*reader.Next(&explicit_close));
  EXPECT_TRUE(RequestWantsClose(explicit_close));

  reader.Feed("GET /c HTTP/1.0\r\n\r\n");
  HttpRequest http10;
  ASSERT_TRUE(*reader.Next(&http10));
  EXPECT_FALSE(http10.http11);
  EXPECT_TRUE(RequestWantsClose(http10));
}

TEST(HttpTest, ChunkedResponseFormatting) {
  HttpResponse resp;
  resp.status = 200;
  std::string wire = FormatHttpResponseHead(resp, /*chunked=*/true, 0);
  EXPECT_NE(wire.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos);
  AppendHttpChunk("hello ", &wire);
  AppendHttpChunk("", &wire);  // must not emit a stream terminator
  AppendHttpChunk("world", &wire);
  AppendHttpLastChunk(&wire);
  const size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(wire.substr(head_end + 4),
            "6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n");
}

// ------------------------------------------------------- wire: binary

Value MakeFixtureBag() {
  AtomTable& table = GlobalAtomTable();
  const AtomId a = table.Intern("bin_a");
  const AtomId b = table.Intern("bin_b");
  // {{[bin_a, {{bin_b: 2^100}}]: 3, [bin_b, {{}}]: 1}} — nesting, tuples,
  // an inner bag, and a multiplicity past 2^64 in one fixture.
  Bag::Builder inner_builder(Type::Atom());
  inner_builder.Add(Value::Atom(b), BigNat::TwoPow(100));
  const Value inner = Value::FromBag(*std::move(inner_builder).Build());
  Bag::Builder empty_builder(Type::Atom());
  const Value empty = Value::FromBag(*std::move(empty_builder).Build());
  Bag::Builder outer(Type::Tuple({Type::Atom(), Type::Bag(Type::Atom())}));
  outer.Add(Value::Tuple({Value::Atom(a), inner}), 3);
  outer.Add(Value::Tuple({Value::Atom(b), empty}), 1);
  return Value::FromBag(*std::move(outer).Build());
}

TEST(WireBinaryTest, RoundTripsToBitIdenticalWireJson) {
  const Value original = MakeFixtureBag();
  const std::string binary = ValueToWireBinary(original);
  auto decoded = WireBinaryToValue(binary);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // Parity oracle: both paths must render the identical canonical wire
  // JSON — same entries, same order, same exact multiplicity digits.
  EXPECT_EQ(ValueToWireJson(*decoded), ValueToWireJson(original));
  // And the JSON path itself round-trips to the same value.
  auto via_json = WireJsonToValue(ValueToWireJson(original));
  ASSERT_TRUE(via_json.ok()) << via_json.status();
  EXPECT_EQ(ValueToWireBinary(*via_json), binary);
}

TEST(WireBinaryTest, HugeMultiplicitySurvivesExactly) {
  const Value fixture = MakeFixtureBag();
  auto decoded = WireBinaryToValue(ValueToWireBinary(fixture));
  ASSERT_TRUE(decoded.ok());
  const std::string json = ValueToWireJson(*decoded);
  EXPECT_NE(json.find("\"1267650600228229401496703205376\""),
            std::string::npos)
      << json;
}

TEST(WireBinaryTest, UntypedEmptyBagRoundTrips) {
  Bag::Builder builder;  // no element type: Bottom, rendered "_"
  const Value empty = Value::FromBag(*std::move(builder).Build());
  auto decoded = WireBinaryToValue(ValueToWireBinary(empty));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->IsBag());
  EXPECT_TRUE(decoded->bag().entries().empty());
  EXPECT_EQ(ValueToWireJson(*decoded), ValueToWireJson(empty));
}

TEST(WireBinaryTest, DecodeIsDefensive) {
  const std::string binary = ValueToWireBinary(MakeFixtureBag());
  // Every proper prefix must fail cleanly — never crash, never accept.
  for (size_t len = 0; len < binary.size(); ++len) {
    auto truncated = WireBinaryToValue(binary.substr(0, len));
    EXPECT_FALSE(truncated.ok()) << "accepted prefix of " << len;
  }
  // Trailing garbage is rejected: the whole input must be consumed.
  EXPECT_FALSE(WireBinaryToValue(binary + "x").ok());
  // Unknown tag.
  EXPECT_FALSE(WireBinaryToValue(std::string("\x7f", 1)).ok());
  // A nesting bomb past kMaxWireDepth: tuples of arity 1 all the way down.
  std::string bomb;
  for (int i = 0; i < kMaxWireDepth + 4; ++i) {
    bomb += '\x02';
    bomb += std::string("\x01\x00\x00\x00", 4);  // arity 1, LE
  }
  bomb += '\x01';
  bomb += std::string("\x00\x00\x00\x00", 4);  // atom with empty name
  auto deep = WireBinaryToValue(bomb);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
}

TEST(WireBinaryTest, StatementEnvelopesRoundTrip) {
  WireStatementRequest request;
  request.session = "env";
  request.statement = "eval uplus(X, X)";
  request.timeout_ms = 250;
  request.memlimit_bytes = 1 << 20;
  auto request_back = DecodeStatementRequest(EncodeStatementRequest(request));
  ASSERT_TRUE(request_back.ok()) << request_back.status();
  EXPECT_EQ(request_back->session, "env");
  EXPECT_EQ(request_back->statement, "eval uplus(X, X)");
  EXPECT_EQ(request_back->timeout_ms, 250u);
  EXPECT_EQ(request_back->memlimit_bytes, 1u << 20);

  WireStatementResponse response;
  response.ok = true;
  response.outcome = "ok";
  response.output = "{{bin_a: 3}}";
  response.wall_us = 1234;
  response.has_result = true;
  response.result = MakeFixtureBag();
  auto response_back =
      DecodeStatementResponse(EncodeStatementResponse(response));
  ASSERT_TRUE(response_back.ok()) << response_back.status();
  EXPECT_TRUE(response_back->ok);
  EXPECT_EQ(response_back->outcome, "ok");
  EXPECT_EQ(response_back->wall_us, 1234u);
  ASSERT_TRUE(response_back->has_result);
  EXPECT_EQ(ValueToWireJson(response_back->result),
            ValueToWireJson(response.result));

  WireStatementResponse error;
  error.ok = false;
  error.outcome = "deadline";
  error.error_code = "DeadlineExceeded";
  error.error_message = "governor: wall deadline";
  error.retryable = true;
  error.flight = "{\"spans\":[]}";
  auto error_back = DecodeStatementResponse(EncodeStatementResponse(error));
  ASSERT_TRUE(error_back.ok()) << error_back.status();
  EXPECT_FALSE(error_back->ok);
  EXPECT_EQ(error_back->error_code, "DeadlineExceeded");
  EXPECT_TRUE(error_back->retryable);
  EXPECT_EQ(error_back->flight, "{\"spans\":[]}");
}

TEST(WireBinaryTest, BinaryFramesRoundTrip) {
  const std::string payload = ValueToWireBinary(MakeFixtureBag());
  const std::string frame = EncodeFrame(WireFormat::kBinary, payload);
  size_t consumed = 0;
  auto decoded = DecodeFrame(frame, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->format, WireFormat::kBinary);
  EXPECT_EQ(decoded->payload, payload);
  // A frame cut mid-payload is retryable (read more), not poison.
  auto short_frame = DecodeFrame(frame.substr(0, frame.size() - 1), &consumed);
  ASSERT_FALSE(short_frame.ok());
  EXPECT_EQ(short_frame.status().code(), StatusCode::kUnavailable);
}

TEST(WireStreamerTest, ProducesExactlyTheMaterializedJson) {
  const Value fixture = MakeFixtureBag();
  const std::string expected =
      "{\"result\":" + ValueToWireJson(fixture) + ",\"ok\":true}";
  // Any budget must yield identical bytes — only the slicing differs.
  for (const size_t budget : {size_t{1}, size_t{7}, size_t{64}, size_t{1 << 20}}) {
    WireJsonStreamer streamer("{\"result\":", fixture, ",\"ok\":true}");
    std::string produced;
    size_t slices = 0;
    while (streamer.Produce(budget, &produced)) {
      ASSERT_LT(++slices, size_t{100000});
    }
    EXPECT_TRUE(streamer.done());
    EXPECT_EQ(produced, expected) << "budget=" << budget;
  }
}

// --------------------------------------------- server: event-loop paths

// A persistent-connection client: sends requests on one socket and parses
// Content-Length and chunked responses incrementally, like a real
// keep-alive peer.
class KeepAliveClient {
 public:
  explicit KeepAliveClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~KeepAliveClient() { Close(); }

  bool connected() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  static std::string Request(const std::string& method,
                             const std::string& path, const std::string& body,
                             const std::string& content_type =
                                 "application/json") {
    return method + " " + path + " HTTP/1.1\r\nHost: t\r\nContent-Type: " +
           content_type + "\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  bool Send(const std::string& bytes) { return WriteAll(fd_, bytes).ok(); }

  // Reads one full response (dechunking if needed). False on EOF or error.
  bool ReadResponse(ClientResponse* out) {
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!ReadMore()) return false;
    }
    const std::string head = buf_.substr(0, head_end + 4);
    out->status = std::atoi(head.c_str() + 9);
    std::string lower = head;
    for (char& ch : lower) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    const size_t body_start = head_end + 4;
    if (lower.find("transfer-encoding: chunked") != std::string::npos) {
      std::string body;
      size_t pos = body_start;
      while (true) {
        size_t line_end;
        while ((line_end = buf_.find("\r\n", pos)) == std::string::npos) {
          if (!ReadMore()) return false;
        }
        const size_t len = std::strtoul(buf_.c_str() + pos, nullptr, 16);
        pos = line_end + 2;
        while (buf_.size() < pos + len + 2) {
          if (!ReadMore()) return false;
        }
        if (len == 0) break;
        body.append(buf_, pos, len);
        pos += len + 2;
      }
      out->body = std::move(body);
      out->raw = buf_.substr(0, pos + 2);
      buf_.erase(0, pos + 2);
      return true;
    }
    size_t len = 0;
    const size_t cl = lower.find("content-length:");
    if (cl != std::string::npos) {
      len = std::strtoul(lower.c_str() + cl + 15, nullptr, 10);
    }
    while (buf_.size() < body_start + len) {
      if (!ReadMore()) return false;
    }
    out->body = buf_.substr(body_start, len);
    out->raw = buf_.substr(0, body_start + len);
    buf_.erase(0, body_start + len);
    return true;
  }

 private:
  bool ReadMore() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

TEST(ServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send(KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"ka","statement":"let X = {{a, a, b}}"})js")));
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200) << r.raw;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Send(KeepAliveClient::Request(
        "POST", "/v1/statement",
        R"js({"session":"ka","statement":"count X"})js")));
    ASSERT_TRUE(client.ReadResponse(&r)) << "request " << i;
    EXPECT_EQ(r.status, 200) << r.raw;
    EXPECT_NE(r.body.find("\"outcome\":\"ok\""), std::string::npos);
  }
  client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.keepalive_reuses, 4u);
}

TEST(ServerTest, PipelinedRequestsAnswerInOrder) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // Three requests in one write: the server must answer all three, in
  // order, on the one connection — statement, statement, inline GET.
  std::string burst;
  burst += KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"pipe","statement":"let X = {{a, a, b}}"})js");
  burst += KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"pipe","statement":"eval uplus(X, X)"})js");
  burst += KeepAliveClient::Request("GET", "/healthz", "");
  ASSERT_TRUE(client.Send(burst));

  ClientResponse first, second, third;
  ASSERT_TRUE(client.ReadResponse(&first));
  ASSERT_TRUE(client.ReadResponse(&second));
  ASSERT_TRUE(client.ReadResponse(&third));
  EXPECT_EQ(first.status, 200) << first.raw;
  EXPECT_NE(first.body.find("\"session\":\"pipe\""), std::string::npos);
  EXPECT_EQ(second.status, 200) << second.raw;
  EXPECT_NE(second.body.find("\"n\":\"4\""), std::string::npos);
  EXPECT_EQ(third.status, 200) << third.raw;
  EXPECT_NE(third.body.find("\"status\":\"serving\""), std::string::npos);
  client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_GE(stats.pipelined, 1u);
}

TEST(ServerTest, HalfClosedClientStillGetsItsResponse) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // shutdown(SHUT_WR) right after the request: the server sees EOF while
  // the statement executes, and must still deliver the response.
  ASSERT_TRUE(client.Send(KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"half","statement":"count '{{a, b}}"})js")));
  client.HalfClose();
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200) << r.raw;
  EXPECT_NE(r.body.find("\"outcome\":\"ok\""), std::string::npos);

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().io_errors, 0u);
}

TEST(ServerTest, Bag1BinaryStatementsSkipJsonBothWays) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  auto post_bag1 = [&](const std::string& statement,
                       WireStatementResponse* out) {
    WireStatementRequest request;
    request.session = "bin";
    request.statement = statement;
    const std::string body =
        EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(request));
    ASSERT_TRUE(client.Send(KeepAliveClient::Request(
        "POST", "/v1/statement", body, "application/x-bag1")));
    ClientResponse r;
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_EQ(r.status, 200) << r.raw;
    EXPECT_NE(r.raw.find("application/x-bag1"), std::string::npos);
    size_t consumed = 0;
    auto frame = DecodeFrame(r.body, &consumed);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->format, WireFormat::kBinary);
    EXPECT_EQ(consumed, r.body.size());
    auto decoded = DecodeStatementResponse(frame->payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    *out = std::move(*decoded);
  };

  WireStatementResponse let;
  // 2^64 as a literal multiplicity: the binary path must carry the exact
  // BigNat through uplus, where JSON doubles would have rounded.
  post_bag1("let X = {{a*18446744073709551616}}", &let);
  EXPECT_TRUE(let.ok);
  EXPECT_EQ(let.outcome, "ok");

  WireStatementResponse eval;
  post_bag1("eval uplus(X, X)", &eval);
  EXPECT_TRUE(eval.ok);
  ASSERT_TRUE(eval.has_result);
  ASSERT_TRUE(eval.result.IsBag());
  ASSERT_EQ(eval.result.bag().entries().size(), 1u);
  EXPECT_EQ(eval.result.bag().entries()[0].count.ToString(),
            "36893488147419103232");  // 2^65, exact

  // A truncated frame is a typed 400, and the connection survives it.
  WireStatementRequest request;
  request.session = "bin";
  request.statement = "count X";
  const std::string full =
      EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(request));
  const std::string cut = full.substr(0, full.size() - 2);
  ASSERT_TRUE(client.Send(KeepAliveClient::Request(
      "POST", "/v1/statement", cut, "application/x-bag1")));
  ClientResponse bad;
  ASSERT_TRUE(client.ReadResponse(&bad));
  EXPECT_EQ(bad.status, 400) << bad.raw;
  size_t consumed = 0;
  auto bad_frame = DecodeFrame(bad.body, &consumed);
  ASSERT_TRUE(bad_frame.ok()) << bad_frame.status();
  auto bad_resp = DecodeStatementResponse(bad_frame->payload);
  ASSERT_TRUE(bad_resp.ok()) << bad_resp.status();
  EXPECT_FALSE(bad_resp->ok);

  WireStatementResponse after;
  post_bag1("count X", &after);
  EXPECT_TRUE(after.ok);
  client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.bag1_requests, 4u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST(ServerTest, LargeResultsStreamChunked) {
  ServerOptions options;
  options.stream_entries_threshold = 4;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // pow({{a,b,c}}) has 8 distinct subbags — over the threshold of 4, so
  // the response must arrive chunked and still be byte-perfect JSON.
  ASSERT_TRUE(client.Send(KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"big","statement":"eval pow('{{a, b, c}})"})js")));
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200) << r.raw;
  EXPECT_NE(r.raw.find("Transfer-Encoding: chunked"), std::string::npos);
  auto doc = ParseJson(r.body);
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << r.body;
  const JsonValue* result = doc->Find("result");
  ASSERT_NE(result, nullptr);
  auto value = WireJsonToValue(*result);
  ASSERT_TRUE(value.ok()) << value.status();
  ASSERT_TRUE(value->IsBag());
  EXPECT_EQ(value->bag().entries().size(), 8u);

  // The connection re-arms after a chunked response: keep-alive holds.
  ASSERT_TRUE(client.Send(KeepAliveClient::Request("GET", "/healthz", "")));
  ClientResponse next;
  ASSERT_TRUE(client.ReadResponse(&next));
  EXPECT_EQ(next.status, 200);
  client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().streamed_responses, 1u);
}

TEST(ServerTest, EpollMetricsAreExposed) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port, R"js({"session":"m","statement":"count '{{a}}"})js");
  auto metrics = Fetch(port, "GET", "/metrics", "");
  EXPECT_EQ(metrics.status, 200);
  for (const char* name :
       {"bagalg_server_epoll_fds", "bagalg_server_epoll_ready_depth",
        "bagalg_server_epoll_loop_iter_us", "bagalg_server_conn_state_reading",
        "bagalg_server_conn_state_executing",
        "bagalg_server_conn_state_writing",
        "bagalg_server_http_keepalive_reuses_total",
        "bagalg_server_http_pipelined_total",
        "bagalg_server_wire_bag1_requests_total"}) {
    EXPECT_NE(metrics.body.find(name), std::string::npos) << name;
  }
  // The loop registers at least the listener + wakeup fd.
  EXPECT_GE((*server)->stats().epoll_fds, 2u);

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, SurvivesInjectedIoFaults) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  fault::FaultSpec spec;
  spec.point = fault::FaultPoint::kIo;
  spec.probability = 0.05;
  spec.seed = 1234;
  fault::Configure(spec);
  int ok = 0, torn = 0;
  for (int i = 0; i < 40; ++i) {
    auto r = PostStatement(
        port, R"js({"session":"chaos","statement":"count '{{a, b}}"})js");
    // Either the statement answered, or injected io tore the connection —
    // nothing in between, and never a hang or crash.
    if (r.status == 200) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, 0) << r.raw;
      ++torn;
    }
  }
  fault::Disarm();

  // The server is intact after the storm.
  auto after = PostStatement(
      port, R"js({"session":"chaos","statement":"count '{{a, b}}"})js");
  EXPECT_EQ(after.status, 200) << after.raw;
  EXPECT_GT(ok, 0);

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, ConcurrentKeepAliveSessions) {
  ServerOptions options;
  options.executors = 4;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  constexpr int kClients = 16;
  constexpr int kPerClient = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0}, unexpected{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      KeepAliveClient client(port);
      if (!client.connected()) {
        unexpected.fetch_add(kPerClient);
        return;
      }
      const std::string session = "kas" + std::to_string(t);
      for (int i = 0; i < kPerClient; ++i) {
        if (!client.Send(KeepAliveClient::Request(
                "POST", "/v1/statement",
                "{\"session\":\"" + session +
                    "\",\"statement\":\"count pow('{{a,b,c}})\"}"))) {
          unexpected.fetch_add(1);
          continue;
        }
        ClientResponse r;
        if (client.ReadResponse(&r) && r.status == 200) {
          ok.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(ok.load(), kClients * kPerClient);

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.keepalive_reuses,
            static_cast<uint64_t>(kClients * (kPerClient - 1)));
}

}  // namespace
}  // namespace bagalg::net
