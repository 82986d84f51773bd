#ifndef BAGALG_NET_HTTP_H_
#define BAGALG_NET_HTTP_H_

/// \file http.h
/// A deliberately small HTTP/1.1 server-side implementation: exactly what
/// bagalgd needs — request parsing with hard caps, keep-alive with
/// pipelining, chunked response emission for streamed bodies — and nothing
/// it does not (no request-side chunked bodies, no TLS, no multipart).
/// Every limit violation and malformation is a typed Status, and the reader
/// records which HTTP status answers it (400, 413 or 431), so the connection
/// loop never guesses.
///
/// The parser is an *incremental* state machine (HttpReader): the epoll
/// connection layer feeds it whatever bytes recv produced and asks for
/// complete requests. Bytes after a parsed body — the next pipelined
/// request — stay buffered for the following Next() call; they are never
/// dropped, and they never count against the next request's header cap
/// until they are that request's header bytes.
///
/// Also home of the StatusCode → HTTP status mapping, the outward face of
/// the retryability contract in src/util/status.h: retryable codes map to
/// statuses clients treat as transient (429/499/503/504), permanent codes
/// to 4xx/5xx they must not blindly retry.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/result.h"

namespace bagalg::net {

struct HttpLimits {
  /// Cap on the request line + headers block. Exceeding it is a 431-shaped
  /// kResourceExhausted.
  size_t max_header_bytes = 16 * 1024;
  /// Cap on Content-Length. Exceeding it is a 413-shaped
  /// kResourceExhausted; a statement this large is an attack, not a query.
  size_t max_body_bytes = 1024 * 1024;
};

struct HttpRequest {
  std::string method;  // uppercase as sent: GET, POST, ...
  std::string path;    // target up to '?'
  std::string query;   // after '?', possibly empty
  /// True for HTTP/1.1 (keep-alive by default); false for HTTP/1.0
  /// (bagalgd answers 1.0 clients and closes — no 1.0 keep-alive).
  bool http11 = true;
  /// Header names lowercased; last occurrence wins.
  std::map<std::string, std::string> headers;
  std::string body;
};

/// True when the connection must close after answering `request`:
/// an explicit "Connection: close", or an HTTP/1.0 client.
bool RequestWantsClose(const HttpRequest& request);

/// Incremental request parser: feed bytes as they arrive, pull complete
/// requests. One reader per connection; state persists across requests so
/// keep-alive pipelining works regardless of how recv chunks the stream.
class HttpReader {
 public:
  HttpReader() = default;
  explicit HttpReader(HttpLimits limits) : limits_(limits) {}

  /// Appends raw bytes received from the socket.
  void Feed(std::string_view bytes);

  /// Tries to extract the next complete request.
  ///   ok(true)   *out holds the request; trailing pipelined bytes remain
  ///              buffered for the next call.
  ///   ok(false)  more bytes are needed (call Feed, then Next again).
  ///   error      kParseError (400), kResourceExhausted (431/413) — the
  ///              connection is poisoned; answer with error_status() and
  ///              close.
  Result<bool> Next(HttpRequest* out);

  /// The HTTP status answering the error Next() returned: 431 when the
  /// header cap tripped, 413 when the body cap did, 400 for a malformed
  /// request.
  int error_status() const { return error_status_; }

  /// Unconsumed byte count (partial request and/or pipelined followers).
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

  /// True while a parsed request head is waiting for its body bytes —
  /// an EOF here means the peer vanished mid-request, not a clean close.
  bool mid_request() const { return have_head_; }

 private:
  HttpLimits limits_;
  std::string buffer_;
  size_t pos_ = 0;   // start of the current unparsed request
  size_t scan_ = 0;  // high-water mark of the head-terminator search
  bool have_head_ = false;
  HttpRequest pending_;    // parsed head awaiting body bytes
  size_t body_start_ = 0;  // absolute offset of the pending body
  size_t body_len_ = 0;
  int error_status_ = 400;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string body;
  /// Sends "Connection: close" and ends the connection after this response.
  bool close = false;
};

/// Serializes `response` into on-the-wire bytes (Content-Length framing).
std::string FormatHttpResponse(const HttpResponse& response);

/// Serializes only the status line + headers. With `chunked` the response
/// uses Transfer-Encoding: chunked and the body must follow as
/// AppendHttpChunk calls closed by AppendHttpLastChunk; otherwise a
/// Content-Length of `content_length` is emitted and the caller sends
/// exactly that many body bytes.
std::string FormatHttpResponseHead(const HttpResponse& response, bool chunked,
                                   size_t content_length);

/// Appends one chunked-transfer chunk (no-op for empty `data`: an empty
/// chunk would terminate the stream).
void AppendHttpChunk(std::string_view data, std::string* out);
/// Appends the stream-terminating zero chunk.
void AppendHttpLastChunk(std::string* out);

/// Canonical reason phrase for the statuses bagalgd emits.
const char* HttpReasonPhrase(int status);

/// StatusCode → HTTP status. kUnavailable maps to 503; the admission queue
/// uses 429 directly for shed (same retryable class, more precise signal).
int HttpStatusForCode(StatusCode code);

}  // namespace bagalg::net

#endif  // BAGALG_NET_HTTP_H_
