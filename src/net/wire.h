#ifndef BAGALG_NET_WIRE_H_
#define BAGALG_NET_WIRE_H_

/// \file wire.h
/// Wire serialization for complex-object values: the JSON shape, the BAG1
/// binary shape, framing, and the statement envelopes built from them.
///
/// The JSON shape (format tag kJson), chosen over the REPL's printable
/// syntax because a client should never have to re-parse `'{{a: 3}}`:
///
///   atom   {"atom": "a"}
///   tuple  {"tuple": [v, v, ...]}
///   bag    {"bag": {"type": "{{U}}", "entries": [{"v": v, "n": "3"}, ...]}}
///
/// Multiplicities travel as *decimal strings* ("n"), never JSON numbers:
/// iterated powerset chains push counts far past 2^53, where every JSON
/// number representation silently corrupts. Entries arrive in canonical
/// order (sorted, distinct, positive), so a client can compare payloads
/// byte-wise.
///
/// The binary shape (format tag kBinary) skips JSON entirely. All integers
/// are little-endian; strings are u32 length + raw bytes:
///
///   value := 0x01 str(atom-name)
///          | 0x02 u32(arity) value*
///          | 0x03 str(element-type rendering) u64(entry-count)
///                 (value mult)*
///   mult  := 0x00 u64             -- fits uint64 (the common case)
///          | 0x01 str(decimal)    -- BigNat past 2^64, exact
///
/// The element-type string is Type::ToString output and is re-parsed with
/// lang::ParseType on decode, so untyped empty bags ("_") round-trip.
/// Decoding is defensive: depth-capped, every length checked against the
/// remaining bytes before it sizes an allocation, and bags are rebuilt
/// through Bag::Builder so a hostile peer cannot smuggle a non-canonical
/// bag into the engine.
///
/// A framing layer wraps payloads: a 12-byte header — magic "BAG1",
/// version, format tag, reserved pad, u32 little-endian payload length.
/// bagalgd uses frames as the body encoding of the binary statement
/// protocol (Content-Type: application/x-bag1): the request body is one
/// frame holding an encoded WireStatementRequest, the response body one
/// frame holding an encoded WireStatementResponse.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/value.h"
#include "src/util/result.h"

namespace bagalg::net {

class JsonValue;

/// Serializes a value into the wire JSON described above by draining one
/// WireJsonStreamer. `table` resolves atom names (defaults to the global
/// table).
std::string ValueToWireJson(const Value& value,
                            const AtomTable* table = nullptr);

/// Decodes a parsed wire-JSON document back into a Value. Atom names are
/// interned into `table` (the global table if null). Exact inverse of
/// ValueToWireJson: multiplicity strings round-trip through BigNat, so
/// counts past 2^64 survive; unknown shapes are kParseError.
Result<Value> WireJsonToValue(const JsonValue& json,
                              AtomTable* table = nullptr);
/// Convenience overload: parses `json_text` first.
Result<Value> WireJsonToValue(std::string_view json_text,
                              AtomTable* table = nullptr);

/// Serializes a value into the BAG1 binary shape described above.
std::string ValueToWireBinary(const Value& value,
                              const AtomTable* table = nullptr);

/// Decodes a binary-shape value. The whole of `bytes` must be consumed.
/// Defensive against hostile input: kParseError on truncation, trailing
/// bytes, unknown tags, nesting past kMaxWireDepth, or a type string
/// lang::ParseType rejects.
Result<Value> WireBinaryToValue(std::string_view bytes,
                                AtomTable* table = nullptr);

/// Nesting bound for binary decode, mirroring kMaxJsonDepth: recursion
/// depth must never be attacker-controlled.
inline constexpr int kMaxWireDepth = 32;

// ------------------------------------------------------------- framing

enum class WireFormat : uint8_t {
  kJson = 1,
  kBinary = 2,
};

inline constexpr char kFrameMagic[4] = {'B', 'A', 'G', '1'};
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Frames larger than this are refused on decode — a length-prefixed
/// protocol must never let the prefix size an allocation unchecked.
inline constexpr size_t kMaxFrameBytes = 64u << 20;

/// Wraps `payload` in a frame header.
std::string EncodeFrame(WireFormat format, std::string_view payload);

struct DecodedFrame {
  WireFormat format;
  std::string payload;
};

/// Decodes one frame from the front of `bytes`.
///   - Complete frame: returns it; *consumed = header + payload size.
///   - Prefix of a valid frame: kUnavailable ("short frame"), *consumed = 0
///     — the caller should read more bytes and retry.
///   - Anything else (bad magic/version/format, oversized length):
///     kParseError; the connection is unrecoverable.
Result<DecodedFrame> DecodeFrame(std::string_view bytes, size_t* consumed);

// ------------------------------------------- binary statement envelopes

/// The binary form of the POST /v1/statement request body (the JSON path's
/// {"session","statement","timeout_ms","memlimit_bytes"} object). Zero
/// timeout/memlimit means "server default", exactly like omitting the JSON
/// field.
struct WireStatementRequest {
  std::string session;
  std::string statement;
  uint64_t timeout_ms = 0;
  uint64_t memlimit_bytes = 0;
};

std::string EncodeStatementRequest(const WireStatementRequest& request);
Result<WireStatementRequest> DecodeStatementRequest(std::string_view bytes);

/// The binary form of the statement response envelope. `result` is
/// meaningful only when has_result; `error_*` only when !ok. `flight` is
/// the flight-recorder dump verbatim (JSON text — diagnostics stay
/// greppable even on the binary path).
struct WireStatementResponse {
  bool ok = false;
  std::string outcome;
  std::string output;
  uint64_t wall_us = 0;
  bool has_result = false;
  Value result;
  std::string error_code;
  std::string error_message;
  bool retryable = false;
  std::string flight;
};

std::string EncodeStatementResponse(const WireStatementResponse& response,
                                    const AtomTable* table = nullptr);
Result<WireStatementResponse> DecodeStatementResponse(
    std::string_view bytes, AtomTable* table = nullptr);

// -------------------------------------------------- streaming JSON bodies

/// Resumable wire-JSON serializer: the one JSON value encoder. bagalgd
/// renders every JSON reply through it, and ValueToWireJson drains one.
///
/// A powerset result can serialize to tens of megabytes; materializing that
/// next to a slow client would let one reader hold the peak. The streamer
/// instead holds the Value (an O(1) shared-tree copy) plus an explicit
/// cursor stack, and emits the envelope prefix, the value's wire JSON, and
/// the suffix in caller-bounded slices — the event loop pulls exactly as
/// much as its write buffer's low-water mark allows and lets EPOLLOUT
/// backpressure pace the rest.
///
/// The cursor is type-directed: a value with no bag inside (bag nesting 0,
/// paper §2) is written whole, so a bag of such entries goes out in a tight
/// loop of whole entries up to the slice budget. Only values with a bag
/// inside are walked one token at a time on the cursor stack, which keeps
/// memory bounded for nested powerset results.
class WireJsonStreamer {
 public:
  /// Streams `prefix`, the wire JSON of `value` if there is one, and
  /// `suffix`.
  WireJsonStreamer(std::string prefix, std::optional<Value> value,
                   std::string suffix, const AtomTable* table = nullptr);
  // The cursor stack points into root_.
  WireJsonStreamer(const WireJsonStreamer&) = delete;
  WireJsonStreamer& operator=(const WireJsonStreamer&) = delete;

  /// Appends at least one serialization step and at most ~`budget` bytes
  /// (may overshoot by one token or one whole bag entry: neither is ever
  /// split). Returns true while more output remains, false once the suffix
  /// has been emitted.
  bool Produce(size_t budget, std::string* out);

  bool done() const { return stage_ == Stage::kDone; }

 private:
  enum class Stage : uint8_t { kPrefix, kValue, kSuffix, kDone };
  struct Frame {
    enum class Kind : uint8_t { kTuple, kBag, kBagEntry } kind;
    const Value* container = nullptr;   // kTuple
    const Bag* bag = nullptr;           // kBag
    const BagEntry* entry = nullptr;    // kBagEntry
    size_t index = 0;
  };

  /// Emits one step: a token, or whole flat bag entries until `out` reaches
  /// `limit` bytes.
  void Step(size_t limit, std::string* out);
  void OpenValue(const Value& value, std::string* out);
  /// Writes a value with no bag inside (atoms and tuples only) whole.
  void WriteFlat(const Value& value, std::string* out) const;

  std::string prefix_;
  std::optional<Value> root_;  // owns the shared tree; frames alias into it
  std::string suffix_;
  const AtomTable* table_;
  Stage stage_ = Stage::kPrefix;
  const Value* pending_ = nullptr;
  std::vector<Frame> stack_;
};

}  // namespace bagalg::net

#endif  // BAGALG_NET_WIRE_H_
