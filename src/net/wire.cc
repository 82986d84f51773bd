#include "src/net/wire.h"

#include <cstring>
#include <limits>
#include <utility>

#include "src/lang/parser.h"
#include "src/net/json_reader.h"
#include "src/obs/json.h"

namespace bagalg::net {

namespace {

/// Appends `text` as a quoted, escaped JSON string.
void AppendQuoted(std::string_view text, std::string* out) {
  out->push_back('"');
  obs::AppendJsonEscaped(out, text);
  out->push_back('"');
}

void PutU32Le(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64Le(uint64_t v, std::string* out) {
  PutU32Le(static_cast<uint32_t>(v & 0xFFFFFFFFu), out);
  PutU32Le(static_cast<uint32_t>(v >> 32), out);
}

uint32_t GetU32Le(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

// ---------------------------------------------------------- binary shape

constexpr uint8_t kTagAtom = 0x01;
constexpr uint8_t kTagTuple = 0x02;
constexpr uint8_t kTagBag = 0x03;
constexpr uint8_t kMultU64 = 0x00;
constexpr uint8_t kMultDecimal = 0x01;

void PutStr(std::string_view s, std::string* out) {
  PutU32Le(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void PutMult(const Mult& count, std::string* out) {
  if (count.FitsUint64()) {
    out->push_back(static_cast<char>(kMultU64));
    PutU64Le(count.ToUint64().value(), out);
  } else {
    out->push_back(static_cast<char>(kMultDecimal));
    PutStr(count.ToString(), out);
  }
}

void PutValueBinary(const Value& value, const AtomTable& table,
                    std::string* out) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      out->push_back(static_cast<char>(kTagAtom));
      PutStr(table.NameOf(value.atom_id()), out);
      return;
    case Value::Kind::kTuple: {
      out->push_back(static_cast<char>(kTagTuple));
      PutU32Le(static_cast<uint32_t>(value.fields().size()), out);
      for (const Value& field : value.fields()) {
        PutValueBinary(field, table, out);
      }
      return;
    }
    case Value::Kind::kBag: {
      const Bag& bag = value.bag();
      out->push_back(static_cast<char>(kTagBag));
      PutStr(bag.element_type().ToString(), out);
      PutU64Le(static_cast<uint64_t>(bag.entries().size()), out);
      for (const BagEntry& entry : bag.entries()) {
        PutValueBinary(entry.value, table, out);
        PutMult(entry.count, out);
      }
      return;
    }
  }
}

/// Cursor over untrusted bytes: every Get checks the remainder first, so a
/// hostile length can never size a read past the buffer.
class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Truncated();
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  Result<uint32_t> GetU32() {
    if (remaining() < 4) return Truncated();
    const uint32_t v = GetU32Le(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  Result<uint64_t> GetU64() {
    BAGALG_ASSIGN_OR_RETURN(uint32_t lo, GetU32());
    BAGALG_ASSIGN_OR_RETURN(uint32_t hi, GetU32());
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }

  Result<std::string_view> GetStr() {
    BAGALG_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    if (remaining() < len) return Truncated();
    const std::string_view s = bytes_.substr(pos_, len);
    pos_ += len;
    return s;
  }

 private:
  static Status Truncated() {
    return Status::ParseError("wire: truncated binary value");
  }
  std::string_view bytes_;
  size_t pos_ = 0;
};

Result<Mult> GetMult(BinReader* in) {
  BAGALG_ASSIGN_OR_RETURN(uint8_t kind, in->GetU8());
  switch (kind) {
    case kMultU64: {
      BAGALG_ASSIGN_OR_RETURN(uint64_t v, in->GetU64());
      return Mult(v);
    }
    case kMultDecimal: {
      BAGALG_ASSIGN_OR_RETURN(std::string_view text, in->GetStr());
      return BigNat::FromDecimal(text);
    }
    default:
      return Status::ParseError("wire: unknown multiplicity kind " +
                                std::to_string(kind));
  }
}

Result<Value> GetValueBinary(BinReader* in, AtomTable* table, int depth) {
  if (depth > kMaxWireDepth) {
    return Status::ParseError("wire: value nests deeper than " +
                              std::to_string(kMaxWireDepth));
  }
  BAGALG_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  switch (tag) {
    case kTagAtom: {
      BAGALG_ASSIGN_OR_RETURN(std::string_view name, in->GetStr());
      if (name.empty()) {
        return Status::ParseError("wire: empty atom name");
      }
      return Value::Atom(table->Intern(name));
    }
    case kTagTuple: {
      BAGALG_ASSIGN_OR_RETURN(uint32_t arity, in->GetU32());
      // Each field needs at least a tag byte, so the remainder bounds the
      // honest arity — reject before reserving attacker-sized vectors.
      if (arity > in->remaining()) {
        return Status::ParseError("wire: tuple arity exceeds payload");
      }
      std::vector<Value> fields;
      fields.reserve(arity);
      for (uint32_t i = 0; i < arity; ++i) {
        BAGALG_ASSIGN_OR_RETURN(Value field,
                                GetValueBinary(in, table, depth + 1));
        fields.push_back(std::move(field));
      }
      return Value::Tuple(std::move(fields));
    }
    case kTagBag: {
      BAGALG_ASSIGN_OR_RETURN(std::string_view type_text, in->GetStr());
      BAGALG_ASSIGN_OR_RETURN(Type element_type,
                              lang::ParseType(type_text));
      BAGALG_ASSIGN_OR_RETURN(uint64_t count, in->GetU64());
      // Each entry is at least a tag byte plus a multiplicity kind byte.
      if (count > in->remaining()) {
        return Status::ParseError("wire: bag entry count exceeds payload");
      }
      Bag::Builder builder{std::move(element_type)};
      builder.Reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        BAGALG_ASSIGN_OR_RETURN(Value element,
                                GetValueBinary(in, table, depth + 1));
        BAGALG_ASSIGN_OR_RETURN(Mult mult, GetMult(in));
        builder.Add(std::move(element), std::move(mult));
      }
      // Builder re-canonicalizes and type-checks: a peer that sends
      // duplicates, misordered entries, or ill-typed elements gets a
      // well-formed bag or a typed error, never a corrupt canonical form.
      BAGALG_ASSIGN_OR_RETURN(Bag bag, std::move(builder).Build());
      return Value::FromBag(std::move(bag));
    }
    default:
      return Status::ParseError("wire: unknown value tag " +
                                std::to_string(tag));
  }
}

// ------------------------------------------------------------ JSON shape

Result<Value> JsonToValue(const JsonValue& json, AtomTable* table,
                          int depth) {
  if (depth > kMaxWireDepth) {
    return Status::ParseError("wire: value nests deeper than " +
                              std::to_string(kMaxWireDepth));
  }
  if (!json.is_object()) {
    return Status::ParseError("wire: value must be a JSON object");
  }
  if (const JsonValue* atom = json.Find("atom"); atom != nullptr) {
    if (!atom->is_string() || atom->string.empty()) {
      return Status::ParseError("wire: \"atom\" must be a nonempty string");
    }
    return Value::Atom(table->Intern(atom->string));
  }
  if (const JsonValue* tuple = json.Find("tuple"); tuple != nullptr) {
    if (tuple->kind != JsonValue::Kind::kArray) {
      return Status::ParseError("wire: \"tuple\" must be an array");
    }
    std::vector<Value> fields;
    fields.reserve(tuple->items.size());
    for (const JsonValue& item : tuple->items) {
      BAGALG_ASSIGN_OR_RETURN(Value field,
                              JsonToValue(item, table, depth + 1));
      fields.push_back(std::move(field));
    }
    return Value::Tuple(std::move(fields));
  }
  if (const JsonValue* bag = json.Find("bag"); bag != nullptr) {
    if (!bag->is_object()) {
      return Status::ParseError("wire: \"bag\" must be an object");
    }
    const std::string type_text = bag->GetString("type", "{{_}}");
    BAGALG_ASSIGN_OR_RETURN(Type bag_type, lang::ParseType(type_text));
    if (bag_type.kind() != Type::Kind::kBag) {
      return Status::ParseError("wire: bag \"type\" must be a bag type");
    }
    const JsonValue* entries = bag->Find("entries");
    if (entries == nullptr || entries->kind != JsonValue::Kind::kArray) {
      return Status::ParseError("wire: bag \"entries\" must be an array");
    }
    Bag::Builder builder{bag_type.element()};
    builder.Reserve(entries->items.size());
    for (const JsonValue& entry : entries->items) {
      if (!entry.is_object()) {
        return Status::ParseError("wire: bag entry must be an object");
      }
      const JsonValue* v = entry.Find("v");
      const JsonValue* n = entry.Find("n");
      if (v == nullptr || n == nullptr || !n->is_string()) {
        return Status::ParseError(
            "wire: bag entry needs \"v\" and string \"n\"");
      }
      BAGALG_ASSIGN_OR_RETURN(Value element, JsonToValue(*v, table, depth + 1));
      BAGALG_ASSIGN_OR_RETURN(Mult mult, BigNat::FromDecimal(n->string));
      builder.Add(std::move(element), std::move(mult));
    }
    BAGALG_ASSIGN_OR_RETURN(Bag rebuilt, std::move(builder).Build());
    return Value::FromBag(std::move(rebuilt));
  }
  return Status::ParseError(
      "wire: expected one of \"atom\", \"tuple\", \"bag\"");
}

AtomTable* TableOrGlobal(AtomTable* table) {
  return table != nullptr ? table : &GlobalAtomTable();
}

}  // namespace

std::string ValueToWireJson(const Value& value, const AtomTable* table) {
  std::string out;
  WireJsonStreamer streamer("", value, "", table);
  while (streamer.Produce(std::numeric_limits<size_t>::max(), &out)) {
  }
  return out;
}

Result<Value> WireJsonToValue(const JsonValue& json, AtomTable* table) {
  return JsonToValue(json, TableOrGlobal(table), 0);
}

Result<Value> WireJsonToValue(std::string_view json_text, AtomTable* table) {
  BAGALG_ASSIGN_OR_RETURN(JsonValue json, ParseJson(json_text));
  return WireJsonToValue(json, table);
}

std::string ValueToWireBinary(const Value& value, const AtomTable* table) {
  std::string out;
  PutValueBinary(value, table != nullptr ? *table : GlobalAtomTable(), &out);
  return out;
}

Result<Value> WireBinaryToValue(std::string_view bytes, AtomTable* table) {
  BinReader in(bytes);
  BAGALG_ASSIGN_OR_RETURN(Value value,
                          GetValueBinary(&in, TableOrGlobal(table), 0));
  if (in.remaining() != 0) {
    return Status::ParseError("wire: " + std::to_string(in.remaining()) +
                              " trailing bytes after binary value");
  }
  return value;
}

std::string EncodeFrame(WireFormat format, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic, sizeof(kFrameMagic));
  out.push_back(static_cast<char>(kFrameVersion));
  out.push_back(static_cast<char>(format));
  out.push_back('\0');  // reserved
  out.push_back('\0');  // reserved
  PutU32Le(static_cast<uint32_t>(payload.size()), &out);
  out.append(payload);
  return out;
}

Result<DecodedFrame> DecodeFrame(std::string_view bytes, size_t* consumed) {
  *consumed = 0;
  if (bytes.size() < kFrameHeaderBytes) {
    // Could still become a valid frame; but a wrong magic is detectable
    // from the very first bytes — fail fast instead of buffering garbage.
    const size_t have = std::min(bytes.size(), sizeof(kFrameMagic));
    if (std::memcmp(bytes.data(), kFrameMagic, have) != 0) {
      return Status::ParseError("wire: bad frame magic");
    }
    return Status::Unavailable("wire: short frame header");
  }
  if (std::memcmp(bytes.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::ParseError("wire: bad frame magic");
  }
  const auto version = static_cast<uint8_t>(bytes[4]);
  if (version != kFrameVersion) {
    return Status::ParseError("wire: unsupported frame version " +
                              std::to_string(version));
  }
  const auto format = static_cast<uint8_t>(bytes[5]);
  if (format != static_cast<uint8_t>(WireFormat::kJson) &&
      format != static_cast<uint8_t>(WireFormat::kBinary)) {
    return Status::ParseError("wire: unknown format tag " +
                              std::to_string(format));
  }
  const uint32_t length = GetU32Le(bytes.data() + 8);
  if (length > kMaxFrameBytes) {
    return Status::ParseError("wire: frame length " + std::to_string(length) +
                              " exceeds cap");
  }
  if (bytes.size() < kFrameHeaderBytes + length) {
    return Status::Unavailable("wire: short frame payload");
  }
  DecodedFrame frame;
  frame.format = static_cast<WireFormat>(format);
  frame.payload.assign(bytes.substr(kFrameHeaderBytes, length));
  *consumed = kFrameHeaderBytes + length;
  return frame;
}

// ------------------------------------------- binary statement envelopes

std::string EncodeStatementRequest(const WireStatementRequest& request) {
  std::string out;
  out.reserve(24 + request.session.size() + request.statement.size());
  PutStr(request.session, &out);
  PutStr(request.statement, &out);
  PutU64Le(request.timeout_ms, &out);
  PutU64Le(request.memlimit_bytes, &out);
  return out;
}

Result<WireStatementRequest> DecodeStatementRequest(std::string_view bytes) {
  BinReader in(bytes);
  WireStatementRequest request;
  BAGALG_ASSIGN_OR_RETURN(std::string_view session, in.GetStr());
  request.session.assign(session);
  BAGALG_ASSIGN_OR_RETURN(std::string_view statement, in.GetStr());
  request.statement.assign(statement);
  BAGALG_ASSIGN_OR_RETURN(request.timeout_ms, in.GetU64());
  BAGALG_ASSIGN_OR_RETURN(request.memlimit_bytes, in.GetU64());
  if (in.remaining() != 0) {
    return Status::ParseError("wire: trailing bytes after request envelope");
  }
  return request;
}

std::string EncodeStatementResponse(const WireStatementResponse& response,
                                    const AtomTable* table) {
  std::string out;
  out.push_back(response.ok ? '\x01' : '\x00');
  PutStr(response.outcome, &out);
  PutStr(response.output, &out);
  PutU64Le(response.wall_us, &out);
  out.push_back(response.has_result ? '\x01' : '\x00');
  if (response.has_result) {
    PutValueBinary(response.result,
                   table != nullptr ? *table : GlobalAtomTable(), &out);
  }
  PutStr(response.error_code, &out);
  PutStr(response.error_message, &out);
  out.push_back(response.retryable ? '\x01' : '\x00');
  PutStr(response.flight, &out);
  return out;
}

Result<WireStatementResponse> DecodeStatementResponse(std::string_view bytes,
                                                      AtomTable* table) {
  BinReader in(bytes);
  WireStatementResponse response;
  BAGALG_ASSIGN_OR_RETURN(uint8_t ok, in.GetU8());
  response.ok = ok != 0;
  BAGALG_ASSIGN_OR_RETURN(std::string_view outcome, in.GetStr());
  response.outcome.assign(outcome);
  BAGALG_ASSIGN_OR_RETURN(std::string_view output, in.GetStr());
  response.output.assign(output);
  BAGALG_ASSIGN_OR_RETURN(response.wall_us, in.GetU64());
  BAGALG_ASSIGN_OR_RETURN(uint8_t has_result, in.GetU8());
  response.has_result = has_result != 0;
  if (response.has_result) {
    BAGALG_ASSIGN_OR_RETURN(
        response.result, GetValueBinary(&in, TableOrGlobal(table), 0));
  }
  BAGALG_ASSIGN_OR_RETURN(std::string_view code, in.GetStr());
  response.error_code.assign(code);
  BAGALG_ASSIGN_OR_RETURN(std::string_view message, in.GetStr());
  response.error_message.assign(message);
  BAGALG_ASSIGN_OR_RETURN(uint8_t retryable, in.GetU8());
  response.retryable = retryable != 0;
  BAGALG_ASSIGN_OR_RETURN(std::string_view flight, in.GetStr());
  response.flight.assign(flight);
  if (in.remaining() != 0) {
    return Status::ParseError("wire: trailing bytes after response envelope");
  }
  return response;
}

// -------------------------------------------------- streaming JSON bodies

WireJsonStreamer::WireJsonStreamer(std::string prefix,
                                   std::optional<Value> value,
                                   std::string suffix,
                                   const AtomTable* table)
    : prefix_(std::move(prefix)),
      root_(std::move(value)),
      suffix_(std::move(suffix)),
      table_(table != nullptr ? table : &GlobalAtomTable()) {}

void WireJsonStreamer::WriteFlat(const Value& value, std::string* out) const {
  if (value.IsAtom()) {
    out->append("{\"atom\":");
    AppendQuoted(table_->NameOf(value.atom_id()), out);
    out->push_back('}');
    return;
  }
  out->append("{\"tuple\":[");
  bool first = true;
  for (const Value& field : value.fields()) {
    if (!first) out->push_back(',');
    first = false;
    WriteFlat(field, out);
  }
  out->append("]}");
}

void WireJsonStreamer::OpenValue(const Value& value, std::string* out) {
  if (value.type().BagNesting() == 0) {
    WriteFlat(value, out);
    return;
  }
  if (value.IsTuple()) {
    out->append("{\"tuple\":[");
    stack_.push_back(Frame{Frame::Kind::kTuple, &value, nullptr, nullptr, 0});
    return;
  }
  out->append("{\"bag\":{\"type\":");
  AppendQuoted(value.bag().type().ToString(), out);
  out->append(",\"entries\":[");
  stack_.push_back(Frame{Frame::Kind::kBag, nullptr, &value.bag(), nullptr, 0});
}

void WireJsonStreamer::Step(size_t limit, std::string* out) {
  switch (stage_) {
    case Stage::kPrefix:
      out->append(prefix_);
      prefix_.clear();
      stage_ = Stage::kValue;
      pending_ = root_.has_value() ? &*root_ : nullptr;
      return;
    case Stage::kValue:
      break;
    case Stage::kSuffix:
      out->append(suffix_);
      suffix_.clear();
      stage_ = Stage::kDone;
      return;
    case Stage::kDone:
      return;
  }

  if (pending_ != nullptr) {
    const Value& value = *pending_;
    pending_ = nullptr;
    OpenValue(value, out);
    return;
  }
  if (stack_.empty()) {
    stage_ = Stage::kSuffix;
    return;
  }
  Frame& top = stack_.back();
  switch (top.kind) {
    case Frame::Kind::kTuple: {
      const std::vector<Value>& fields = top.container->fields();
      if (top.index < fields.size()) {
        if (top.index > 0) out->push_back(',');
        pending_ = &fields[top.index++];
      } else {
        out->append("]}");
        stack_.pop_back();
      }
      return;
    }
    case Frame::Kind::kBag: {
      const std::vector<BagEntry>& entries = top.bag->entries();
      // Entries with no bag inside go out whole, as many as fit the slice.
      while (top.index < entries.size() &&
             entries[top.index].value.type().BagNesting() == 0) {
        const BagEntry& entry = entries[top.index];
        if (top.index++ > 0) out->push_back(',');
        out->append("{\"v\":");
        WriteFlat(entry.value, out);
        out->append(",\"n\":\"");
        out->append(entry.count.ToString());
        out->append("\"}");
        if (out->size() >= limit) return;
      }
      if (top.index < entries.size()) {
        if (top.index > 0) out->push_back(',');
        const BagEntry& entry = entries[top.index++];
        out->append("{\"v\":");
        stack_.push_back(
            Frame{Frame::Kind::kBagEntry, nullptr, nullptr, &entry, 0});
        pending_ = &entry.value;
      } else {
        out->append("]}}");
        stack_.pop_back();
      }
      return;
    }
    case Frame::Kind::kBagEntry: {
      out->append(",\"n\":\"");
      out->append(top.entry->count.ToString());
      out->append("\"}");
      stack_.pop_back();
      return;
    }
  }
}

bool WireJsonStreamer::Produce(size_t budget, std::string* out) {
  const size_t start = out->size();
  const size_t limit = budget > std::numeric_limits<size_t>::max() - start
                           ? std::numeric_limits<size_t>::max()
                           : start + budget;
  while (stage_ != Stage::kDone &&
         (out->size() < limit || out->size() == start)) {
    Step(limit, out);
  }
  return stage_ != Stage::kDone;
}

}  // namespace bagalg::net
