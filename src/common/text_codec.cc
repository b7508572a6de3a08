#include "src/common/text_codec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "src/common/logging.h"

namespace silod {
namespace {

bool NeedsEscape(unsigned char c) { return c <= ' ' || c >= 0x7f || c == '%'; }

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

void AppendEscaped(std::string_view raw, std::string* out) {
  static const char* kHex = "0123456789ABCDEF";
  for (const char c : raw) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (NeedsEscape(u)) {
      *out += '%';
      *out += kHex[u >> 4];
      *out += kHex[u & 0xf];
    } else {
      *out += c;
    }
  }
}

std::string Quoted(std::string_view token) { return "'" + std::string(token) + "'"; }

// The next whitespace-delimited token at or after *pos ("" at the end).
std::string_view NextToken(std::string_view text, std::size_t* pos) {
  std::size_t i = *pos;
  while (i < text.size() && IsSpace(text[i])) {
    ++i;
  }
  const std::size_t begin = i;
  while (i < text.size() && !IsSpace(text[i])) {
    ++i;
  }
  *pos = i;
  return text.substr(begin, i - begin);
}

// UnescapeToken into `out` without a Result: the decoder writes each value
// straight into its map node.
Status UnescapeInto(std::string_view token, std::string* out) {
  out->reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      *out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      return Status::InvalidArgument("truncated escape in " + Quoted(token));
    }
    const int hi = HexValue(token[i + 1]);
    const int lo = HexValue(token[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("bad escape in " + Quoted(token));
    }
    *out += static_cast<char>((hi << 4) | lo);
    i += 2;
  }
  return Status::Ok();
}

}  // namespace

std::string EscapeToken(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  AppendEscaped(raw, &out);
  return out;
}

Result<std::string> UnescapeToken(std::string_view token) {
  std::string out;
  if (const Status st = UnescapeInto(token, &out); !st.ok()) {
    return st;
  }
  return out;
}

std::vector<std::string_view> SplitTokens(std::string_view text) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  for (std::string_view token = NextToken(text, &pos); !token.empty();
       token = NextToken(text, &pos)) {
    tokens.push_back(token);
  }
  return tokens;
}

std::vector<std::string_view> SplitList(std::string_view text, char sep) {
  std::vector<std::string_view> pieces;
  if (text.empty()) {
    return pieces;
  }
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string_view::npos) {
      pieces.push_back(text.substr(begin));
      return pieces;
    }
    pieces.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

void AppendField(std::string* out, std::string_view key, std::string_view value) {
  *out += ' ';
  *out += key;
  *out += '=';
  AppendEscaped(value, out);
}

std::string EncodeRecord(std::string_view head, const RecordFields& fields) {
  std::string out;
  AppendEscaped(head, &out);
  for (const auto& [key, value] : fields) {
    AppendField(&out, key, value);
  }
  return out;
}

Result<TextRecord> DecodeRecord(std::string_view line) {
  std::size_t pos = 0;
  const std::string_view head = NextToken(line, &pos);
  if (head.empty()) {
    return Status::InvalidArgument("empty record");
  }
  TextRecord record;
  if (const Status st = UnescapeInto(head, &record.head); !st.ok()) {
    return st;
  }
  for (std::string_view token = NextToken(line, &pos); !token.empty();
       token = NextToken(line, &pos)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("malformed token " + Quoted(token) + " (want key=value)");
    }
    const auto [it, inserted] = record.fields.try_emplace(std::string(token.substr(0, eq)));
    if (!inserted) {
      return Status::InvalidArgument("duplicate key " + Quoted(it->first));
    }
    if (const Status st = UnescapeInto(token.substr(eq + 1), &it->second); !st.ok()) {
      return st;
    }
  }
  return record;
}

const std::string* FieldReader::Find(const std::string& key) {
  if (!status_.ok()) {
    return nullptr;
  }
  const auto it = fields_.find(key);
  if (it == fields_.end()) {
    status_ = Status::InvalidArgument(std::string(head_) + ": missing required argument '" + key +
                                      "'");
    return nullptr;
  }
  return &it->second;
}

void FieldReader::Fail(const std::string& key, const Status& parse_error) {
  status_ = Status::InvalidArgument(std::string(head_) + ": argument '" + key +
                                    "': " + parse_error.message());
}

std::string FieldReader::String(const std::string& key) {
  const std::string* raw = Find(key);
  return raw != nullptr ? *raw : std::string();
}

std::int64_t FieldReader::Int(const std::string& key) {
  const std::string* raw = Find(key);
  if (raw == nullptr) {
    return 0;
  }
  const Result<std::int64_t> value = ParseInt(*raw);
  if (!value.ok()) {
    Fail(key, value.status());
    return 0;
  }
  return *value;
}

std::uint64_t FieldReader::U64(const std::string& key) {
  const std::string* raw = Find(key);
  if (raw == nullptr) {
    return 0;
  }
  const Result<std::uint64_t> value = ParseU64(*raw);
  if (!value.ok()) {
    Fail(key, value.status());
    return 0;
  }
  return *value;
}

double FieldReader::Double(const std::string& key) {
  const std::string* raw = Find(key);
  if (raw == nullptr) {
    return 0;
  }
  const Result<double> value = ParseDouble(*raw);
  if (!value.ok()) {
    Fail(key, value.status());
    return 0;
  }
  return *value;
}

std::string FormatExact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string FormatShortest(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  const Result<double> back = ParseDouble(buf);
  if (back.ok() && *back == value) {
    return buf;
  }
  return FormatExact(value);
}

Result<std::int64_t> ParseInt(std::string_view token, std::int64_t min, std::int64_t max) {
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::invalid_argument || end != token.data() + token.size()) {
    return Status::InvalidArgument("not an integer: " + Quoted(token));
  }
  if (ec == std::errc::result_out_of_range || value < min || value > max) {
    return Status::InvalidArgument("integer out of range [" + std::to_string(min) + ", " +
                                   std::to_string(max) + "]: " + Quoted(token));
  }
  return value;
}

Result<std::uint64_t> ParseU64(std::string_view token) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("out of range for u64: " + Quoted(token));
  }
  if (ec != std::errc() || end != token.data() + token.size()) {
    return Status::InvalidArgument("not an unsigned integer: " + Quoted(token));
  }
  return value;
}

Result<double> ParseDouble(std::string_view token) {
  double value = 0;
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("out of double range: " + Quoted(token));
  }
  if (ec != std::errc() || end != token.data() + token.size()) {
    return Status::InvalidArgument("not a number: " + Quoted(token));
  }
  return value;
}

// --- JSON writer ------------------------------------------------------------

namespace {

void AppendJsonQuoted(std::string_view raw, std::string* out) {
  static const char kHex[] = "0123456789abcdef";
  *out += '"';
  for (const char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (c == '\n') {
      *out += "\\n";
    } else if (u < 0x20) {
      *out += "\\u00";
      *out += kHex[u >> 4];
      *out += kHex[u & 0xf];
    } else {
      *out += c;
    }
  }
  *out += '"';
}

}  // namespace

JsonValue::JsonValue(Kind kind, std::string text, bool one_line)
    : kind_(kind), one_line_(one_line), text_(std::move(text)) {}

JsonValue JsonValue::Bool(bool value) { return JsonValue(Kind::kBool, value ? "true" : "false"); }

JsonValue JsonValue::Number(double value) {
  if (!std::isfinite(value)) {
    return JsonValue();
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return JsonValue(Kind::kNumber, buf);
}

JsonValue JsonValue::Int(std::int64_t value) {
  return JsonValue(Kind::kNumber, std::to_string(value));
}

JsonValue JsonValue::String(std::string value) {
  return JsonValue(Kind::kString, std::move(value));
}

JsonValue JsonValue::Array(bool one_line) { return JsonValue(Kind::kArray, "", one_line); }

JsonValue JsonValue::Object(bool one_line) { return JsonValue(Kind::kObject, "", one_line); }

JsonValue& JsonValue::Push(JsonValue item) {
  SILOD_CHECK(kind_ == Kind::kArray) << "Push on a non-array JSON value";
  items_.push_back(std::move(item));
  return *this;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  SILOD_CHECK(kind_ == Kind::kObject) << "Set on a non-object JSON value";
  SILOD_CHECK(Find(key) == nullptr) << "duplicate JSON key '" << key << "'";
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

std::string JsonValue::Format() const {
  std::string out;
  AppendTo(&out, one_line_, 0);
  return out;
}

void JsonValue::AppendTo(std::string* out, bool one_line, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
    case Kind::kNumber:
      *out += text_;
      return;
    case Kind::kString:
      AppendJsonQuoted(text_, out);
      return;
    case Kind::kArray:
    case Kind::kObject:
      break;
  }
  const bool object = kind_ == Kind::kObject;
  const std::size_t size = object ? members_.size() : items_.size();
  *out += object ? '{' : '[';
  for (std::size_t i = 0; i < size; ++i) {
    if (i > 0) {
      *out += ',';
    }
    if (one_line) {
      *out += i > 0 ? " " : "";
    } else {
      *out += '\n';
      out->append(2 * static_cast<std::size_t>(depth + 1), ' ');
    }
    const JsonValue& value = object ? members_[i].second : items_[i];
    if (object) {
      AppendJsonQuoted(members_[i].first, out);
      *out += ": ";
    }
    value.AppendTo(out, one_line || value.one_line_, depth + 1);
  }
  if (!one_line && size > 0) {
    *out += '\n';
    out->append(2 * static_cast<std::size_t>(depth), ' ');
  }
  *out += object ? '}' : ']';
}

// --- JSON reader ------------------------------------------------------------

// Recursive descent over one document; `depth` counts the containers open
// around the value being read.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Document() {
    JsonValue value;
    if (const Status st = Value(0, &value); !st.ok()) {
      return st;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after the document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " + std::to_string(pos_));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipSpace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                        text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (!AtEnd() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeDigits() {
    const std::size_t begin = pos_;
    while (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > begin;
  }

  Status Value(int depth, JsonValue* out) {
    SkipSpace();
    if (AtEnd()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= kMaxJsonDepth) {
        return Error("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
      }
      return c == '{' ? Object(depth + 1, out) : Array(depth + 1, out);
    }
    if (c == '"') {
      *out = JsonValue::String("");
      return String(&out->text_);
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return Number(out);
    }
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        *out = word == "null" ? JsonValue() : JsonValue::Bool(word == "true");
        return Status::Ok();
      }
    }
    return Error("unexpected character '" + std::string(1, c) + "'");
  }

  Status Number(JsonValue* out) {
    const std::size_t begin = pos_;
    Consume('-');
    if (Consume('0')) {
      if (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        return Error("leading zero in a number");
      }
    } else if (!ConsumeDigits()) {
      return Error("malformed number");
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      if (!ConsumeDigits()) {
        return Error("malformed fraction");
      }
    }
    if (Consume('e') || Consume('E')) {
      integral = false;
      if (!Consume('+')) {
        Consume('-');
      }
      if (!ConsumeDigits()) {
        return Error("malformed exponent");
      }
    }
    const std::string_view token = text_.substr(begin, pos_ - begin);
    if (!ParseDouble(token).ok() ||
        (integral && !ParseInt(token).ok() && !ParseU64(token).ok())) {
      return Error("number out of range: '" + std::string(token) + "'");
    }
    *out = JsonValue(JsonValue::Kind::kNumber, std::string(token));
    return Status::Ok();
  }

  Status Hex4(unsigned* code) {
    if (text_.size() - pos_ < 4) {
      return Error("truncated \\u escape");
    }
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const int digit = HexValue(text_[pos_++]);
      if (digit < 0) {
        return Error("bad \\u escape");
      }
      *code = (*code << 4) | static_cast<unsigned>(digit);
    }
    return Status::Ok();
  }

  // The code point after a "\u", joining a surrogate pair, as UTF-8.
  Status Unicode(std::string* out) {
    unsigned code = 0;
    if (const Status st = Hex4(&code); !st.ok()) {
      return st;
    }
    if (code >= 0xDC00 && code < 0xE000) {
      return Error("unpaired low surrogate");
    }
    if (code >= 0xD800 && code < 0xDC00) {
      unsigned low = 0;
      if (!Consume('\\') || !Consume('u')) {
        return Error("unpaired high surrogate");
      }
      if (const Status st = Hex4(&low); !st.ok()) {
        return st;
      }
      if (low < 0xDC00 || low >= 0xE000) {
        return Error("unpaired high surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return Status::Ok();
  }

  Status String(std::string* out) {
    ++pos_;  // The opening quote.
    while (true) {
      if (AtEnd()) {
        return Error("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Error("raw control byte in a string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (AtEnd()) {
        return Error("unterminated string");
      }
      switch (const char e = text_[pos_++]; e) {
        case '"':
        case '\\':
        case '/':
          *out += e;
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u':
          if (const Status st = Unicode(out); !st.ok()) {
            return st;
          }
          break;
        default:
          return Error("bad escape '\\" + std::string(1, e) + "'");
      }
    }
  }

  Status Array(int depth, JsonValue* out) {
    *out = JsonValue::Array();
    ++pos_;
    SkipSpace();
    if (Consume(']')) {
      return Status::Ok();
    }
    while (true) {
      JsonValue item;
      if (const Status st = Value(depth, &item); !st.ok()) {
        return st;
      }
      out->items_.push_back(std::move(item));
      SkipSpace();
      if (Consume(']')) {
        return Status::Ok();
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']'");
      }
    }
  }

  Status Object(int depth, JsonValue* out) {
    *out = JsonValue::Object();
    ++pos_;
    SkipSpace();
    if (!Consume('}')) {
      while (true) {
        SkipSpace();
        if (AtEnd() || text_[pos_] != '"') {
          return Error("expected a string key");
        }
        std::string key;
        if (const Status st = String(&key); !st.ok()) {
          return st;
        }
        SkipSpace();
        if (!Consume(':')) {
          return Error("expected ':'");
        }
        JsonValue value;
        if (const Status st = Value(depth, &value); !st.ok()) {
          return st;
        }
        out->members_.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (Consume('}')) {
          break;
        }
        if (!Consume(',')) {
          return Error("expected ',' or '}'");
        }
      }
    }
    std::vector<std::string_view> keys;
    keys.reserve(out->members_.size());
    for (const auto& member : out->members_) {
      keys.push_back(member.first);
    }
    std::sort(keys.begin(), keys.end());
    if (const auto dup = std::adjacent_find(keys.begin(), keys.end()); dup != keys.end()) {
      return Error("duplicate key " + Quoted(*dup));
    }
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Result<JsonValue> ParseJson(std::string_view text) { return JsonParser(text).Document(); }

}  // namespace silod
