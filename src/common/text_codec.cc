#include "src/common/text_codec.h"

#include <charconv>
#include <cstdio>
#include <system_error>

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

}  // namespace silod
