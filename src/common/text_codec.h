// The one text codec behind every text format in the tree: the silodd wire
// protocol and journal checkpoints (serve/), minidumps (fault/), recovery
// snapshots (core/), topology, fault-plan and restart-cost specs, trace CSVs,
// command-line flags, and JSON (run reports, `--json` output, bench files and
// the baselines their gates read).  The bit-identity gates (daemon == batch
// --check, journal recovery to the same StateDigest, minidump replay) all
// rest on text round-tripping doubles and strings exactly, so each piece
// lives here once:
//
//   - a percent token escape: any byte string becomes one space-free token;
//   - a whitespace tokenizer and a `<head> key=value ...` record codec;
//   - number formatting: FormatExact (%.17g, bit-exact) and FormatShortest
//     (%g when that round-trips, else %.17g);
//   - strict number parsing: the whole token, no leading whitespace or '+',
//     decimal only.  Overflow (including a double past DBL_MAX) is an error;
//     literal inf/nan and subnormals are accepted, so
//     FormatExact(ParseDouble(FormatExact(x))) is the identity for every x;
//   - a JSON value with a writer and a strict reader.  The writer renders
//     doubles with %.6g (a non-finite double becomes null) and integers
//     exactly; the reader keeps each number's source token, so an integer
//     compares exactly and a double goes through ParseDouble.
#ifndef SILOD_SRC_COMMON_TEXT_CODEC_H_
#define SILOD_SRC_COMMON_TEXT_CODEC_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace silod {

// Percent-escapes '%', whitespace and control/non-ASCII bytes so the token
// neither splits nor corrupts the line; identity on plain printable text.
std::string EscapeToken(std::string_view raw);
Result<std::string> UnescapeToken(std::string_view token);

// Splits on ASCII whitespace, dropping empty pieces (what `istream >> token`
// does).  The views point into `text`.
std::vector<std::string_view> SplitTokens(std::string_view text);

// Splits on `sep`, keeping empty pieces; "" yields no pieces.
std::vector<std::string_view> SplitList(std::string_view text, char sep);

// One line `<head> key=value key=value ...`.  The head and every value are
// escaped tokens; keys are plain identifiers.  Encoding writes keys in sorted
// order, so equal records are byte-identical.  Decoding accepts any key order
// but rejects a token without '=', an empty key and a duplicate key.
using RecordFields = std::map<std::string, std::string>;

struct TextRecord {
  std::string head;
  RecordFields fields;
};

std::string EncodeRecord(std::string_view head, const RecordFields& fields);
Result<TextRecord> DecodeRecord(std::string_view line);
// Appends " key=<escaped value>", for writers that keep a fixed key order.
void AppendField(std::string* out, std::string_view key, std::string_view value);

// Typed reads off one record's fields.  The first missing key or malformed
// value is kept as an InvalidArgument naming the head and key; reads after
// it return zero values, so a caller reads every field and checks status()
// once.
class FieldReader {
 public:
  FieldReader(const RecordFields& fields, std::string_view head) : fields_(fields), head_(head) {}

  std::string String(const std::string& key);
  std::int64_t Int(const std::string& key);
  std::uint64_t U64(const std::string& key);
  double Double(const std::string& key);

  const Status& status() const { return status_; }

 private:
  // The raw value, or nullptr (recording the error) when missing or after an
  // earlier error.
  const std::string* Find(const std::string& key);
  void Fail(const std::string& key, const Status& parse_error);

  const RecordFields& fields_;
  std::string_view head_;
  Status status_;
};

// %.17g: FormatExact(ParseDouble(FormatExact(x))) == FormatExact(x).
std::string FormatExact(double value);
// %g when it parses back to `value`, else %.17g; for specs people read.
std::string FormatShortest(double value);

// Strict whole-token parses.  ParseInt also rejects values outside
// [min, max], so callers narrowing to int pass the int bounds.
Result<std::int64_t> ParseInt(std::string_view token,
                              std::int64_t min = std::numeric_limits<std::int64_t>::min(),
                              std::int64_t max = std::numeric_limits<std::int64_t>::max());
Result<std::uint64_t> ParseU64(std::string_view token);
Result<double> ParseDouble(std::string_view token);

// One JSON value, for both directions.  Scalars keep their JSON text: a
// number is its token, a bool is "true"/"false", a string is its decoded
// bytes.  Objects keep their members in insertion (or source) order.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null
  static JsonValue Bool(bool value);
  // %.6g; NaN and the infinities become null.
  static JsonValue Number(double value);
  static JsonValue Int(std::int64_t value);
  static JsonValue String(std::string value);
  // Empty containers.  A `one_line` container formats on a single line,
  // with everything inside it.
  static JsonValue Array(bool one_line = false);
  static JsonValue Object(bool one_line = false);

  // Appends an array item / an object member; an object's keys must be
  // distinct.  Both return *this.
  JsonValue& Push(JsonValue item);
  JsonValue& Set(std::string key, JsonValue value);

  Kind kind() const { return kind_; }
  // A string's bytes, a number's token, "true"/"false", or "" for null and
  // containers.
  const std::string& text() const { return text_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }
  // The object member named `key`, or nullptr.
  const JsonValue* Find(std::string_view key) const;

  // Two-space pretty printing: each member or item on its own line, `"key":
  // value` with one space, an empty container as {} or [], and one-line
  // containers as {"a": 1, "b": [2, 3]}.  No trailing newline.  Strings
  // escape '"', '\' and every byte below 0x20 ("\n" by name, the rest as
  // \u00XX); other bytes pass through.
  std::string Format() const;

 private:
  friend class JsonParser;

  JsonValue(Kind kind, std::string text, bool one_line = false);
  void AppendTo(std::string* out, bool one_line, int depth) const;

  Kind kind_ = Kind::kNull;
  bool one_line_ = false;
  std::string text_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Nesting deeper than this is an error: the reader recurses once per level.
inline constexpr int kMaxJsonDepth = 64;

// Parses one JSON document (RFC 8259) strictly: surrounding whitespace only,
// no duplicate keys, no raw control bytes in strings, numbers in JSON's
// grammar (no '+', no leading zeros, no NaN/Infinity) that fit a double and,
// when integral, an int64 or a u64.  Bytes >= 0x80 pass through unchecked.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace silod

#endif  // SILOD_SRC_COMMON_TEXT_CODEC_H_
