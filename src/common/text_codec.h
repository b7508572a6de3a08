// The one text codec behind every line format in the tree: the silodd wire
// protocol and journal checkpoints (serve/), minidumps (fault/), recovery
// snapshots (core/), topology, fault-plan and restart-cost specs, trace CSVs
// and command-line flags.  The bit-identity gates (daemon == batch --check,
// journal recovery to the same StateDigest, minidump replay) all rest on
// text round-tripping doubles and strings exactly, so each piece lives here
// once:
//
//   - a percent token escape: any byte string becomes one space-free token;
//   - a whitespace tokenizer and a `<head> key=value ...` record codec;
//   - number formatting: FormatExact (%.17g, bit-exact) and FormatShortest
//     (%g when that round-trips, else %.17g);
//   - strict number parsing: the whole token, no leading whitespace or '+',
//     decimal only.  Overflow (including a double past DBL_MAX) is an error;
//     literal inf/nan and subnormals are accepted, so
//     FormatExact(ParseDouble(FormatExact(x))) is the identity for every x.
#ifndef SILOD_SRC_COMMON_TEXT_CODEC_H_
#define SILOD_SRC_COMMON_TEXT_CODEC_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
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

}  // namespace silod

#endif  // SILOD_SRC_COMMON_TEXT_CODEC_H_
