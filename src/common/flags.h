// A minimal command-line flag parser for the CLI tools: --name=value or
// --name value, with typed accessors and generated --help text.  No global
// registry; each tool declares the flags it takes.
#ifndef SILOD_SRC_COMMON_FLAGS_H_
#define SILOD_SRC_COMMON_FLAGS_H_

#include <climits>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace silod {

class FlagSet {
 public:
  // Declares a flag with a default value (stored as text) and help line.
  void Define(const std::string& name, const std::string& default_value,
              const std::string& help);

  // Parses argv; returns an error for unknown flags, missing values, and a
  // value that is not a number token (common/text_codec.h ParseDouble) for a
  // flag whose declared default is one.  Integer and fractional flags are
  // not told apart here: GetInt truncates --jobs=1.5 to 1, and only
  // GetIntInRange rejects it.  Non-flag arguments are collected into
  // positional().
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name) const;
  // Numeric accessors abort (via SILOD_CHECK) on undeclared flags and return
  // an error value of 0 / false on malformed numbers (possible only for a
  // flag whose default is not numeric).
  std::int64_t GetInt(const std::string& name) const;
  // The value as an int in [min, max]; an InvalidArgument naming the flag for
  // a fractional, non-numeric or out-of-range value.  The getter for every
  // flag a tool narrows to int.
  Result<int> GetIntInRange(const std::string& name, int min = INT_MIN, int max = INT_MAX) const;
  // The value as an unsigned integer in [0, max], for seeds and sizes; an
  // InvalidArgument naming the flag for anything else (a cast would wrap).
  Result<std::uint64_t> GetU64(const std::string& name, std::uint64_t max = UINT64_MAX) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Formatted help text listing every declared flag and its default.
  std::string Help(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace silod

#endif  // SILOD_SRC_COMMON_FLAGS_H_
