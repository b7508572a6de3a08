#include "src/common/flags.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/common/text_codec.h"

namespace silod {

void FlagSet::Define(const std::string& name, const std::string& default_value,
                     const std::string& help) {
  SILOD_CHECK(flags_.count(name) == 0) << "flag --" << name << " defined twice";
  flags_[name] = Flag{default_value, default_value, help};
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool have_value = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    auto it = flags_.find(name);
    // --no-foo sugar for booleans.
    if (it == flags_.end() && name.rfind("no-", 0) == 0) {
      it = flags_.find(name.substr(3));
      if (it != flags_.end() && !have_value) {
        it->second.value = "false";
        continue;
      }
    }
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!have_value) {
      // Booleans default to true when bare; others take the next argument.
      const std::string& def = it->second.default_value;
      if (def == "true" || def == "false") {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument("flag --" + name + " needs a value");
      }
    }
    // A flag declared with a numeric default takes only a whole number token.
    if (ParseDouble(it->second.default_value).ok() && !ParseDouble(value).ok()) {
      return Status::InvalidArgument("flag --" + name + " wants a number, got '" + value + "'");
    }
    it->second.value = value;
  }
  return Status::Ok();
}

bool FlagSet::Has(const std::string& name) const { return flags_.count(name) > 0; }

std::string FlagSet::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  SILOD_CHECK(it != flags_.end()) << "undeclared flag --" << name;
  return it->second.value;
}

std::int64_t FlagSet::GetInt(const std::string& name) const {
  const std::string value = GetString(name);
  if (const Result<std::int64_t> exact = ParseInt(value); exact.ok()) {
    return *exact;
  }
  // A fractional value truncates toward zero; NaN and values past the
  // int64 range read as the error value 0.
  const double truncated = GetDouble(name);
  return std::fabs(truncated) < 0x1p63 ? static_cast<std::int64_t>(truncated) : 0;
}

Result<int> FlagSet::GetIntInRange(const std::string& name, int min, int max) const {
  const Result<std::int64_t> value = ParseInt(GetString(name), min, max);
  if (!value.ok()) {
    return Status::InvalidArgument("--" + name + ": " + value.status().message());
  }
  return static_cast<int>(*value);
}

Result<std::uint64_t> FlagSet::GetU64(const std::string& name, std::uint64_t max) const {
  const Result<std::uint64_t> value = ParseU64(GetString(name));
  if (!value.ok()) {
    return Status::InvalidArgument("--" + name + ": " + value.status().message());
  }
  if (*value > max) {
    return Status::InvalidArgument("--" + name + ": above the maximum " + std::to_string(max));
  }
  return *value;
}

double FlagSet::GetDouble(const std::string& name) const {
  const Result<double> value = ParseDouble(GetString(name));
  return value.ok() ? *value : 0;
}

bool FlagSet::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  return v == "true" || v == "1" || v == "yes";
}

std::string FlagSet::Help(const std::string& program) const {
  std::string out = "Usage: " + program + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name + " (default: " + flag.default_value + ")\n      " + flag.help + "\n";
  }
  return out;
}

}  // namespace silod
