#include "src/common/topology.h"

#include <algorithm>
#include <climits>
#include <string_view>

#include "src/common/text_codec.h"

namespace silod {

namespace {

// Splits on ';', trimming spaces and tabs and dropping empty entries
// (tolerates trailing separators).
std::vector<std::string_view> SplitEntries(std::string_view spec) {
  std::vector<std::string_view> entries;
  for (const std::string_view piece : SplitList(spec, ';')) {
    const std::size_t begin = piece.find_first_not_of(" \t");
    if (begin != std::string_view::npos) {
      entries.push_back(piece.substr(begin, piece.find_last_not_of(" \t") - begin + 1));
    }
  }
  return entries;
}

// `gpu-type name=v100 count=64 speed=1`: space-separated key=value tokens
// after the marker.  speed is optional (default 1).
Result<GpuTypeSpec> ParseGpuType(std::string_view entry) {
  GpuTypeSpec type;
  bool have_count = false;
  for (const std::string_view token : SplitTokens(entry.substr(8))) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("gpu-type token missing '=': " + std::string(token));
    }
    const std::string key(token.substr(0, eq));
    const std::string_view value = token.substr(eq + 1);
    if (key == "name") {
      type.name = value;
    } else if (key == "count") {
      const Result<std::int64_t> count = ParseInt(value, INT_MIN, INT_MAX);
      if (!count.ok()) {
        return Status::InvalidArgument("gpu-type count " + count.status().message());
      }
      type.count = static_cast<int>(*count);
      have_count = true;
    } else if (key == "speed") {
      const Result<double> speed = ParseDouble(value);
      if (!speed.ok()) {
        return Status::InvalidArgument("gpu-type speed " + speed.status().message());
      }
      type.speed = *speed;
    } else {
      return Status::InvalidArgument("unknown gpu-type key: " + key);
    }
  }
  if (type.name.empty() || !have_count) {
    return Status::InvalidArgument("gpu-type entry needs name= and count=: " + std::string(entry));
  }
  return type;
}

}  // namespace

Result<ClusterTopology> ClusterTopology::Parse(const std::string& spec) {
  std::vector<TopologyZone> zones;
  std::vector<GpuTypeSpec> gpu_types;
  double loss_bound = kDefaultLossBound;
  for (const std::string_view entry : SplitEntries(spec)) {
    if (entry.rfind("gpu-type", 0) == 0 &&
        (entry.size() == 8 || entry[8] == ' ' || entry[8] == '\t')) {
      Result<GpuTypeSpec> type = ParseGpuType(entry);
      if (!type.ok()) {
        return type.status();
      }
      gpu_types.push_back(std::move(*type));
      continue;
    }
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("topology entry missing '=': " + std::string(entry));
    }
    const std::string key(entry.substr(0, eq));
    const std::string_view value = entry.substr(eq + 1);
    if (key == "loss-bound") {
      const Result<double> bound = ParseDouble(value);
      if (!bound.ok() || !(*bound > 0 && *bound <= 1)) {
        return Status::InvalidArgument("topology loss-bound must be in (0, 1]: " +
                                       std::string(value));
      }
      loss_bound = *bound;
      continue;
    }
    const std::size_t dash = value.find('-');
    const Result<std::int64_t> first = ParseInt(value.substr(0, dash), INT_MIN, INT_MAX);
    const Result<std::int64_t> last =
        ParseInt(dash == std::string_view::npos ? "" : value.substr(dash + 1), INT_MIN, INT_MAX);
    if (!first.ok() || !last.ok()) {
      return Status::InvalidArgument("topology zone '" + key +
                                     "' needs a server range <a>-<b>, got: " + std::string(value));
    }
    zones.push_back(TopologyZone{key, static_cast<int>(*first), static_cast<int>(*last)});
  }
  return Make(std::move(zones), std::move(gpu_types), loss_bound);
}

Result<ClusterTopology> ClusterTopology::FromZones(std::vector<TopologyZone> zones,
                                                   double loss_bound) {
  return Make(std::move(zones), {}, loss_bound);
}

Result<ClusterTopology> ClusterTopology::Make(std::vector<TopologyZone> zones,
                                              std::vector<GpuTypeSpec> gpu_types,
                                              double loss_bound) {
  if (loss_bound <= 0 || loss_bound > 1) {
    return Status::InvalidArgument("topology loss bound must be in (0, 1]");
  }
  for (std::size_t i = 0; i < gpu_types.size(); ++i) {
    const GpuTypeSpec& t = gpu_types[i];
    if (t.name.empty()) {
      return Status::InvalidArgument("gpu-type needs a non-empty name");
    }
    if (t.name.find_first_of("=; \t") != std::string::npos) {
      return Status::InvalidArgument("gpu-type name has reserved characters: " + t.name);
    }
    if (t.count <= 0) {
      return Status::InvalidArgument("gpu-type '" + t.name + "' needs a positive count");
    }
    if (!(t.speed > 0) || t.speed > 1e9) {
      return Status::InvalidArgument("gpu-type '" + t.name + "' needs a positive finite speed");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (gpu_types[j].name == t.name) {
        return Status::InvalidArgument("duplicate gpu-type name: " + t.name);
      }
    }
  }
  std::sort(zones.begin(), zones.end(), [](const TopologyZone& a, const TopologyZone& b) {
    return a.first_server < b.first_server;
  });
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const TopologyZone& z = zones[i];
    if (z.first_server < 0 || z.last_server < z.first_server) {
      return Status::InvalidArgument("topology zone '" + z.name + "' has an invalid range");
    }
    if (i > 0 && z.first_server <= zones[i - 1].last_server) {
      return Status::InvalidArgument("topology zones '" + zones[i - 1].name + "' and '" + z.name +
                                     "' overlap");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (zones[j].name == z.name) {
        return Status::InvalidArgument("duplicate topology zone name: " + z.name);
      }
    }
  }
  ClusterTopology topology;
  topology.zones_ = std::move(zones);
  topology.gpu_types_ = std::move(gpu_types);
  topology.loss_bound_ = loss_bound;
  return topology;
}

int ClusterTopology::GpuTypeIndex(const std::string& name) const {
  for (std::size_t i = 0; i < gpu_types_.size(); ++i) {
    if (gpu_types_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int ClusterTopology::TotalTypedGpus() const {
  int total = 0;
  for (const GpuTypeSpec& t : gpu_types_) {
    total += t.count;
  }
  return total;
}

int ClusterTopology::ZoneOf(int server) const {
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    if (server >= zones_[i].first_server && server <= zones_[i].last_server) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool ClusterTopology::Covers(int num_servers) const {
  for (int s = 0; s < num_servers; ++s) {
    if (ZoneOf(s) < 0) return false;
  }
  return true;
}

ClusterTopology ClusterTopology::Cover(int num_servers) const {
  std::vector<TopologyZone> zones = zones_;
  for (int s = 0; s < num_servers; ++s) {
    if (ZoneOf(s) < 0) {
      zones.push_back(TopologyZone{"srv" + std::to_string(s), s, s});
    }
  }
  Result<ClusterTopology> covered = Make(std::move(zones), gpu_types_, loss_bound_);
  return covered.ok() ? *covered : *this;  // Existing zones already validated.
}

Status ClusterTopology::Validate(int num_servers) const {
  for (const TopologyZone& z : zones_) {
    if (z.last_server >= num_servers) {
      return Status::OutOfRange("topology zone '" + z.name + "' ends at server " +
                                std::to_string(z.last_server) + " but the cluster has " +
                                std::to_string(num_servers) + " servers");
    }
  }
  return Status::Ok();
}

std::string ClusterTopology::ToSpec() const {
  std::string spec;
  for (const TopologyZone& z : zones_) {
    if (!spec.empty()) spec += ";";
    spec += z.name + "=" + std::to_string(z.first_server) + "-" + std::to_string(z.last_server);
  }
  if (loss_bound_ != kDefaultLossBound) {
    spec += ";loss-bound=" + FormatShortest(loss_bound_);
  }
  for (const GpuTypeSpec& t : gpu_types_) {
    if (!spec.empty()) spec += ";";
    spec += "gpu-type name=" + t.name + " count=" + std::to_string(t.count) +
            " speed=" + FormatShortest(t.speed);
  }
  return spec;
}

}  // namespace silod
