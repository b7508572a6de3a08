#include "src/sim/cluster_fault_state.h"

#include <algorithm>

#include "src/common/logging.h"

namespace silod {

ClusterFaultState::ClusterFaultState(const SimConfig& config)
    : injector_(config.faults), base_(config.resources), resources_(config.resources),
      server_alive_(static_cast<std::size_t>(config.resources.num_servers), true),
      alive_servers_(config.resources.num_servers) {
  if (!config.topology.empty()) {
    SILOD_CHECK(config.topology.Covers(config.resources.num_servers)) << "uncovered topology";
    for (int server = 0; server < config.resources.num_servers; ++server) {
      server_zone_.push_back(config.topology.ZoneOf(server));
    }
    for (const TopologyZone& zone : config.topology.zones()) {
      zone_size_.push_back(zone.size());
    }
    zone_alive_ = zone_size_;
  }
}

bool ClusterFaultState::SetAlive(int server, bool alive) {
  if (server < 0 || server >= base_.num_servers ||
      server_alive_[static_cast<std::size_t>(server)] == alive) {
    ++stats_.ignored_events;
    return false;
  }
  server_alive_[static_cast<std::size_t>(server)] = alive;
  const int delta = alive ? 1 : -1;
  alive_servers_ += delta;
  if (!server_zone_.empty()) {
    zone_alive_[static_cast<std::size_t>(server_zone_[static_cast<std::size_t>(server)])] += delta;
  }
  resources_.total_cache = base_.total_cache * static_cast<Bytes>(alive_servers_) /
                           static_cast<Bytes>(base_.num_servers);
  resources_.num_servers = std::max(1, alive_servers_);
  return true;
}

std::optional<ClusterFaultState::ServerCrash> ClusterFaultState::CrashServer(int server) {
  ServerCrash crash;
  crash.prev_alive = alive_servers_;
  if (!SetAlive(server, false)) {
    return std::nullopt;
  }
  ++stats_.server_crashes;
  if (!server_zone_.empty()) {
    crash.zone = server_zone_[static_cast<std::size_t>(server)];
    crash.prev_zone_alive = zone_alive_[static_cast<std::size_t>(crash.zone)] + 1;
  }
  return crash;
}

bool ClusterFaultState::RecoverServer(int server) {
  if (!SetAlive(server, true)) {
    return false;
  }
  ++stats_.server_recoveries;
  return true;
}

void ClusterFaultState::Degrade(const FaultEvent& event, Seconds now) {
  resources_.remote_io = base_.remote_io * event.severity * (1.0 - event.error_rate);
  if (degrade_start_ >= 0) {
    CloseDegradeWindow(now);
  }
  if (event.severity < 1.0 || event.error_rate > 0) {
    degrade_start_ = now;
    ++stats_.degrade_windows;
  }
}

void ClusterFaultState::CloseDegradeWindow(Seconds end) {
  stats_.windows.push_back({"degrade", degrade_start_, end, /*avg_throughput=*/0});
  degrade_start_ = -1;
}

FaultStats ClusterFaultState::Finish(Seconds end, const TimeSeries& total_throughput) {
  if (degrade_start_ >= 0) {
    CloseDegradeWindow(end);
  }
  stats_.ignored_events += static_cast<int>(PopDue(kInfiniteTime).size());
  for (FaultStats::Window& window : stats_.windows) {
    window.avg_throughput = total_throughput.TimeAverage(window.start, window.end);
  }
  return stats_;
}

}  // namespace silod
