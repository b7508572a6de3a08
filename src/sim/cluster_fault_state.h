// ClusterFaultState: what a failure does to the cluster, shared by both
// simulation engines (docs/MODEL.md §7): the injector cursor, server
// liveness (total and per zone), the effective resources, the degrade
// windows and the FaultStats report.  What it does to cached data and jobs
// is each engine's loss model, charged to stats().
#ifndef SILOD_SRC_SIM_CLUSTER_FAULT_STATE_H_
#define SILOD_SRC_SIM_CLUSTER_FAULT_STATE_H_

#include <optional>
#include <vector>

#include "src/common/stats.h"
#include "src/fault/fault_injector.h"
#include "src/sim/cluster.h"

namespace silod {

class ClusterFaultState {
 public:
  // A non-empty `config.topology` must cover every server (PrepareSimConfig).
  explicit ClusterFaultState(const SimConfig& config);

  // Resources under the faults applied so far: pool capacity and server
  // count scale with the alive servers, egress with the open degrade window.
  const ClusterResources& resources() const { return resources_; }
  FaultStats& stats() { return stats_; }

  // Time of the next undelivered event; kInfiniteTime when none is left.
  Seconds NextTime() const { return injector_.NextTime(); }
  // The events due at or before `t`, in plan order; valid until the next call.
  const std::vector<FaultEvent>& PopDue(Seconds t) {
    due_.clear();
    injector_.PopDue(t, &due_);
    return due_;
  }

  struct ServerCrash {
    int prev_alive = 0;       // Alive servers before the crash.
    int zone = -1;            // The server's zone; -1 when zone-oblivious.
    int prev_zone_alive = 0;  // Alive members of `zone` before the crash.
  };
  // Marks `server` dead, or alive again (it rejoins empty).  nullopt/false,
  // counted as ignored, when it is out of range or already in that state.
  std::optional<ServerCrash> CrashServer(int server);
  bool RecoverServer(int server);
  // kRemoteDegrade: failed reads transfer nothing, so the error rate folds
  // into the egress rate.  Closes any open window and opens one at `now`
  // unless the event restores the nominal rate.
  void Degrade(const FaultEvent& event, Seconds now);

  // Whether no server is down: every zone's alive fraction is then 1.
  bool AllServersAlive() const { return alive_servers_ == base_.num_servers; }
  double ZoneAliveFraction(int zone) const {
    return static_cast<double>(zone_alive_[static_cast<std::size_t>(zone)]) /
           zone_size_[static_cast<std::size_t>(zone)];
  }

  // End of the run at `end`: closes an open window, counts undelivered
  // events as ignored and fills each window's avg_throughput.
  FaultStats Finish(Seconds end, const TimeSeries& total_throughput);

 private:
  bool SetAlive(int server, bool alive);
  void CloseDegradeWindow(Seconds end);

  FaultInjector injector_;
  std::vector<FaultEvent> due_;
  ClusterResources base_;  // Nominal resources.
  ClusterResources resources_;
  std::vector<bool> server_alive_;
  int alive_servers_ = 0;
  std::vector<int> server_zone_;  // Empty when zone-oblivious.
  std::vector<int> zone_size_;
  std::vector<int> zone_alive_;
  Seconds degrade_start_ = -1;  // Open degrade window, -1 if none.
  FaultStats stats_;
};

}  // namespace silod

#endif  // SILOD_SRC_SIM_CLUSTER_FAULT_STATE_H_
