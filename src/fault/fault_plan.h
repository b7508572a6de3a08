// Deterministic fault injection for SiloD (§6, "Fault tolerance").
//
// The paper argues that SiloD's failure handling costs only performance,
// never correctness: allocation decisions live in durable pod annotations,
// cache content is best-effort, and every component recovers by rebuilding
// in-memory state from the durable pieces.  A FaultPlan makes that claim
// testable — it is a seedable, sorted schedule of adversarial events that
// both simulation engines and the real-thread runtime consume:
//
//   - cache-server crashes: the crashed server's resident blocks are lost and
//     the pool shrinks until the server recovers (empty);
//   - remote-store degradation windows: the account egress rate drops by a
//     factor and reads fail transiently with some probability;
//   - job-worker crashes: the job loses its GPUs, its in-flight fetch and its
//     private cache, and is re-admitted by the scheduler after a restart
//     delay (training progress is checkpointed, so no fetched-and-consumed
//     work is repeated);
//   - Data-Manager restarts: the in-memory allocation/cache state is
//     discarded and rebuilt through the recovery path (core/recovery.h).
//
// Plans are plain data (no clock, no RNG at consumption time), so the same
// plan replays bit-identically in virtual and wall-clock time.
//
// Failure domains: the spec language additionally understands *zones* —
// named, contiguous server ranges (`zone name=rack0 servers=0-3`).  A
// `zone-crash` takes the whole domain down at one timestamp and recovers its
// members on a per-server stagger, and a `degrade` may be anchored to the
// zone's recovery instant so refill traffic lands inside the degraded
// window.  Zones are parse-time sugar: expanded plans contain only the
// primitive events above, so Parse(ToSpec()) stays the identity.
#ifndef SILOD_SRC_FAULT_FAULT_PLAN_H_
#define SILOD_SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/topology.h"
#include "src/common/units.h"

namespace silod {

enum class FaultKind {
  kCacheServerCrash,    // target = server index; its blocks are lost.
  kCacheServerRecover,  // target = server index; rejoins empty.
  kRemoteDegrade,       // severity = rate factor (0,1]; error_rate = P[read fails].
                        // severity 1 / error_rate 0 ends the window.
  kWorkerCrash,         // target = job id.
  kWorkerRestart,       // target = job id; the scheduler may re-admit it.
  kDataManagerRestart,  // rebuild through CaptureSnapshot/RestoreDataManager.
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  Seconds time = 0;
  FaultKind kind = FaultKind::kRemoteDegrade;
  int target = -1;          // Server or job id; unused for global events.
  double severity = 1.0;    // kRemoteDegrade: egress rate factor in (0, 1].
  double error_rate = 0.0;  // kRemoteDegrade: transient read-error probability.

  bool operator==(const FaultEvent&) const = default;
};

// A sorted schedule of fault events.  Durations in the spec language expand
// to explicit paired events (crash+recover, degrade+restore, crash+restart),
// so consumers never track timers of their own.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  // Stable sort by time; equal-time events keep spec order.
  void Sort();

  // Canonical one-line spec: events joined by "; ".  Parse(ToSpec()) is the
  // identity on sorted plans.
  std::string ToSpec() const;

  // Parses a semicolon-separated spec.  Each event is a kind name followed by
  // key=value tokens:
  //   server-crash   t=<sec> server=<id> [down=<sec>]     (down>0 adds recover)
  //   server-recover t=<sec> server=<id>
  //   degrade        t=<sec> [factor=<f>] [err=<p>] [for=<sec>]
  //   worker-crash   t=<sec> job=<id> [restart=<sec>]     (default restart=60)
  //   worker-restart t=<sec> job=<id>
  //   dm-restart     t=<sec>
  // Failure-domain sugar (expanded to the primitives above):
  //   zone           name=<id> servers=<a>-<b>            (declaration, no event)
  //   zone-crash     t=<sec> zone=<id> [down=<sec>] [stagger=<sec>]
  //       every member server crashes at t; member i recovers at
  //       t + down + i*stagger (down=0 means no recovery)
  //   degrade        anchor=<zone> [t=<offset>] [factor=<f>] [err=<p>] [for=<sec>]
  //       the window opens at <offset> seconds after the first recovery
  //       instant (t + down) of the zone's most recent zone-crash
  // Returns the sorted, duration-expanded plan.  When `zones` is non-null it
  // receives the spec's zone declarations (in declaration order) so callers
  // can derive a ClusterTopology from the same failure domains the plan
  // crashes — expanded plans still contain only primitive events.
  static Result<FaultPlan> Parse(const std::string& spec,
                                 std::vector<TopologyZone>* zones = nullptr);
};

// The fault-plan spec language and common/topology.h share one zone type: a
// failure domain declared for crashing is the same failure domain the
// placement spreads against.
using FaultZone = TopologyZone;

// Correlated churn for one zone: zone-crash arrivals are Poisson on the
// zone's own forked stream, so changing one zone's rate (or downtime) leaves
// every other zone's event times untouched.
struct ZoneChurn {
  FaultZone zone;
  double crashes_per_hour = 0;
  Seconds downtime = Minutes(15);        // First member recovers after this.
  Seconds recovery_stagger = 30;         // Member i recovers i*stagger later.
  // A recovery-anchored degrade window (factor < 1 enables it): opens at the
  // first recovery instant, so refill traffic lands inside the window.
  double recovery_degrade_factor = 1.0;
  double recovery_degrade_error_rate = 0;
  Seconds recovery_degrade_duration = Minutes(10);
};

// Seeded churn-plan generator: Poisson arrivals per fault category over the
// horizon, uniform targets.  Deterministic in (options, seed).
struct FaultChurnOptions {
  Seconds horizon = Hours(24);
  double server_crashes_per_hour = 0;
  double worker_crashes_per_hour = 0;
  double degrade_windows_per_hour = 0;
  double dm_restarts_per_hour = 0;
  Seconds mean_server_downtime = Minutes(15);
  Seconds worker_restart_delay = Minutes(2);
  Seconds degrade_duration = Minutes(10);
  double degrade_factor = 0.25;    // Egress rate factor inside a window.
  double degrade_error_rate = 0;   // Transient-error probability inside it.
  int num_servers = 1;             // Crash targets drawn uniformly.
  int num_jobs = 1;
  std::uint64_t seed = 1;
  // Correlation mode: whole-zone crashes on per-zone forked streams, in
  // addition to (not instead of) the independent categories above.
  std::vector<ZoneChurn> zones;
};

// Cap on a churn plan's expected arrivals: rate x horizon, summed over the
// categories and zones.
inline constexpr double kMaxExpectedFaultEvents = 1e6;

// InvalidArgument naming the first category or zone rate, or the horizon,
// that is negative or not finite, or rates past the cap.  A huge rate stops
// `t += gap` advancing, and the generator would never return.
Status ValidateFaultChurnOptions(const FaultChurnOptions& options);

// SILOD_CHECKs ValidateFaultChurnOptions.
FaultPlan GenerateFaultPlan(const FaultChurnOptions& options);

// Parses the --fault-zone flag: ";"-separated zone specs, each a ":"-joined
// list of key=value fields:
//   zone=<name>:servers=<a>-<b>[:crashes-per-hour=<r>][:down=<sec>]
//     [:stagger=<sec>][:degrade-factor=<f>][:degrade-err=<p>][:degrade-for=<sec>]
Result<std::vector<ZoneChurn>> ParseZoneChurnSpec(const std::string& spec);

// What a consumer did with a plan; reported in SimResult (engines) so churn
// sweeps can attribute throughput loss to specific outage windows.
struct FaultStats {
  int server_crashes = 0;
  int server_recoveries = 0;
  int worker_crashes = 0;
  int worker_restarts = 0;
  int degrade_windows = 0;
  int dm_restarts = 0;
  // Events the consumer cannot model; counted rather than silently dropped.
  int ignored_events = 0;
  // Blocks evicted because their server crashed.
  std::int64_t blocks_lost = 0;
  // Same loss in bytes (fluid engines lose fractional blocks), and its
  // attribution to topology zones when the run is zone-aware.  Oblivious
  // runs leave the map empty.
  double bytes_lost = 0;
  std::map<std::string, std::int64_t> blocks_lost_by_zone;
  // RestartCost accounting: blocks (fine engine) / bytes (flow engine)
  // re-read because a worker crash discarded un-checkpointed progress, and
  // the staged compute-seconds that were discarded with them.
  std::int64_t blocks_refetched = 0;
  double bytes_refetched = 0;
  double compute_lost = 0;

  // Per-window degraded throughput: the time-average of the run's total
  // throughput over each outage window (Fig. 9-style attribution).
  struct Window {
    std::string label;
    Seconds start = 0;
    Seconds end = 0;
    double avg_throughput = 0;  // Bytes/s while the window was open.
  };
  std::vector<Window> windows;
};

}  // namespace silod

#endif  // SILOD_SRC_FAULT_FAULT_PLAN_H_
