// silodd request handling, socket-free (docs/MODEL.md §11).
//
// ServiceState is the whole daemon minus the transport: a job table, an
// admission controller, the policy's scheduler with its cached plan, and a
// virtual clock, driven one ServeRequest at a time.  The Unix-socket server
// (serve/server.h), the in-process replay harness (sim/serve_replay.h) and
// the unit tests all speak to the same Handle() entry point, so every
// daemon behaviour is testable without sockets.
//
// Time is virtual and carried by the requests: every mutating verb takes a
// `t=<seconds>` argument and the clock advances to max(now, t).  That makes
// the daemon a deterministic function of the request sequence — the property
// the journal-recovery identity tests and the trace cross-check build on.
//
// One re-solve rule (docs/MODEL.md §11): each scheduler-visible mutation
// (admission, completion, active cancel, progress report, policy reload)
// notes a pending event, and the request re-solves the full
// Scheduler::Schedule over the snapshot exactly when an event is pending.
// A `plan` with nothing pending serves the cached plan.
//
// Verbs (key=value args, serve/proto.h encoding):
//   submit   key= t= gpus= ideal-io= total-bytes= dataset= dataset-size=
//            [block-size=] [step-bytes=] [model=]
//              -> decision=admitted|queued [job=<id>] [position=<n>]
//                 (resource-exhausted when admission rejects)
//   complete key= t=                -> state=completed
//   cancel   key= t=                -> state=cancelled
//   progress key= t= remaining= [effective=]   -> state=active
//   query    key=                   -> state= gpus= running= remote-io= ...
//   plan     [t=]                   -> digest= running= gpus-used= ...
//   stats                           -> counters (see Handle)
//   reload-policy policy= [manage-remote-io=]  -> policy=
//   report                          -> json=<RunReport JSON>
//   checkpoint                      -> compacts the attached journal
//   shutdown                        -> ok (server loop exits)
//
// Durability (docs/MODEL.md §12): with a journal attached, every mutating
// request (submit/complete/cancel/progress/reload-policy/plan) is appended
// to the write-ahead log BEFORE it is applied; recovery replays the
// surviving records through this same Handle() so the rebuilt state is
// bit-identical (StateDigest(), the `state-digest` stats field, pins it).
// Mutating requests may carry a monotonically increasing `rid=`; a rid at or
// below the last applied one is acknowledged as duplicate=1 without being
// re-applied or re-journaled, which makes client retries over a daemon
// restart exactly-once.
#ifndef SILOD_SRC_SERVE_SERVICE_H_
#define SILOD_SRC_SERVE_SERVICE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/topology.h"
#include "src/core/policy_registry.h"
#include "src/serve/admission.h"
#include "src/serve/job_table.h"
#include "src/serve/journal.h"
#include "src/serve/proto.h"
#include "src/sim/metrics.h"

namespace silod {

struct ServiceConfig {
  std::string policy = "fifo+silod";
  SchedulerOptions scheduler;
  ClusterResources resources;
  // Empty = zone-oblivious; otherwise covered against num_servers like the
  // engines do.
  ClusterTopology topology;
  AdmissionOptions admission;
};

// True for verbs the journal must capture: everything that moves the job
// table, the admission queue, the policy, or the plan's running flags
// (`plan` solves any pending event and stamps first-start times, so it
// counts).
bool IsMutatingVerb(const std::string& verb);

// What journal recovery found and replayed (reported by silodd at startup).
struct RecoveryInfo {
  bool from_checkpoint = false;
  std::uint64_t replayed_requests = 0;
  std::uint64_t replayed_errors = 0;  // Requests that errored on replay too.
  std::uint64_t dropped_bytes = 0;    // Torn tail truncated by the scan.
  std::vector<std::string> warnings;  // e.g. checkpoint/flag mismatches.
};

class ServiceState {
 public:
  static Result<std::unique_ptr<ServiceState>> Create(ServiceConfig config);

  // Crash-safe construction: opens (creating if absent) the journal, restores
  // the latest checkpoint, replays surviving request records through the
  // normal dispatch path, then attaches the journal so new mutations append.
  // Torn tails are truncated, never fatal; an undecodable CRC-valid record or
  // checkpoint is (it means a version/config mismatch, not a crash).
  static Result<std::unique_ptr<ServiceState>> CreateFromJournal(ServiceConfig config,
                                                                 const JournalOptions& journal,
                                                                 RecoveryInfo* recovery);

  // Dispatches one request; never throws, all failures travel as error
  // responses.  Mutating verbs advance the virtual clock.
  ServeResponse Handle(const ServeRequest& request);

  // True once a shutdown request was handled; the server loop exits.
  bool shutdown_requested() const { return shutdown_; }

  // The run report over all jobs the daemon accepted, in JobId order; the
  // JCT summary goes through FillJctSummary so it is comparable bit-for-bit
  // with a batch engine run fed the same submit/complete times.
  RunReport Report() const;

  // Test/replay access: the current plan (re-solving if an event is pending)
  // and the scheduler snapshot the next solve would see.
  const AllocationPlan& PlanNow();
  Snapshot MakeSnapshot() const;

  Seconds now() const { return now_; }
  std::uint64_t last_rid() const { return last_rid_; }
  bool manages_remote_io() const { return config_.scheduler.manage_remote_io; }
  const std::string& policy_name() const { return config_.policy; }
  // The plan the last solve produced (or the checkpoint restore rebuilt).
  const AllocationPlan& plan() const { return plan_; }
  // -inf until the first solve.
  Seconds last_plan_time() const { return last_plan_time_; }
  // Scheduler-visible events since the last solve; the next Replan solves
  // iff this is > 0.
  std::uint64_t pending_events() const { return pending_events_; }
  std::uint64_t full_solves() const { return full_solves_; }
  // Plan reads (the `plan` verb, PlanNow) that found nothing pending and
  // served the cached plan.
  std::uint64_t reused_plans() const { return reused_plans_; }
  const AdmissionController& admission() const { return *admission_; }
  const JobTable& jobs() const { return table_; }

  // A hash of the recovery-relevant state (docs/MODEL.md §12): FNV-1a over
  // the policy, the remote-IO flag, the virtual clock, the last applied rid,
  // the admission counters, the last plan time, the catalog's running FNV-1a,
  // the job count, and the wrapping sum of JobStateHash over every job.  The
  // completed and cancelled jobs' hashes are folded into that sum once, after
  // the request or checkpoint restore that ended them, so a call costs
  // O(active + queued), not O(history).  A digest taken before SIGKILL must
  // equal the digest after recovery; volatile observability counters
  // (requests_, the solve counts) are deliberately excluded.
  std::uint64_t StateDigest() const;

  // Checkpoint text for compaction (silodd-checkpoint-v1, journal.h) and its
  // inverse.  Restore requires an empty (freshly created) service.
  std::string CheckpointText() const;
  Status RestoreFromCheckpoint(const std::string& text, RecoveryInfo* recovery);

  // Makes mutations durable before they apply; replaces any prior journal.
  void AttachJournal(std::unique_ptr<Journal> journal) { journal_ = std::move(journal); }
  const Journal* journal() const { return journal_.get(); }
  // Flushes batched appends (graceful shutdown); no-op without a journal.
  Status SyncJournal();

 private:
  explicit ServiceState(ServiceConfig config);

  ServeResponse Submit(const ServeRequest& request);
  ServeResponse Complete(const ServeRequest& request);
  ServeResponse Cancel(const ServeRequest& request);
  ServeResponse Progress(const ServeRequest& request);
  ServeResponse Query(const ServeRequest& request);
  ServeResponse Plan(const ServeRequest& request);
  ServeResponse Stats();
  ServeResponse ReloadPolicy(const ServeRequest& request);
  ServeResponse Checkpoint();
  // RestoreFromCheckpoint's body; its errors get one "journal checkpoint:"
  // kInternal wrapper.
  Status ApplyCheckpoint(const std::string& text, RecoveryInfo* recovery);
  // The dispatch switch shared by live handling and journal replay.
  ServeResponse Dispatch(const ServeRequest& request);

  // Re-solves iff an event is pending and syncs per-job running flags /
  // first-start times with the new plan.
  void Replan();
  // Swaps the scheduler for `policy` without losing job state; counts as an
  // event.  kNotFound (listing known policies) for unknown names.
  Status SetPolicy(const std::string& policy, const SchedulerOptions& options);
  // Admits queued jobs (FIFO) that now pass the load gate, one event each.
  void PromoteQueued();
  Status AdvanceClock(const ServeRequest& request);

  ServiceConfig config_;
  ClusterTopology covered_topology_;
  JobTable table_;
  std::unique_ptr<AdmissionController> admission_;
  std::shared_ptr<Scheduler> scheduler_;
  AllocationPlan plan_;
  Seconds last_plan_time_ = -std::numeric_limits<Seconds>::infinity();
  std::uint64_t pending_events_ = 1;  // The initial plan.
  std::uint64_t full_solves_ = 0;
  std::uint64_t reused_plans_ = 0;
  std::unique_ptr<Journal> journal_;
  Seconds now_ = 0;
  bool shutdown_ = false;
  bool replaying_ = false;  // Recovery replay: skip journaling/auto-compact.
  std::uint64_t requests_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t last_rid_ = 0;    // Highest rid a successful mutation carried.
  std::uint64_t duplicates_ = 0;  // Mutations acknowledged as rid duplicates.
  std::uint64_t checkpoints_ = 0;
  RecoveryInfo recovery_;  // Zeroed unless CreateFromJournal built us.
};

}  // namespace silod

#endif  // SILOD_SRC_SERVE_SERVICE_H_
