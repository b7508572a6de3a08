// Trace replay through the silodd service, cross-checked against the batch
// engine (docs/MODEL.md §11).
//
// The daemon does not simulate time — it is a control plane fed virtual
// timestamps.  So the replay harness runs the batch flow engine first to
// learn when each job *would* finish, then drives a ServiceState with the
// same history as timed requests: submit at each job's submit_time, complete
// at its engine-computed finish time, in event order.  Both sides then
// assemble a RunReport through the shared FillJctSummary, and because the
// daemon's JCTs are built from the exact same submit/finish doubles the two
// JCT summaries must agree bit-for-bit — any drift means the daemon's
// bookkeeping (clock advance, id assignment, report assembly) broke.
//
// silod_client --serve-trace is the socket-transport version of this
// harness; tests and the in-process path use it directly.
#ifndef SILOD_SRC_SIM_SERVE_REPLAY_H_
#define SILOD_SRC_SIM_SERVE_REPLAY_H_

#include <string>
#include <vector>

#include "src/serve/service.h"
#include "src/sim/cluster.h"
#include "src/sim/metrics.h"
#include "src/workload/trace_gen.h"

namespace silod {

// One timed daemon request of the replay schedule.
struct ReplayEvent {
  Seconds t = 0;
  bool complete = false;  // false = submit.
  std::size_t job = 0;    // Index into trace.jobs.
};

// The replay schedule for `trace`: submits at submit_time, completes at the
// engine's finish times, sorted by (time, completes-first, job index).
std::vector<ReplayEvent> BuildReplaySchedule(const Trace& trace, const SimResult& result);

// Encodes trace job `job` as a submit request at time `t` (shared by the
// in-process harness and silod_client --serve-trace).  A nonzero `rid` tags
// the request for the daemon's idempotent-retry dedup (service.h); 0 omits
// the tag.  --serve-trace passes the 1-based event index, which is monotone
// across the schedule, so a re-replay over a recovered daemon turns the
// already-applied prefix into duplicate=1 no-ops.
ServeRequest SubmitRequestFor(const Trace& trace, std::size_t job, Seconds t,
                              std::uint64_t rid = 0);
ServeRequest CompleteRequestFor(const Trace& trace, std::size_t job, Seconds t,
                                std::uint64_t rid = 0);

struct ReplayOutcome {
  RunReport batch;  // The flow engine's report ("flow").
  RunReport serve;  // The daemon's report ("serve").
  // avg/median/p90 JCT, makespan and job counts agree exactly.
  bool jct_identical = false;
};

// Runs `policy` over `trace` on the batch flow engine, replays the history
// through a fresh in-process ServiceState (wide-open admission, so the
// daemon's gate cannot diverge from the engine's waiting pool), and compares
// reports.  Any daemon request failing mid-replay is an error.
Result<ReplayOutcome> ReplayTraceThroughService(const Trace& trace, const SimConfig& config,
                                                const std::string& policy,
                                                const SchedulerOptions& scheduler_options);

// The comparison ReplayTraceThroughService applies (exposed for the CLI).
bool JctSummariesIdentical(const RunReport& a, const RunReport& b);

}  // namespace silod

#endif  // SILOD_SRC_SIM_SERVE_REPLAY_H_
