// JobLifecycle: which jobs the scheduler sees, shared by both simulation
// engines (docs/MODEL.md §9), the job-side twin of ClusterFaultState: the
// arrival order and cursor, each job's phase (pending -> live <-> crashed ->
// finished), and the live and the present (live or crashed) ids, ascending
// so a walk visits jobs in the order a loop over every id would.  What a
// live job is doing is each engine's physics.  Below the class: the rest of
// the step-loop plumbing both engines share.
#ifndef SILOD_SRC_SIM_JOB_LIFECYCLE_H_
#define SILOD_SRC_SIM_JOB_LIFECYCLE_H_

#include <cstdint>
#include <vector>

#include "src/common/topology.h"
#include "src/common/units.h"
#include "src/fault/fault_plan.h"
#include "src/sched/policy.h"
#include "src/workload/trace_gen.h"

namespace silod {

// Both engines' tolerance on event times: what is due by t + kTimeEps is due at t.
inline constexpr Seconds kTimeEps = 1e-9;

class JobLifecycle {
 public:
  // `trace` has dense job ids (PrepareSimConfig) and outlives this.
  explicit JobLifecycle(const Trace* trace);

  // Submit time of the next pending job; kInfiniteTime once all arrived.
  // Inline, like ArriveUntil: both engines call them on every step.
  Seconds NextArrivalTime() const {
    return next_arrival_ < arrivals_.size()
               ? trace_->jobs[static_cast<std::size_t>(arrivals_[next_arrival_])].submit_time
               : kInfiniteTime;
  }
  // Every pending job submitted at or before `until` goes live.  True when
  // any did.
  bool ArriveUntil(Seconds until) {
    const std::size_t first = next_arrival_;
    while (NextArrivalTime() <= until) {
      Move(arrivals_[next_arrival_++], Phase::kPending, Phase::kLive);
    }
    return next_arrival_ > first;
  }

  // kWorkerCrash: a live target whose worker is up (`jobs[id].running`)
  // goes crashed and counts in stats.worker_crashes; true, and the engine's
  // loss model runs.  Any other target counts as ignored.
  template <typename Jobs>
  bool CrashWorker(int target, const Jobs& jobs, FaultStats& stats) {
    if (!Is(target, Phase::kLive) || !jobs[static_cast<std::size_t>(target)].running) {
      ++stats.ignored_events;  // Queued jobs have no worker to crash.
      return false;
    }
    ++stats.worker_crashes;
    Move(target, Phase::kLive, Phase::kCrashed);
    return true;
  }
  // kWorkerRestart: a crashed target goes live again, for the reschedule
  // the fault triggers to re-admit; any other target counts as ignored.
  void RestartWorker(int target, FaultStats& stats);

  void Finish(JobId id);  // live -> finished.
  // Visits the live jobs in ascending id; those `step` returns true for
  // finish.  `step` must not change phases itself.
  template <typename Step>
  void FinishWhere(Step&& step) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const JobId id = live_[i];
      if (step(id)) {
        phase_[static_cast<std::size_t>(id)] = Phase::kFinished;
      } else {
        live_[kept++] = id;
      }
    }
    live_.resize(kept);
    std::erase_if(present_, [&](JobId id) { return Is(id, Phase::kFinished); });
  }

  // Arrived and not finished: live or crashed.
  bool Present(JobId id) const { return Is(id, Phase::kLive) || Is(id, Phase::kCrashed); }
  const std::vector<JobId>& live() const { return live_; }
  const std::vector<JobId>& present() const { return present_; }

  // The scheduler's view at `now` under `resources`: `view(id)` for each
  // live job, ascending; the topology when it declares zones or GPU types.
  template <typename View>
  Snapshot MakeSnapshot(Seconds now, const ClusterResources& resources,
                        const ClusterTopology& topology, View&& view) const {
    Snapshot snap;
    snap.now = now;
    snap.resources = resources;
    snap.catalog = &trace_->catalog;
    if (!topology.empty() || topology.has_gpu_types()) {
      snap.topology = &topology;
    }
    snap.jobs.reserve(live_.size());
    for (const JobId id : live_) {
      snap.jobs.push_back(view(id));
    }
    AnnotateSnapshotSpeeds(&snap);
    return snap;
  }

 private:
  enum class Phase : std::uint8_t { kPending, kLive, kCrashed, kFinished };

  // False for an id out of range.
  bool Is(int id, Phase phase) const {
    return id >= 0 && static_cast<std::size_t>(id) < phase_.size() &&
           phase_[static_cast<std::size_t>(id)] == phase;
  }
  // SILOD_CHECKs `from`; keeps live_ and present_ in step with phase_.
  void Move(JobId id, Phase from, Phase to);

  const Trace* trace_;
  std::vector<JobId> arrivals_;  // Ids by submit time.
  std::size_t next_arrival_ = 0;
  std::vector<Phase> phase_;     // Indexed by JobId.
  std::vector<JobId> live_;      // Ascending.
  std::vector<JobId> present_;   // Ascending.
};

// Reschedule's solve: false, with `plan` reset, for an empty snapshot; else
// the scheduler's plan, SILOD_CHECKed valid under the snapshot's resources.
bool SolvePlan(Scheduler& scheduler, const Snapshot& snap, AllocationPlan* plan);

// An event of no FaultKind is an invariant violation: logged, not counted.
void LogInvalidFaultKind(const FaultEvent& event);

}  // namespace silod

#endif  // SILOD_SRC_SIM_JOB_LIFECYCLE_H_
