#include "src/sim/job_lifecycle.h"

#include <algorithm>

#include "src/common/logging.h"

namespace silod {

JobLifecycle::JobLifecycle(const Trace* trace)
    : trace_(trace), phase_(trace->jobs.size(), Phase::kPending) {
  arrivals_.reserve(trace_->jobs.size());
  for (const JobSpec& spec : trace_->jobs) {
    arrivals_.push_back(spec.id);
  }
  std::sort(arrivals_.begin(), arrivals_.end(), [&](JobId a, JobId b) {
    return trace_->jobs[static_cast<std::size_t>(a)].submit_time <
           trace_->jobs[static_cast<std::size_t>(b)].submit_time;
  });
}

void JobLifecycle::RestartWorker(int target, FaultStats& stats) {
  if (!Is(target, Phase::kCrashed)) {
    ++stats.ignored_events;
    return;
  }
  Move(target, Phase::kCrashed, Phase::kLive);
  ++stats.worker_restarts;
}

void JobLifecycle::Finish(JobId id) { Move(id, Phase::kLive, Phase::kFinished); }

void JobLifecycle::Move(JobId id, Phase from, Phase to) {
  SILOD_CHECK(Is(id, from)) << "job " << id << " is not in phase " << static_cast<int>(from);
  const auto set = [id](std::vector<JobId>& ids, bool member) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (member) {
      ids.insert(it, id);
    } else {
      ids.erase(it);
    }
  };
  if (from == Phase::kLive || to == Phase::kLive) {
    set(live_, to == Phase::kLive);
  }
  if (from == Phase::kPending || to == Phase::kFinished) {
    set(present_, from == Phase::kPending);
  }
  phase_[static_cast<std::size_t>(id)] = to;
}

bool SolvePlan(Scheduler& scheduler, const Snapshot& snap, AllocationPlan* plan) {
  if (snap.jobs.empty()) {
    *plan = AllocationPlan{};
    return false;
  }
  *plan = scheduler.Schedule(snap);
  const Status valid = plan->Validate(snap.resources);
  SILOD_CHECK(valid.ok()) << "invalid plan from " << scheduler.name() << ": "
                          << valid.ToString();
  return true;
}

void LogInvalidFaultKind(const FaultEvent& event) {
  SILOD_LOG(Error) << "fault event with invalid kind " << static_cast<int>(event.kind)
                   << " dropped";
}

}  // namespace silod
