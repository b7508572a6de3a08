#include "src/serve/incremental_planner.h"

#include <utility>

namespace silod {

IncrementalPlanner::IncrementalPlanner(std::string policy, PlanningOptions planning,
                                       std::shared_ptr<Scheduler> scheduler)
    : policy_(std::move(policy)), planning_(planning), scheduler_(std::move(scheduler)) {}

Result<std::unique_ptr<IncrementalPlanner>> IncrementalPlanner::Create(
    const std::string& policy, const SchedulerOptions& options, const PlanningOptions& planning) {
  if (!(planning.min_replan_interval >= 0)) {
    return Status::InvalidArgument("replan interval must be >= 0 s, got " +
                                   std::to_string(planning.min_replan_interval));
  }
  Result<std::shared_ptr<Scheduler>> scheduler = MakeSchedulerByName(policy, options);
  if (!scheduler.ok()) {
    return scheduler.status();
  }
  return std::unique_ptr<IncrementalPlanner>(
      new IncrementalPlanner(policy, planning, std::move(scheduler).value()));
}

Status IncrementalPlanner::ReloadPolicy(const std::string& policy,
                                        const SchedulerOptions& options) {
  Result<std::shared_ptr<Scheduler>> scheduler = MakeSchedulerByName(policy, options);
  if (!scheduler.ok()) {
    return scheduler.status();
  }
  policy_ = policy;
  scheduler_ = std::move(scheduler).value();
  NoteEvent();
  return Status::Ok();
}

bool IncrementalPlanner::PlanFor(const Snapshot& snapshot, bool force) {
  ++planning_ticks_;
  const bool due = pending_events_ > 0 &&
                   (force || pending_events_ >= planning_.max_coalesced_events ||
                    snapshot.now - last_plan_time_ >= planning_.min_replan_interval);
  if (!due) {
    ++reused_plans_;
    return false;
  }
  plan_ = scheduler_->Schedule(snapshot);
  ++full_solves_;
  last_plan_time_ = snapshot.now;
  pending_events_ = 0;
  return true;
}

void IncrementalPlanner::RestoreEpoch(Seconds last_plan_time, std::uint64_t pending_events,
                                      const Snapshot& snapshot) {
  plan_ = scheduler_->Schedule(snapshot);
  last_plan_time_ = last_plan_time;
  pending_events_ = pending_events;
}

}  // namespace silod
