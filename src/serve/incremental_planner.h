// The silodd planning core: epoch-batched full re-solves (docs/MODEL.md §11).
//
// The planner owns a scheduler built from a policy name (core/policy_registry.h).
// SiloD's control loop is a pure function of the cluster snapshot, so every
// re-solve is a full Scheduler::Schedule over the service's snapshot — the
// same call the batch engines make, hence bit-identical to them for every
// policy.  The service notes each scheduler-visible mutation (admission,
// completion, active cancel, progress report, policy reload) with
// NoteEvent(); PlanFor() decides whether the cached plan is still servable:
//
//   - no pending events               -> reuse the cached plan (reused_plans);
//   - pending events and a re-solve
//     is due                          -> Scheduler::Schedule (full_solves).
//
// Epoch batching: a re-solve is due when events are pending AND (enough
// events coalesced, OR the min-replan interval elapsed since the last solve,
// OR the caller forces it).  Between due points queries serve the cached
// plan, so a burst of N arrivals costs one solve, not N.  The decision reads
// only the pending-event count and the last solve time, which is exactly what
// a journal checkpoint saves (RestoreEpoch).
#ifndef SILOD_SRC_SERVE_INCREMENTAL_PLANNER_H_
#define SILOD_SRC_SERVE_INCREMENTAL_PLANNER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "src/core/policy_registry.h"

namespace silod {

struct PlanningOptions {
  // Coalescing window: with events pending, wait until this much virtual
  // time passed since the last solve (0 = re-solve on every event).
  Seconds min_replan_interval = 0;
  // ... unless this many events already coalesced, which forces the tick
  // early (1 = every event plans immediately, batching disabled).
  std::uint64_t max_coalesced_events = 1;
};

class IncrementalPlanner {
 public:
  // kNotFound (listing known policies) for unknown names; kInvalidArgument
  // for a negative or NaN min_replan_interval.
  static Result<std::unique_ptr<IncrementalPlanner>> Create(const std::string& policy,
                                                            const SchedulerOptions& options,
                                                            const PlanningOptions& planning);

  // Swaps the scheduler for `policy` without losing job state; counts as an
  // event, so the next forced plan re-solves.
  Status ReloadPolicy(const std::string& policy, const SchedulerOptions& options);

  // One scheduler-visible mutation since the last solve.
  void NoteEvent() { ++pending_events_; }

  // Re-solves when events are pending and a re-solve is due (or `force`);
  // returns true iff it did.  The snapshot must reflect every noted event.
  bool PlanFor(const Snapshot& snapshot, bool force);
  // The cached plan: the last solve's result.
  const AllocationPlan& plan() const { return plan_; }

  const std::string& policy_name() const { return policy_; }
  // -inf until the first solve, so the first plan is always due.
  Seconds last_plan_time() const { return last_plan_time_; }
  std::uint64_t pending_events() const { return pending_events_; }

  // Journal recovery: restores the epoch a checkpoint saved, so re-solves
  // fall due at the same virtual instants as in the uninterrupted run, and
  // rebuilds the cached plan from `snapshot` (not counted as a solve).
  void RestoreEpoch(Seconds last_plan_time, std::uint64_t pending_events,
                    const Snapshot& snapshot);

  std::uint64_t full_solves() const { return full_solves_; }
  std::uint64_t reused_plans() const { return reused_plans_; }
  std::uint64_t planning_ticks() const { return planning_ticks_; }

 private:
  IncrementalPlanner(std::string policy, PlanningOptions planning,
                     std::shared_ptr<Scheduler> scheduler);

  std::string policy_;
  PlanningOptions planning_;
  std::shared_ptr<Scheduler> scheduler_;

  AllocationPlan plan_;
  Seconds last_plan_time_ = -std::numeric_limits<Seconds>::infinity();
  std::uint64_t pending_events_ = 1;  // The initial plan.

  std::uint64_t full_solves_ = 0;
  std::uint64_t reused_plans_ = 0;
  std::uint64_t planning_ticks_ = 0;
};

}  // namespace silod

#endif  // SILOD_SRC_SERVE_INCREMENTAL_PLANNER_H_
