// Simulation-wide cluster configuration.
#ifndef SILOD_SRC_SIM_CLUSTER_H_
#define SILOD_SRC_SIM_CLUSTER_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/fault/fault_plan.h"
#include "src/fault/restart_cost.h"
#include "src/sched/allocation.h"
#include "src/storage/fabric.h"

namespace silod {

struct Trace;

struct SimConfig {
  ClusterResources resources;
  // How often the scheduler re-evaluates allocations between job events.
  Seconds reschedule_period = Minutes(10);
  // Fabric serving cache hits (fine engine); peers read near local speed.
  FabricConfig fabric;
  // Hoard-style prefetching ([58], §8): leftover egress bandwidth warms the
  // datasets of queued jobs into *unallocated* cache, in queue order, so jobs
  // start with an effective cache instead of a cold first epoch.  Prefetched
  // data is opportunistic: it is evicted first whenever the scheduler's
  // quota allocations need the space.  Flow engine only.
  bool prefetch_waiting = false;
  // Work-time lost when a preempted job resumes (checkpoint restore,
  // pipeline refill).  Charged by the flow engine for plans produced by
  // preemptive schedulers (SRTF); the fine engine rejects such plans.
  Seconds preempt_resume_penalty = 30.0;
  std::uint64_t seed = 42;
  // Hard stop for runaway simulations: the run ends there, and the jobs with
  // no finish time are reported unfinished (RunReport::unfinished_jobs).
  Seconds max_time = Days(365);
  // Adversarial cluster conditions: both engines consume the plan from their
  // event loops and reschedule immediately on every failure/recovery (§6).
  FaultPlan faults;
  // What a worker crash discards (fault/restart_cost.h): the default keeps
  // today's freeze-and-resume behaviour; the other policies re-enqueue lost
  // compute and re-fetch lost blocks, accounted in FaultStats.
  RestartCost restart_cost;
  // Failure domains of the cache servers (common/topology.h).  Empty =
  // zone-oblivious (bit-identical to pre-topology behaviour).  When set it
  // must cover [0, resources.num_servers) — ClusterTopology::Cover adds the
  // implicit singleton domains; the engines thread it into every Snapshot
  // and charge crashes the crashed zone's share of each spread dataset.
  ClusterTopology topology;
};

// What every engine requires: a non-empty trace with dense job ids and known
// datasets, usable storage and at least one server (ValidateStorageResources),
// zones within the servers, typed-GPU counts summing to the cluster's GPUs,
// and no gang wider than the cluster or the widest type pool (it would wait
// forever).  InvalidArgument names the first violation.
Status ValidateSimInputs(const Trace& trace, const SimConfig& config);

// The engines' constructor preamble: SILOD_CHECKs ValidateSimInputs and
// Cover()s a declared topology (uncovered servers become singleton zones).
SimConfig PrepareSimConfig(const Trace* trace, SimConfig config);

}  // namespace silod

#endif  // SILOD_SRC_SIM_CLUSTER_H_
