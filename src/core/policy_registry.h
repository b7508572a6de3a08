// Algorithm 1: composing scheduling policies with cache systems.
//
// SiloD's framework is "any performance-aware scheduler + the SiloDPerf
// estimator + storage in totalResource".  MakeScheduler builds every
// (scheduler, cache system) pair evaluated in §7:
//
//               SiloD                     Alluxio / CoorDL / Quiver
//   FIFO   greedy Alg. 2 storage       independent cache, fair-share IO
//   SJF    Eq. 7 score + Alg. 2        Eq. 6 score (compute-only estimator)
//   Gavel  Eq. 9 solver                Eq. 8 with compute-only estimator
//
// A pair has one typed form, the enum pair, and one text form, its policy
// name "<scheduler>+<cache>" (e.g. "sjf+silod", "gavel+alluxio-lfu") with
// the lowercase tokens
//
//   scheduler:  fifo | sjf | gavel
//   cache:      silod | alluxio | alluxio-lfu | coordl | quiver
//
// The CLI tools, the daemon and ExperimentConfig take policy names;
// ParsePolicyName is the only way back to the enum pair.  A scheduler built
// from parts (e.g. a PartitionedScheduler) runs through RunExperimentWith.
#ifndef SILOD_SRC_CORE_POLICY_REGISTRY_H_
#define SILOD_SRC_CORE_POLICY_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/sched/gavel.h"
#include "src/sched/policy.h"

namespace silod {

enum class SchedulerKind { kFifo, kSjf, kGavel };
enum class CacheSystem { kSiloD, kAlluxio, kAlluxioLfu, kCoorDl, kQuiver };

// Display names for the paper's tables: "FIFO", "Alluxio-LFU", ...
const char* SchedulerKindName(SchedulerKind kind);
const char* CacheSystemName(CacheSystem system);

struct SchedulerOptions {
  // §7.2 ablation: SiloD allocates cache but leaves remote IO to the
  // provider's fair share.
  bool manage_remote_io = true;
  // Objective for the Gavel scheduler's SiloD variant (§5.2: the extension
  // supports every objective Gavel does).
  GavelObjective gavel_objective = GavelObjective::kMaxMinFairness;
  // SRTF: the SJF scheduler preempts running jobs for lower-score arrivals.
  // Only the flow engine executes preemptive plans.
  bool preemptive_sjf = false;
};

std::shared_ptr<Scheduler> MakeScheduler(SchedulerKind kind, CacheSystem system,
                                         const SchedulerOptions& options = {});

// The policy name of an enum pair, e.g. "gavel+alluxio-lfu".
std::string PolicyName(SchedulerKind kind, CacheSystem system);

// The enum pair a policy name denotes.  Tokens match exactly (no case
// folding); anything else is kNotFound listing every policy name.
Result<std::pair<SchedulerKind, CacheSystem>> ParsePolicyName(std::string_view name);

// All 15 policy names, sorted.
std::vector<std::string> AllPolicyNames();

// ParsePolicyName followed by MakeScheduler.
Result<std::shared_ptr<Scheduler>> MakeSchedulerByName(const std::string& name,
                                                       const SchedulerOptions& options = {});

}  // namespace silod

#endif  // SILOD_SRC_CORE_POLICY_REGISTRY_H_
