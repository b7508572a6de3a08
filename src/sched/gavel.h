// Gavel's max-min fairness policy (§5.2, Eq. 8/9).
//
// Gavel maximizes the minimum, over jobs, of perf(j, R[j]) / perf(j, R_equal)
// subject to Sum(R) <= totalResource.  The SiloD variant replaces perf with
// SiloDPerf and adds cache and remote IO as resource dimensions (Eq. 9).
//
// Exploiting the structure of SiloDPerf, the program is solved exactly:
//   - a search for the largest feasible fairness ratio rho (ratio_search.h);
//   - the feasibility oracle for a set of target throughputs T_j is a
//     fractional knapsack: a byte of cache on dataset D saves
//     sum_{j on D} T_j / d bytes/s of remote IO, so cache goes to datasets in
//     descending saving rate, and the targets are feasible iff the residual
//     remote-IO demands fit the egress limit;
//   - leftover remote IO after the optimum is distributed max-min over the
//     jobs' remaining headroom (progressive filling), preserving fairness.
//
// The vanilla variant (compute-only estimator) sees every job at ratio 1
// regardless of allocation — the over-estimation the paper criticizes — so
// GPU admission degenerates to arrival order and storage falls to the
// attached baseline policy.
#ifndef SILOD_SRC_SCHED_GAVEL_H_
#define SILOD_SRC_SCHED_GAVEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/sched/policy.h"
#include "src/sched/ratio_search.h"

namespace silod {

// Gavel generalizes a family of objectives behind one interface (§5.2 notes
// the SiloD extension "can support all other objectives supported by Gavel");
// we implement the four the Gavel paper headlines:
enum class GavelObjective {
  // Eq. 8/9: maximize min_j perf(j, R_j) / perf(j, R_equal).
  kMaxMinFairness,
  // Themis-style finish-time fairness: maximize min_j perf(j, R_j) / f*_j —
  // the job whose progress lags its exclusive-cluster rate the most.
  kFinishTimeFairness,
  // Minimize total JCT: SRPT-flavoured — storage flows to the jobs with the
  // least remaining work per unit of throughput.
  kMinTotalJct,
  // Maximize aggregate training throughput: remote IO goes to the jobs that
  // convert it best (highest 1 / (1 - c/d)).
  kMaxThroughput,
};

const char* GavelObjectiveName(GavelObjective objective);

// Throughput job j would get under the equal division of storage resources
// among `num_sharers` running jobs (the denominator of Eq. 8).
BytesPerSec EqualShareThroughput(const JobSpec& job, const Snapshot& snapshot, int num_sharers);

// The job-independent part of that denominator: per-sharer cache and remote-IO
// shares.  Hoisting it out of a loop over N running jobs (metrics recording,
// fairness bases) turns N snapshot walks into N O(1) evaluations; results are
// bit-identical to the Snapshot overload above.
struct EqualShareParams {
  Bytes cache_eq = 0;
  BytesPerSec io_eq = 0;
};
EqualShareParams MakeEqualShareParams(const ClusterResources& resources, int num_sharers);
BytesPerSec EqualShareThroughput(const JobSpec& job, const DatasetCatalog& catalog,
                                 const EqualShareParams& params);
// Same, for a job held on a GPU type with relative speed `speed` (its f*
// becomes f*·speed; exact no-op at 1.0).
BytesPerSec EqualShareThroughput(const JobSpec& job, double speed, const DatasetCatalog& catalog,
                                 const EqualShareParams& params);

struct GavelSolution {
  double fairness_ratio = 0;                  // The achieved min ratio rho*.
  std::map<DatasetId, Bytes> dataset_cache;   // Cache per dataset.
  std::map<JobId, BytesPerSec> remote_io;     // Throttle per running job.
  std::map<JobId, BytesPerSec> target;        // Planned steady throughput.
};

// Solves Eq. 9 for the jobs marked running in `plan`.
GavelSolution SolveMaxMinFairness(const Snapshot& snapshot, const AllocationPlan& plan);

// One of the fair-share solve's two searches, with the arguments the solve
// passes LargestFeasibleRatio: the top of its range, the step count of the
// bisection whose answer it reproduces, the slack standing in for 0's, the
// first probe (0: none), and the predicate.
struct GavelSearch {
  double hi = 0;
  int steps = 0;
  double slack_at_zero = 0;
  double first = 0;
  std::function<SearchProbe(double)> probe;
};
struct GavelSearches {
  GavelSearch fairness;  // Eq. 9's ratio rho over the steady-state cache plan.
  GavelSearch throttle;  // The throttle level over the effective caches.
};

// The two searches GavelScheduler::Schedule runs for the jobs marked running
// in `plan` under a fairness objective, so tests can hold the search to the
// predicates it searches.  The probes read `snapshot`, which must outlive
// them.
GavelSearches MakeGavelSearches(const Snapshot& snapshot, const AllocationPlan& plan,
                                GavelObjective objective);

class GavelScheduler : public Scheduler {
 public:
  // `silod_aware` selects SiloDPerf (Eq. 9) vs the compute-only estimator
  // (Eq. 8); in the latter case `storage` supplies the independent cache
  // system.  `manage_remote_io=false` is the §7.2 ablation.
  GavelScheduler(std::shared_ptr<StoragePolicy> storage, bool silod_aware,
                 bool manage_remote_io = true,
                 GavelObjective objective = GavelObjective::kMaxMinFairness);
  ~GavelScheduler() override;

  AllocationPlan Schedule(const Snapshot& snapshot) override;
  std::string name() const override;

  // Predicate evaluations of this scheduler's fair-share solves so far: the
  // fairness-ratio probes (with the closing one that leaves the oracle at
  // rho*) and the throttle-level probes.  Exact, so a gate can pin them.
  // The fairness count depends on the solve history (each search starts
  // from the last solve's x*); the plans do not.
  std::uint64_t fair_probes() const { return fair_probes_; }
  std::uint64_t throttle_probes() const { return throttle_probes_; }

 private:
  struct Scratch;  // Per-solve arrays, reused by the next solve.

  void AllocateFairShare(const Snapshot& snapshot, AllocationPlan& plan);
  void AllocateGreedyObjective(const Snapshot& snapshot, AllocationPlan& plan);

  std::shared_ptr<StoragePolicy> storage_;
  bool silod_aware_;
  bool manage_remote_io_;
  GavelObjective objective_;
  std::uint64_t fair_probes_ = 0;
  std::uint64_t throttle_probes_ = 0;
  // x* of the last fair-share solve, the next fairness search's first probe
  // (0 before the first solve: a cold search).  Only the probe count
  // depends on it.
  double last_rho_star_ = 0;
  std::unique_ptr<Scratch> scratch_;
};

}  // namespace silod

#endif  // SILOD_SRC_SCHED_GAVEL_H_
