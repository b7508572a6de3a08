#include "src/sched/gavel.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/cache/analytic.h"
#include "src/common/logging.h"
#include "src/estimator/ioperf.h"
#include "src/sched/zone_spread.h"
#include "src/storage/remote_store.h"

namespace silod {
namespace {

// The old loops' halving counts, kept only so the search can replay their
// arithmetic (src/sched/ratio_search.h).
constexpr int kFairnessSteps = 100;
constexpr int kThrottleSteps = 80;
// Both probes' slack at ratio 0, where every target is 0: each constraint's
// margin over its own scale is 1 (at least 1 − 1e-12), whichever binds.
constexpr double kSlackAtZero = 1.0;

struct RunningJob {
  const JobView* view = nullptr;
  JobAllocation* alloc = nullptr;  // The job's entry in the plan being built.
  BytesPerSec base = 0;            // Normalizer of the fairness ratio.
  double speed = 1.0;              // Held GPU type's speed (plan's placement).
  BytesPerSec ideal = 0;           // Effective ideal rate f*·speed.
};

// The jobs marked running in `plan`, in snapshot order, into *jobs.  The
// plan's placement is authoritative post-admission: every target and demand
// uses the effective ideal rate of the GPU type the gang actually landed on
// (speed 1.0 on uniform fleets).  One plan lookup per job; the solve reads
// and writes each job's allocation through `alloc`.
void GatherRunning(const Snapshot& snapshot, AllocationPlan& plan, std::vector<RunningJob>* jobs) {
  jobs->clear();
  for (const JobView& view : snapshot.jobs) {
    const auto it = plan.jobs.find(view.spec->id);
    if (it != plan.jobs.end() && it->second.running) {
      RunningJob j;
      j.view = &view;
      j.alloc = &it->second;
      j.speed = it->second.speed;
      j.ideal = EffectiveIdeal(view.spec->ideal_io, j.speed);
      jobs->push_back(j);
    }
  }
}

// Fractional-knapsack feasibility oracle: can every job sustain target[i]?
//
// Works on a dense per-solve dataset index: local index k is the k-th
// smallest DatasetId among the running jobs' datasets, so ascending k is
// ascending id.  Every probe reuses the same scratch arrays, and the
// arithmetic and summation orders are those of a per-dataset map, so plans
// are bit-identical to it (docs/MODEL.md §4).  The estimator's Eq. 2 kernel
// is inlined: a dataset's miss ratio is computed once per probe, and the
// estimator's argument checks run once per solve: sizes in the constructor,
// caches (non-negative by construction) on the plan DatasetCache returns.
class FeasibilityOracle {
 public:
  // Sets the oracle up for one solve over `jobs`.  The arrays keep their
  // capacity from one solve to the next.
  void Reset(const Snapshot& snapshot, const std::vector<RunningJob>& jobs) {
    snapshot_ = &snapshot;
    ids_.clear();
    for (const RunningJob& j : jobs) {
      ids_.push_back(j.view->spec->dataset);
    }
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    job_dataset_.clear();
    for (const RunningJob& j : jobs) {
      job_dataset_.push_back(static_cast<std::size_t>(
          std::lower_bound(ids_.begin(), ids_.end(), j.view->spec->dataset) - ids_.begin()));
    }
    slots_.resize(ids_.size());
    order_.clear();
    for (std::size_t k = 0; k < ids_.size(); ++k) {
      slots_[k].size = snapshot.catalog->Get(ids_[k]).size;
      SILOD_CHECK(slots_[k].size > 0) << "dataset size must be positive";
      order_.emplace_back(0.0, k);
    }
    required_io_.resize(jobs.size());
  }

  // Whether every job can sustain targets[i] (each >= 0), and by how much:
  // the slack is the smallest of the normalized margins of the three
  // constraints, egress (R·(1+1e-12) − Σ required IO) / R, cache floors
  // (remaining bytes) / total cache, and the per-job cap
  // (cap·(1+1e-12) − max required IO) / cap, so whichever constraint binds
  // steers the search.  Afterwards cache and required_io() hold the plan for
  // `targets`.
  SearchProbe Probe(const std::vector<BytesPerSec>& targets) {
    for (Slot& slot : slots_) {
      slot.floor = 0;
      slot.saving_rate = 0;
      slot.cache = 0;
      slot.present = false;
    }

    // Phase 1 — mandatory cache: the provider's per-job cap means job j can
    // sustain T_j only if its dataset holds at least d (1 - cap / T_j) bytes
    // of cache.  With sharing, a dataset's floor is the max over its jobs.
    // A floor is at least one byte, so 0 means "no floor".
    const BytesPerSec cap = snapshot_->resources.per_job_remote_cap;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      Slot& slot = slots_[job_dataset_[i]];
      slot.saving_rate += targets[i] / static_cast<double>(slot.size);
      if (std::isfinite(cap) && targets[i] > cap) {
        const double frac = 1.0 - cap / targets[i];
        const Bytes need = static_cast<Bytes>(frac * static_cast<double>(slot.size)) + 1;
        slot.floor = std::max(slot.floor, std::min(need, slot.size));
      }
    }
    Bytes remaining = snapshot_->resources.total_cache;
    for (Slot& slot : slots_) {
      if (slot.floor > 0) {
        slot.cache = slot.floor;
        slot.present = true;
        remaining -= slot.floor;
      }
    }
    // Negative: the floors alone overrun the pool.  The knapsack then grants
    // nothing, and the probe is infeasible whatever the IO below comes to.
    const Bytes floor_slack = remaining;

    // Phase 2 — fractional knapsack on the rest: a byte of cache on dataset
    // D saves sum_{j on D} T_j / d of remote IO.  A dataset the loop reaches
    // gets an entry even when its grant is zero; one it never reaches gets
    // none.  The key (rate descending, then id ascending) is a strict total
    // order, so the sorted order does not depend on where sorting starts.
    // Starting from the previous probe's order pays: successive probes scale
    // most rates alike, so the order is usually still sorted.
    for (auto& entry : order_) {
      entry.first = slots_[entry.second].saving_rate;
    }
    const auto before = [](const auto& a, const auto& b) {
      if (a.first != b.first) {
        return a.first > b.first;
      }
      return a.second < b.second;
    };
    if (!std::is_sorted(order_.begin(), order_.end(), before)) {
      std::sort(order_.begin(), order_.end(), before);
    }
    for (const auto& [rate, k] : order_) {
      if (remaining <= 0) {
        break;
      }
      Slot& slot = slots_[k];
      slot.present = true;
      const Bytes grant = std::min(slot.size - slot.cache, remaining);
      slot.cache += grant;
      remaining -= grant;
    }

    // Eq. 2 per job: RequiredRemoteIo(T, c, d) = T · (1 − min(1, c/d)).
    for (Slot& slot : slots_) {
      slot.miss =
          1.0 - std::min(1.0, static_cast<double>(slot.cache) / static_cast<double>(slot.size));
    }
    BytesPerSec total_io = 0;
    BytesPerSec max_io = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      required_io_[i] = targets[i] * slots_[job_dataset_[i]].miss;
      max_io = std::max(max_io, required_io_[i]);
      total_io += required_io_[i];
    }
    const BytesPerSec cap_limit = cap * (1.0 + 1e-12);
    const BytesPerSec egress = snapshot_->resources.remote_io;
    const BytesPerSec egress_limit = egress * (1.0 + 1e-12);
    SearchProbe probe;
    // The per-job cap binds before the account cap.
    probe.feasible = floor_slack >= 0 && !(max_io > cap_limit) && total_io <= egress_limit;
    const Bytes total_cache = snapshot_->resources.total_cache;
    probe.slack = std::min((egress_limit - total_io) / (egress > 0 ? egress : 1.0),
                           static_cast<double>(floor_slack) /
                               static_cast<double>(total_cache > 0 ? total_cache : 1));
    // A job whose target passes the cap is held just under it by its
    // floor, so the cap's margin sits near its 1e-12 tolerance wherever it
    // holds and says nothing of how far the boundary is: it steers only
    // once it is violated.
    if (std::isfinite(cap) && max_io > cap_limit) {
      probe.slack = std::min(probe.slack, (cap_limit - max_io) / (cap > 0 ? cap : 1.0));
    }
    return probe;
  }

  const std::vector<BytesPerSec>& required_io() const { return required_io_; }
  Bytes job_cache(std::size_t i) const { return slots_[job_dataset_[i]].cache; }
  Bytes job_dataset_size(std::size_t i) const { return slots_[job_dataset_[i]].size; }

  // The last probe's cache quotas: an entry for every dataset with a floor
  // or reached by the knapsack.
  std::map<DatasetId, Bytes> DatasetCache() const {
    std::map<DatasetId, Bytes> out;
    for (std::size_t k = 0; k < ids_.size(); ++k) {
      if (slots_[k].present) {
        SILOD_CHECK(slots_[k].cache >= 0) << "cache size must be nonnegative";
        out.emplace_hint(out.end(), ids_[k], slots_[k].cache);
      }
    }
    return out;
  }

 private:
  // One dataset's size and per-probe scratch.
  struct Slot {
    Bytes size = 0;
    Bytes floor = 0;
    Bytes cache = 0;
    double saving_rate = 0;
    double miss = 0;       // 1 − min(1, cache / size).
    bool present = false;  // Whether the dataset has a cache entry.
  };

  const Snapshot* snapshot_ = nullptr;
  std::vector<DatasetId> ids_;            // Sorted unique dataset ids.
  std::vector<Slot> slots_;               // By local index.
  std::vector<std::size_t> job_dataset_;  // Job i's local dataset index.
  std::vector<std::pair<double, std::size_t>> order_;  // (saving rate, k).
  std::vector<BytesPerSec> required_io_;
};

// The normalizer of the fairness ratio for each objective: equal-share
// throughput for Eq. 8/9 max-min fairness, the exclusive-cluster rate f*·s
// for finish-time fairness.  `speed` is the job's held-GPU-type speed, so a
// job on a slow generation is normalized against what that hardware can do,
// not against the uniform-fleet f*.
BytesPerSec FairnessBase(GavelObjective objective, const JobSpec& job, double speed,
                         const DatasetCatalog& catalog, const EqualShareParams& eq) {
  BytesPerSec base = objective == GavelObjective::kFinishTimeFairness
                         ? EffectiveIdeal(job.ideal_io, speed)
                         : EqualShareThroughput(job, speed, catalog, eq);
  if (base <= 0) {
    base = EffectiveIdeal(job.ideal_io, speed) * 1e-9;  // Keep the denominator positive.
  }
  return base;
}

// Fills each job's fairness base and returns the top of both searches' range:
// the ratio at which every job is compute-bound.  A ratio r >= 0 then makes
// every target min(r·base, f*·s) non-negative, which is the estimator's
// target check, made here once per solve instead of once per job per probe.
double SetFairnessBases(const Snapshot& snapshot, std::vector<RunningJob>& jobs,
                        GavelObjective objective) {
  const EqualShareParams eq =
      MakeEqualShareParams(snapshot.resources, std::max(1, static_cast<int>(jobs.size())));
  double hi = 1.0;
  for (RunningJob& j : jobs) {
    j.base = FairnessBase(objective, *j.view->spec, j.speed, *snapshot.catalog, eq);
    SILOD_CHECK(j.base >= 0 && j.ideal >= 0) << "negative target throughput";
    hi = std::max(hi, j.ideal / j.base);
  }
  return hi;
}

// The fairness ratio's predicate (Eq. 9): can every job sustain
// min(rho·base, f*·s) under the steady-state cache plan?
class FairnessProbe {
 public:
  // Sets the predicate up for one solve over `jobs`, which must outlive it.
  void Reset(const Snapshot& snapshot, const std::vector<RunningJob>& jobs) {
    jobs_ = &jobs;
    oracle_.Reset(snapshot, jobs);
    targets_.resize(jobs.size());
    last_feasible_ = false;
  }

  SearchProbe operator()(double rho) {
    const std::vector<RunningJob>& jobs = *jobs_;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      targets_[i] = std::min(rho * jobs[i].base, jobs[i].ideal);
    }
    const SearchProbe probe = oracle_.Probe(targets_);
    last_rho_ = rho;
    last_feasible_ = probe.feasible;
    return probe;
  }

  // Solves for rho* over [0, hi], starting from the probe `first` (0: none),
  // and leaves the oracle holding its plan.  Adds the probes made to
  // *probes.  The search's value, and so the plan, depend only on x*, not
  // on `first`.
  RatioSearch Solve(double hi, double first, std::uint64_t* probes) {
    const RatioSearch search = LargestFeasibleRatio(hi, kFairnessSteps, kSlackAtZero, first, *this);
    *probes += static_cast<std::uint64_t>(search.probes);
    if (!(last_feasible_ && last_rho_ == search.value)) {
      ++*probes;
      const bool ok = (*this)(search.value).feasible;
      SILOD_CHECK(ok) << "the search's answer must be feasible";
    }
    return search;
  }

  const FeasibilityOracle& oracle() const { return oracle_; }

 private:
  const std::vector<RunningJob>* jobs_ = nullptr;
  FeasibilityOracle oracle_;
  std::vector<BytesPerSec> targets_;
  double last_rho_ = 0;
  bool last_feasible_ = false;
};

// The throttle level's predicate over the jobs' effective caches (§6): does
// Σ_j min(min(level·base_j, f*_j·s_j)·miss_j, cap) fit the egress limit?
// Zone-aware runs take each job's post-crash surviving cache share, so the
// throttles granted now still cover the jobs after a worst-case single-zone
// crash (identity when the snapshot has no topology).  Every operand is
// fixed for the solve, so each job's miss ratio (Eq. 2) is computed, and
// its arguments checked, once.
class ThrottleProbe {
 public:
  // Sets the predicate up for one solve over `jobs`.
  void Reset(const Snapshot& snapshot, const std::vector<RunningJob>& jobs) {
    cap_ = snapshot.resources.per_job_remote_cap;
    egress_ = snapshot.resources.remote_io;
    base_.clear();
    ideal_.clear();
    miss_.clear();
    for (const RunningJob& j : jobs) {
      const Bytes cache = SurvivingCacheShare(snapshot, j.view->effective_cache);
      const Bytes size = snapshot.catalog->Get(j.view->spec->dataset).size;
      SILOD_CHECK(size > 0) << "dataset size must be positive";
      SILOD_CHECK(cache >= 0) << "cache size must be nonnegative";
      base_.push_back(j.base);
      ideal_.push_back(j.ideal);
      miss_.push_back(1.0 - std::min(1.0, static_cast<double>(cache) / static_cast<double>(size)));
    }
  }

  // The remote IO job i needs to run at min(level·base, f*·s), capped.
  BytesPerSec Demand(double level, std::size_t i) const {
    return std::min(std::min(level * base_[i], ideal_[i]) * miss_[i], cap_);
  }
  // Eq. 2 at f*·s: the most remote IO job i can use, before the cap.
  BytesPerSec MaxDemand(std::size_t i) const { return ideal_[i] * miss_[i]; }

  // Where the unclipped demands Σ level·base_j·miss_j meet the egress limit.
  // The f*·s and cap clips only lower a demand, so x* is at or just above
  // this: the search's first probe.  (Without it, the first steps are spent
  // in the flat stretch where most jobs are clipped at f*·s.)
  double Estimate() const {
    BytesPerSec slope = 0;
    for (std::size_t i = 0; i < base_.size(); ++i) {
      slope += base_[i] * miss_[i];
    }
    return egress_ / slope;
  }

  // The demands summed in job order; slack (R − Σ) / R.
  SearchProbe operator()(double level) const {
    BytesPerSec total = 0;
    for (std::size_t i = 0; i < base_.size(); ++i) {
      total += Demand(level, i);
    }
    return {total <= egress_, (egress_ - total) / (egress_ > 0 ? egress_ : 1.0)};
  }

 private:
  BytesPerSec cap_ = 0;
  BytesPerSec egress_ = 0;
  std::vector<BytesPerSec> base_;
  std::vector<BytesPerSec> ideal_;
  std::vector<double> miss_;
};

}  // namespace

const char* GavelObjectiveName(GavelObjective objective) {
  switch (objective) {
    case GavelObjective::kMaxMinFairness:
      return "max-min-fairness";
    case GavelObjective::kFinishTimeFairness:
      return "finish-time-fairness";
    case GavelObjective::kMinTotalJct:
      return "min-total-jct";
    case GavelObjective::kMaxThroughput:
      return "max-throughput";
  }
  return "unknown";
}

BytesPerSec EqualShareThroughput(const JobSpec& job, const Snapshot& snapshot, int num_sharers) {
  SILOD_CHECK(snapshot.catalog != nullptr) << "catalog required";
  return EqualShareThroughput(job, *snapshot.catalog,
                              MakeEqualShareParams(snapshot.resources, num_sharers));
}

EqualShareParams MakeEqualShareParams(const ClusterResources& resources, int num_sharers) {
  SILOD_CHECK(num_sharers >= 1) << "at least one sharer";
  EqualShareParams params;
  params.cache_eq = resources.total_cache / num_sharers;
  params.io_eq = std::min(resources.remote_io / num_sharers, resources.per_job_remote_cap);
  return params;
}

BytesPerSec EqualShareThroughput(const JobSpec& job, const DatasetCatalog& catalog,
                                 const EqualShareParams& params) {
  const Dataset& d = catalog.Get(job.dataset);
  return SiloDPerfThroughput(job.ideal_io, params.io_eq, std::min(params.cache_eq, d.size),
                             d.size);
}

BytesPerSec EqualShareThroughput(const JobSpec& job, double speed, const DatasetCatalog& catalog,
                                 const EqualShareParams& params) {
  const Dataset& d = catalog.Get(job.dataset);
  return SiloDPerfThroughput(job.ideal_io, speed, params.io_eq, std::min(params.cache_eq, d.size),
                             d.size);
}

GavelSolution SolveMaxMinFairness(const Snapshot& snapshot, const AllocationPlan& plan) {
  GavelSolution solution;
  AllocationPlan running = plan;  // GatherRunning hands out pointers into its plan.
  std::vector<RunningJob> jobs;
  GatherRunning(snapshot, running, &jobs);
  if (jobs.empty()) {
    return solution;
  }
  const double hi = SetFairnessBases(snapshot, jobs, GavelObjective::kMaxMinFairness);
  FairnessProbe fairness;
  fairness.Reset(snapshot, jobs);
  std::uint64_t probes = 0;
  solution.fairness_ratio = fairness.Solve(hi, /*first=*/0, &probes).value;
  const FeasibilityOracle& oracle = fairness.oracle();
  const std::vector<BytesPerSec>& required = oracle.required_io();

  // Progressive filling: hand leftover egress bandwidth to jobs that still
  // have headroom toward f*, max-min over the extra demand.
  BytesPerSec used = 0;
  for (BytesPerSec b : required) {
    used += b;
  }
  const BytesPerSec leftover = std::max(0.0, snapshot.resources.remote_io - used);
  std::vector<BytesPerSec> extra_demand(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const BytesPerSec max_b =
        std::min(RemoteIoDemand(jobs[i].ideal, oracle.job_cache(i), oracle.job_dataset_size(i)),
                 snapshot.resources.per_job_remote_cap);
    extra_demand[i] = std::max(0.0, max_b - required[i]);
  }
  std::vector<BytesPerSec> sorted;
  std::vector<BytesPerSec> extra;
  MaxMinShare(extra_demand, /*caps=*/{}, leftover, &sorted, &extra);

  solution.dataset_cache = oracle.DatasetCache();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobId id = jobs[i].view->spec->id;
    const BytesPerSec io = required[i] + extra[i];
    solution.remote_io[id] = io;
    solution.target[id] = SiloDPerfThroughput(jobs[i].ideal, io, oracle.job_cache(i),
                                              oracle.job_dataset_size(i));
  }
  return solution;
}

GavelSearches MakeGavelSearches(const Snapshot& snapshot, const AllocationPlan& plan,
                                GavelObjective objective) {
  struct State {
    AllocationPlan plan;
    std::vector<RunningJob> jobs;
    FairnessProbe fairness;
    ThrottleProbe throttle;
  };
  auto state = std::make_shared<State>();
  state->plan = plan;
  GatherRunning(snapshot, state->plan, &state->jobs);
  const double hi = SetFairnessBases(snapshot, state->jobs, objective);
  state->fairness.Reset(snapshot, state->jobs);
  state->throttle.Reset(snapshot, state->jobs);
  GavelSearches searches;
  searches.fairness = {hi, kFairnessSteps, kSlackAtZero, /*first=*/0,
                       [state](double rho) { return state->fairness(rho); }};
  searches.throttle = {hi, kThrottleSteps, kSlackAtZero, state->throttle.Estimate(),
                       [state](double level) { return state->throttle(level); }};
  return searches;
}

// What one fair-share solve needs besides the plan, kept from solve to solve
// so that a solve reuses the arrays instead of allocating them.
struct GavelScheduler::Scratch {
  std::vector<std::size_t> order;  // Admission order.
  std::vector<RunningJob> jobs;
  FairnessProbe fairness;
  ThrottleProbe throttle;
  std::vector<BytesPerSec> grant;
  std::vector<BytesPerSec> residual;
  std::vector<BytesPerSec> sorted;
  std::vector<BytesPerSec> topup;
};

GavelScheduler::GavelScheduler(std::shared_ptr<StoragePolicy> storage, bool silod_aware,
                               bool manage_remote_io, GavelObjective objective)
    : storage_(std::move(storage)), silod_aware_(silod_aware),
      manage_remote_io_(manage_remote_io), objective_(objective),
      scratch_(std::make_unique<Scratch>()) {
  SILOD_CHECK(silod_aware_ || storage_ != nullptr)
      << "vanilla Gavel needs an independent storage policy";
}

GavelScheduler::~GavelScheduler() = default;

std::string GavelScheduler::name() const {
  std::string base;
  if (silod_aware_) {
    base = manage_remote_io_ ? "gavel-silod" : "gavel-silod-cache-only";
  } else {
    base = "gavel+" + storage_->name();
  }
  if (objective_ != GavelObjective::kMaxMinFairness) {
    base += std::string("[") + GavelObjectiveName(objective_) + "]";
  }
  return base;
}

void GavelScheduler::AllocateFairShare(const Snapshot& snapshot, AllocationPlan& plan) {
  std::vector<RunningJob>& jobs = scratch_->jobs;
  GatherRunning(snapshot, plan, &jobs);
  plan.dataset_cache.clear();
  if (jobs.empty()) {
    return;
  }
  // The cache plan is the steady-state solve's at rho*; its remote-IO and
  // target fill (SolveMaxMinFairness) would be thrown away here.  The search
  // starts from the last solve's x*: successive snapshots differ by a few
  // jobs, so rho* rarely moves far (docs/MODEL.md §4).
  const double hi = SetFairnessBases(snapshot, jobs, objective_);
  FairnessProbe& fairness = scratch_->fairness;
  fairness.Reset(snapshot, jobs);
  last_rho_star_ = fairness.Solve(hi, last_rho_star_, &fair_probes_).largest;
  plan.dataset_cache = fairness.oracle().DatasetCache();
  if (!manage_remote_io_) {
    return;
  }
  // Throttles are solved over the *effective* cache (§6): the steady-state
  // solver's b_j would starve a job whose planned cache has not filled yet
  // (a fully-cached target implies b = 0, but a cold job needs IO both to
  // train and to fill that cache).  We search the same ratio over each job's
  // current achievable throughput min(f*, b/(1 - eff/d)); as caches fill,
  // this converges to the steady-state solution.
  ThrottleProbe& throttle = scratch_->throttle;
  throttle.Reset(snapshot, jobs);
  const RatioSearch level =
      LargestFeasibleRatio(hi, kThrottleSteps, kSlackAtZero, throttle.Estimate(), throttle);
  throttle_probes_ += static_cast<std::uint64_t>(level.probes);
  const BytesPerSec cap = snapshot.resources.per_job_remote_cap;
  std::vector<BytesPerSec>& grant = scratch_->grant;
  std::vector<BytesPerSec>& residual = scratch_->residual;
  grant.resize(jobs.size());
  residual.resize(jobs.size());
  BytesPerSec used = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    grant[i] = throttle.Demand(level.value, i);
    used += grant[i];
    residual[i] = std::max(0.0, std::min(throttle.MaxDemand(i), cap) - grant[i]);
  }
  std::vector<BytesPerSec>& topup = scratch_->topup;
  MaxMinShare(residual, /*caps=*/{}, std::max(0.0, snapshot.resources.remote_io - used),
              &scratch_->sorted, &topup);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].alloc->remote_io = grant[i] + topup[i];
  }
}

void GavelScheduler::AllocateGreedyObjective(const Snapshot& snapshot, AllocationPlan& plan) {
  struct Entry {
    const JobView* view = nullptr;
    JobAllocation* alloc = nullptr;
    double speed = 1.0;         // Held GPU type's speed (plan's placement).
    double remaining_time = 0;  // remaining / (f*·speed).
  };
  std::vector<Entry> jobs;
  GatherRunning(snapshot, plan, &scratch_->jobs);
  for (const RunningJob& j : scratch_->jobs) {
    Entry e;
    e.view = j.view;
    e.alloc = j.alloc;
    e.speed = j.speed;
    e.remaining_time = std::max(1.0, static_cast<double>(j.view->remaining_bytes) / j.ideal);
    jobs.push_back(e);
  }
  if (jobs.empty()) {
    return;
  }

  // Cache: rank datasets by their marginal value for the objective —
  // remote-IO saving per byte (Alg. 2) for max-throughput, the same divided
  // by the sharing jobs' remaining time for total JCT (a byte that speeds a
  // nearly-done job buys more completion per second).
  std::map<DatasetId, double> weight;
  for (const Entry& e : jobs) {
    const Dataset& d = snapshot.catalog->Get(e.view->spec->dataset);
    double w = CacheEfficiency(e.view->spec->ideal_io, e.speed, d.size);
    if (objective_ == GavelObjective::kMinTotalJct) {
      w /= e.remaining_time;
    }
    weight[d.id] += w;
  }
  std::vector<std::pair<DatasetId, double>> order(weight.begin(), weight.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  Bytes remaining = snapshot.resources.total_cache;
  for (const auto& [dataset_id, w] : order) {
    if (remaining <= 0) {
      break;
    }
    const Bytes grant = std::min(snapshot.catalog->Get(dataset_id).size, remaining);
    plan.dataset_cache[dataset_id] = grant;
    remaining -= grant;
  }

  if (!manage_remote_io_) {
    return;
  }
  // Remote IO: grant instantaneous demands in objective order — best IO-to-
  // throughput conversion first (max-throughput), shortest remaining first
  // (total JCT, SRPT) — each job up to min(demand, per-job cap).
  std::sort(jobs.begin(), jobs.end(), [&](const Entry& a, const Entry& b) {
    if (objective_ == GavelObjective::kMinTotalJct) {
      return a.remaining_time < b.remaining_time;
    }
    const Dataset& da = snapshot.catalog->Get(a.view->spec->dataset);
    const Dataset& db = snapshot.catalog->Get(b.view->spec->dataset);
    auto planned = [&](const Dataset& d) {
      auto it = plan.dataset_cache.find(d.id);
      const Bytes c = it == plan.dataset_cache.end() ? 0 : it->second;
      return UniformHitRatio(c, d.size);
    };
    return planned(da) > planned(db);
  });
  BytesPerSec pool = snapshot.resources.remote_io;
  for (const Entry& e : jobs) {
    const Dataset& d = snapshot.catalog->Get(e.view->spec->dataset);
    const BytesPerSec demand =
        std::min(RemoteIoDemand(e.view->spec->ideal_io, e.speed, e.view->effective_cache, d.size),
                 snapshot.resources.per_job_remote_cap);
    const BytesPerSec grant = std::min(demand, pool);
    e.alloc->remote_io = grant;
    pool -= grant;
  }
}

AllocationPlan GavelScheduler::Schedule(const Snapshot& snapshot) {
  // GPU admission: with gang-scheduled fixed GPU demands, max-min over GPU
  // time reduces to arrival order among waiting jobs (running jobs are not
  // preempted).
  std::vector<std::size_t>& order = scratch_->order;
  order.resize(snapshot.jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return snapshot.jobs[a].spec->submit_time < snapshot.jobs[b].spec->submit_time;
  });

  AllocationPlan plan;
  AdmitByOrder(snapshot, order, &plan);

  if (!silod_aware_) {
    storage_->AllocateStorage(snapshot, &plan);
    return plan;
  }

  plan.cache_model = CacheModelKind::kDatasetQuota;
  plan.manages_remote_io = manage_remote_io_;
  switch (objective_) {
    case GavelObjective::kMaxMinFairness:
    case GavelObjective::kFinishTimeFairness:
      AllocateFairShare(snapshot, plan);
      break;
    case GavelObjective::kMinTotalJct:
    case GavelObjective::kMaxThroughput:
      AllocateGreedyObjective(snapshot, plan);
      break;
  }
  SpreadPlanAcrossZones(snapshot, &plan);
  return plan;
}

}  // namespace silod
