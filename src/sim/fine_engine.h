// FineEngine: mini-batch-granularity discrete-event simulation.
//
// This is the C++ counterpart of the paper's Go simulator (§7.2): events are
// the start/finish of each block's IO and of each block's computation.  Each
// job walks a freshly shuffled permutation of its dataset's blocks per epoch
// (Fig. 5); block fetches that miss cache share the egress bandwidth as
// max-min fluid flows (subject to per-job throttles when SiloD manages remote
// IO), cache hits are served at storage-fabric speed, and computation
// overlaps IO through a bounded prefetch window.
//
// Cache behaviour is simulated at item level per the plan's model:
// dataset-quota uniform caches (CacheManager, with random eviction on shrink
// and per-job effectiveness tracking), one shared LRU pool (Alluxio — this is
// where thrashing emerges naturally), or per-job static uniform caches
// (CoorDL).  Curriculum-learning jobs sample blocks through the pacing
// function instead of epoch permutations (§7.4).
#ifndef SILOD_SRC_SIM_FINE_ENGINE_H_
#define SILOD_SRC_SIM_FINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cache/cache_manager.h"
#include "src/cache/item_cache.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sched/policy.h"
#include "src/sim/cluster.h"
#include "src/sim/cluster_fault_state.h"
#include "src/sim/event_queue.h"
#include "src/sim/job_lifecycle.h"
#include "src/sim/metrics.h"
#include "src/workload/curriculum.h"
#include "src/workload/trace_gen.h"

namespace silod {

struct FineEngineOptions {
  // Metrics sampling period on top of event-driven samples.
  Seconds sample_period = Minutes(5);
};

// The fine engine's epoch orders hold 32-bit block indices, so it takes no
// dataset of more than INT32_MAX blocks.  InvalidArgument names the first
// catalog dataset past that bound; the constructor SILOD_CHECKs the same.
Status ValidateFineBlockCounts(const Trace& trace);

class FineEngine {
 public:
  FineEngine(const Trace* trace, std::shared_ptr<Scheduler> scheduler, SimConfig config,
             FineEngineOptions options = {});

  SimResult Run();

 private:
  enum class Phase {
    kIdle,        // Not running.
    kMissFetch,   // Fetching remotely (fluid flow).
    kHitFetch,    // Reading from cache (fabric-speed, deterministic).
    kBlocked,     // Prefetch window full; waiting for compute to drain.
    kDraining,    // All blocks fetched; waiting for compute to finish.
  };

  struct JobState {
    const JobSpec* spec = nullptr;
    Phase phase = Phase::kIdle;
    bool running = false;
    // Fetched-but-unconsumed compute a crashed worker keeps (training
    // progress is checkpointed, §6), re-staged when the scheduler re-admits
    // the job after kWorkerRestart.
    double compute_backlog = 0;

    std::int64_t blocks_total = 0;    // Blocks to fetch over the job's life.
    std::int64_t blocks_fetched = 0;
    std::int64_t epoch_fetched = 0;   // Completed fetches in the current epoch.
    std::vector<std::int32_t> order;  // Current epoch's permutation; freed at finish.
    std::int64_t epoch_index = 0;     // Position within `order`.
    std::int64_t epochs_done = 0;

    std::optional<CurriculumSampler> sampler;
    std::int64_t iteration = 0;

    double compute_finish = 0;        // Virtual time compute drains the buffer.
    std::int64_t current_block = -1;

    // Fluid miss-fetch accounting, settled lazily: `fetch_remaining` is the
    // bytes left as of `settle_time`; while the rate is constant the
    // projected completion (the job's calendar entry) is exact, so the
    // residue is only re-settled when the rate changes or the fetch
    // completes.
    double fetch_remaining = 0;
    Seconds settle_time = 0;
    BytesPerSec flow_rate = 0;        // Current fluid rate (miss fetch).
    BytesPerSec throttle = kUnlimitedRate;

    // Miss-set membership: the flow's want (min of its throttle and the
    // per-job remote cap) as filed in miss_wants_, and whether its rate has
    // not been evaluated since it entered or its want moved.
    bool in_miss_set = false;
    bool flow_fresh = false;
    BytesPerSec flow_want = 0;

    // GPU-type placement from the plan (-1 / 1.0 on uniform fleets): compute
    // drains the prefetch buffer at spec->ideal_io * speed while the job
    // holds this type's GPUs.
    int gpu_type = -1;
    double speed = 1.0;

    std::unique_ptr<UniformItemCache> private_cache;  // CoorDL model.
    Rng rng{1};
  };

  void Reschedule(Seconds now);
  void RecomputeFlows(Seconds now);
  void StartNextFetch(JobState& s, Seconds now);
  void OnFetchComplete(JobState& s, Seconds now);
  void BeginEpoch(JobState& s);
  std::int64_t NextBlock(JobState& s);
  bool CacheAccess(JobState& s, std::int64_t block);  // True on hit.
  void RecordMetrics(Seconds now);
  Bytes EffectiveBytesFor(const JobState& s);
  // Raises counters_.peak_block_slots to the slots held now.
  void NoteBlockSlots();

  // Fault events fire from the main event loop and each one triggers an
  // immediate reschedule; faults_ applies the cluster effect, this the loss.
  void ApplyFault(const FaultEvent& event, Seconds now);
  // Re-sizes the caches and the fabric rate to the effective resources;
  // evict_fraction > 0 additionally drops that share of resident blocks (the
  // crashed server's contents).  When a zone-aware crash already charged the
  // dataset-quota caches per zone share, evict_quota_caches=false skips the
  // uniform pass over them (shared/private pools still shed uniformly).
  void ResizeCachePool(double evict_fraction, bool evict_quota_caches = true);

  // Event-calendar plumbing.  SetJobEvent files the job's next event (phase
  // completion); kInfiniteTime, for a rate-starved miss fetch, removes it.
  void SetJobEvent(JobState& s, Seconds t);
  void EnterMissSet(JobState& s, Seconds now);
  void LeaveMissSet(JobState& s);
  // Position of (want, id) in the miss set's (want, id) order: the first
  // member not below it.
  std::size_t MissSlot(BytesPerSec want, std::int32_t id) const;
  BytesPerSec FlowWant(const JobState& s) const;
  // Re-reads every member's want after the throttles or the resources may
  // have moved; members whose want moved become fresh.
  void RefreshFlowWants();
  // Sets the job's rate to min(want, level), re-projecting its completion if
  // the rate moved.
  void ReprojectFlow(JobState& s, BytesPerSec level, Seconds now);
  bool FireJobEvent(JobState& s, Seconds now);  // True if the job finished.

  const Trace* trace_;
  std::shared_ptr<Scheduler> scheduler_;
  SimConfig config_;  // Topology covered; resources nominal (see faults_).
  ClusterFaultState faults_;
  JobLifecycle lifecycle_;
  FineEngineOptions options_;

  std::vector<JobState> jobs_;
  // Superset of the datasets whose CacheManager allocation is nonzero,
  // ascending.  Quota enforcement visits the union of this set and the plan's
  // dataset_cache — every other dataset is a quota==current==0 no-op — so a
  // reschedule costs O(live datasets), not O(catalog).
  std::vector<DatasetId> nonzero_quota_ids_;
  std::vector<std::pair<DatasetId, Bytes>> quota_scratch_;
  AllocationPlan plan_;
  CacheManager cache_manager_;               // kDatasetQuota model.
  std::unique_ptr<ItemCache> shared_pool_;   // kSharedLru / kSharedLfu models.
  BytesPerSec fabric_rate_ = 0;
  MetricsCollector metrics_;
  Rng rng_;

  JobCalendar calendar_;                     // Next event per running job.
  // The miss set (jobs in Phase::kMissFetch) in ascending (want, id) order,
  // as parallel arrays so the wants are one contiguous sorted span for
  // WaterLevel.
  std::vector<BytesPerSec> miss_wants_;
  std::vector<std::int32_t> miss_ids_;
  std::vector<std::int32_t> fresh_;          // Jobs that became fresh since the last recompute.
  BytesPerSec flow_level_ = 0;               // Water level of the last recompute.
  std::vector<std::int32_t> due_;            // Scratch: keys due this step.
  bool flows_dirty_ = true;                  // Miss set, caps or capacity changed.
  bool wants_dirty_ = true;                  // Throttles or resources may have moved.
  std::int64_t order_slots_ = 0;             // Entries held by the jobs' epoch orders.
  EngineStepCounters counters_;
};

}  // namespace silod

#endif  // SILOD_SRC_SIM_FINE_ENGINE_H_
