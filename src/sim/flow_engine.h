// FlowEngine: piecewise-constant-rate cluster simulation.
//
// Between events (arrival, completion, epoch boundary, reschedule tick) every
// running job progresses at a constant rate derived from the closed-form
// models: SiloDPerf for dataset-quota caches, the per-job static model for
// CoorDL, and the shared-LRU fluid model for Alluxio.  Cache fill and delayed
// effectiveness (§6) are integrated analytically: a dataset's cache fills at
// the rate of its jobs' miss traffic, and a job's *effective* cache is
// snapshotted at each of its epoch boundaries.
//
// This is the engine for the 400-GPU / 4-week experiments (§7.2); its
// fidelity against the mini-batch FineEngine is itself an experiment
// (Table 6's simulation columns).
#ifndef SILOD_SRC_SIM_FLOW_ENGINE_H_
#define SILOD_SRC_SIM_FLOW_ENGINE_H_

#include <memory>
#include <vector>

#include "src/sched/policy.h"
#include "src/sim/cluster.h"
#include "src/sim/cluster_fault_state.h"
#include "src/sim/job_lifecycle.h"
#include "src/sim/metrics.h"
#include "src/workload/trace_gen.h"

namespace silod {

class FlowEngine {
 public:
  FlowEngine(const Trace* trace, std::shared_ptr<Scheduler> scheduler, SimConfig config);

  SimResult Run();

 private:
  struct JobState {
    const JobSpec* spec = nullptr;
    double remaining = 0;        // Bytes left to train.
    double epoch_pos = 0;        // Bytes into the current epoch.
    double effective = 0;        // Effective cache bytes for the current epoch.
    double private_cached = 0;   // CoorDL private-cache fill.
    Bytes private_quota = 0;
    bool running = false;
    // Ever held GPUs: a restarted worker resumes and pays the restore penalty.
    bool started = false;
    bool warm = false;           // Completed at least one epoch.
    BytesPerSec rate = 0;        // End-to-end throughput; set while running.
    BytesPerSec io_rate = 0;     // Egress consumption; set while running.
    // GPU-type placement from the plan (-1 / 1.0 on uniform fleets): the job
    // computes at spec->ideal_io * speed while holding this type's GPUs.
    int gpu_type = -1;
    double speed = 1.0;
    // The plan's remote-IO throttle as of the last reschedule;
    // kUnlimitedRate when the plan does not manage remote IO.
    BytesPerSec throttle = kUnlimitedRate;
  };
  struct DatasetState {
    Bytes quota = 0;
    double cached = 0;      // Filled bytes (may exceed quota only transiently).
    double fill_rate = 0;
    double fill_limit = 0;  // Cap `cached` may fill to during this step.
    // Zone-aware placement: per-zone resident fluid and the plan's per-zone
    // share limits (indexed like the topology's zones).  Empty for
    // zone-oblivious datasets; when present, zone_cached sums to `cached`.
    std::vector<double> zone_cached;
    std::vector<double> zone_limit;

    bool AllZero() const {
      return quota == 0 && cached == 0 && fill_rate == 0 && fill_limit == 0 &&
             zone_cached.empty() && zone_limit.empty();
    }
  };

  void Reschedule(Seconds now);
  // Shrinks dataset d's fluid to `limit`, scaling its jobs' effectiveness in
  // proportion (uniform random eviction removes effective and ineffective
  // items alike).  Touches only the dataset's own state and its own jobs.
  void ShrinkDataset(std::size_t d, double limit);
  // Scales the effectiveness of dataset d's present (live or crashed) jobs.
  void ScaleEffective(std::size_t d, double keep);
  // The whole per-dataset quota step for one dataset, given its plan quota
  // and zone shares (null when the plan does not spread it): zone-aware
  // solve (ApplyZoneQuota) when spread, plain shrink otherwise.  Writes only
  // datasets_[d] and the jobs in dataset_jobs_[d]; a no-op on an all-zero
  // dataset the plan does not name.
  void ApplyDatasetQuota(std::size_t d, Bytes quota, const std::vector<Bytes>* shares);
  void ComputeRates();
  void RecordMetrics(Seconds now);
  // faults_ applies the cluster effect; this is the fluid loss model.
  void ApplyFault(const FaultEvent& event, Seconds now);
  // Applies a zone-aware quota: adopts the plan's per-zone shares as limits,
  // migrates over-cap fluid into zones with headroom (shares that moved — or
  // a zone that died — rebalance over the intra-cluster fabric), and only
  // evicts fluid with nowhere left to go, scaling job effectiveness like a
  // uniform shrink.
  void ApplyZoneQuota(std::size_t d, Bytes quota, const std::vector<Bytes>& shares);
  // Distributes `delta` fill bytes across zones proportional to their
  // headroom under ZoneFillCaps.
  void FillZones(DatasetState& ds, double delta);
  // Per-zone holding caps: the alive-scaled share, plus each alive zone's
  // proportional slice of dead zones' capacity (a dead server's blocks
  // rehash to the survivors, so an outage never strands quota).  Equals
  // zone_limit exactly when every member is alive, and then returns it;
  // otherwise returns zone_caps_, valid until the next call.
  const std::vector<double>& ZoneFillCaps(const DatasetState& ds);

  const Trace* trace_;
  std::shared_ptr<Scheduler> scheduler_;
  SimConfig config_;  // Topology covered; resources nominal (see faults_).
  ClusterFaultState faults_;
  JobLifecycle lifecycle_;
  double prefetch_rate_ = 0;  // Leftover-egress prefetch traffic (Hoard mode).

  std::vector<JobState> jobs_;          // Indexed by JobId.
  std::vector<DatasetState> datasets_;  // Indexed by DatasetId.
  // The held set: ascending ids of the datasets whose state may be non-zero
  // (quota, cached, zone vectors or fill); every other datasets_ entry is
  // all zero.  The per-dataset loops walk this set, not the catalog, which
  // grows with the trace (docs/MODEL.md §9).  Reschedule rebuilds it.
  std::vector<DatasetId> held_;
  // Jobs per dataset, ascending job id (fixed at construction: a job's
  // dataset never changes).  Per-dataset effectiveness updates walk this
  // partition instead of every job.
  std::vector<std::vector<JobId>> dataset_jobs_;
  AllocationPlan plan_;
  MetricsCollector metrics_;
  // Scratch kept so that a step does not allocate: ComputeRates' running
  // jobs, miss ratios and max-min share buffers, RecordMetrics' rates, the
  // zone fill's caps and headroom, and Reschedule's next held set.
  std::vector<JobState*> running_;
  std::vector<double> miss_;
  // share_granted_ holds MaxMinShare(share_demand_, share_caps_,
  // share_capacity_); next_demand_ and next_caps_ are the step's inputs
  // before ComputeRates compares them with these.
  std::vector<BytesPerSec> share_demand_;
  std::vector<BytesPerSec> share_caps_;
  BytesPerSec share_capacity_ = 0;
  std::vector<BytesPerSec> share_sorted_;
  std::vector<BytesPerSec> share_granted_;
  std::vector<BytesPerSec> next_demand_;
  std::vector<BytesPerSec> next_caps_;
  std::vector<JobRates> rates_;
  std::vector<double> zone_caps_;
  std::vector<double> zone_headroom_;
  std::vector<DatasetId> held_next_;
};

}  // namespace silod

#endif  // SILOD_SRC_SIM_FLOW_ENGINE_H_
