// Allocation vocabulary shared by schedulers, storage policies and engines.
//
// A scheduling round produces an AllocationPlan: which jobs hold GPUs, how
// much cache each *dataset* gets (cache is charged once per dataset so
// sharing jobs benefit jointly, §6), and each *job's* remote-IO throttle
// (remote IO is exclusive per job since sharing jobs still read in different
// orders, §6).  Baseline cache systems that do not expose allocations
// (Alluxio's shared LRU, CoorDL's per-job static caches) are described by the
// plan's CacheModelKind so the engines model them faithfully.
#ifndef SILOD_SRC_SCHED_ALLOCATION_H_
#define SILOD_SRC_SCHED_ALLOCATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/workload/dataset.h"
#include "src/workload/job.h"

namespace silod {

enum class CacheModelKind {
  // Per-dataset uniform-cache quotas enforced by the data manager (SiloD,
  // Quiver).
  kDatasetQuota,
  // One cluster-wide LRU pool, no quotas (Alluxio's default).
  kSharedLru,
  // One cluster-wide LFU pool (Alluxio's alternative policy).  Under the
  // exactly-once-per-epoch pattern every item's frequency grows in lockstep,
  // so LFU degenerates to the same scan thrashing as LRU.
  kSharedLfu,
  // Each job caches independently in a fixed private slice (CoorDL).
  kPerJobStatic,
};

const char* CacheModelKindName(CacheModelKind kind);

struct ClusterResources {
  int total_gpus = 0;
  Bytes total_cache = 0;
  BytesPerSec remote_io = 0;  // Egress limit of the storage account.
  // Per-job cap the provider imposes on a single reader (per-VM/connection
  // limit); kUnlimitedRate when only the account-level egress binds.  This is
  // the "50 MB/s remote IO bandwidth" of Fig. 4 — one job's unused slice is
  // not transferable to another, which is exactly why Quiver's cache
  // hoarding starves Job-1 while max-min keeps both jobs fast.
  BytesPerSec per_job_remote_cap = kUnlimitedRate;
  int num_servers = 1;
};

// InvalidArgument unless the storage side of `resources` is usable: a
// non-negative cache pool, a finite non-negative egress limit, a per-job cap
// that is neither negative nor NaN (kUnlimitedRate means no cap), and at
// least one cache server.
Status ValidateStorageResources(const ClusterResources& resources);

// Fills the storage side of `resources` from the CLI tools' shared flags
// --cache-tb, --egress-gbps and --per-job-cap-mbps (0 = no cap).  A negative
// or non-finite cache or egress, or a negative or NaN cap, is
// InvalidArgument naming the flag, and leaves `resources` untouched.
Status SetStorageFromFlags(double cache_tb, double egress_gbps, double per_job_cap_mbps,
                           ClusterResources* resources);

struct JobAllocation {
  bool running = false;
  int gpus = 0;
  // Private cache slice; meaningful for kPerJobStatic only.
  Bytes private_cache = 0;
  // Remote-IO throttle enforced by the FUSE clients; kUnlimitedRate when the
  // plan does not manage remote IO (provider fair share applies).
  BytesPerSec remote_io = kUnlimitedRate;
  // GPU-type placement (common/topology.h gpu_types()): the pool index the
  // gang runs in and the resulting speed multiplier on the job's ideal rate.
  // -1 / 1.0 on uniform fleets — PlanDigest only mixes these when a type was
  // assigned, so untyped digests match the pre-heterogeneity ones exactly.
  int gpu_type = -1;
  double speed = 1.0;
};

struct AllocationPlan {
  CacheModelKind cache_model = CacheModelKind::kDatasetQuota;
  // Whether the plan carries explicit per-job remote-IO throttles (§7.2's
  // ablation turns this off and falls back to provider fair share).
  bool manages_remote_io = false;

  std::map<JobId, JobAllocation> jobs;
  std::map<DatasetId, Bytes> dataset_cache;
  // Zone-aware placement (common/topology.h): how each dataset's quota is
  // spread across the snapshot topology's zones, indexed like
  // topology.zones().  Present only when the policy placed against a
  // topology; each entry sums to the dataset's dataset_cache quota, and the
  // data manager / engines charge a zone-crash only the crashed zone's
  // share.  Empty map = zone-oblivious plan (pre-topology behaviour).
  std::map<DatasetId, std::vector<Bytes>> dataset_zone_cache;

  int GpusUsed() const;
  Bytes DatasetCacheTotal() const;
  const JobAllocation& Get(JobId job) const;
  bool IsRunning(JobId job) const;

  // Conservation checks: GPUs, cache and (when managed) remote IO within the
  // cluster totals; no allocation to non-running jobs.
  Status Validate(const ClusterResources& resources) const;
};

// Exact (bit-level) plan equality: every field compared, doubles by their
// bit pattern so NaN/±0/inf differences are caught.  This is the correctness
// anchor of the silodd planner (serve/incremental_planner.h): the daemon's
// plan must be PlansBitIdentical to a batch solve of the same snapshot.
bool PlansBitIdentical(const AllocationPlan& a, const AllocationPlan& b);

// FNV-1a digest over a canonical serialization of the plan (maps iterate in
// key order, doubles hash their bit pattern).  PlansBitIdentical(a, b)
// implies PlanDigest(a) == PlanDigest(b); the daemon's `plan` verb and the
// serve-smoke CI stage compare digests instead of shipping whole plans.
std::uint64_t PlanDigest(const AllocationPlan& plan);

}  // namespace silod

#endif  // SILOD_SRC_SCHED_ALLOCATION_H_
