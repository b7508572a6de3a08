// The silodd job table: the daemon's durable view of every job a client
// submitted, keyed by the client-chosen string id (docs/MODEL.md §11).
//
// The table owns the dataset catalog (datasets are interned by name on first
// submit; later submits must agree on size/block-size) and assigns dense
// JobIds in submission order — so snapshots built here walk jobs in the same
// ascending-id order the simulation engines do.  The schedulers' tie-breaks
// follow snapshot order, so the batch-vs-daemon cross-check (silod_client
// --check) relies on it.
//
// States: kActive jobs are visible to the scheduler; kQueued jobs were
// admission-queued and wait outside the scheduler's view; kCompleted /
// kCancelled are terminal and kept for the run report.
//
// The table keeps a live index beside the jobs: the ascending ids of active
// jobs, the queued ids in FIFO order, a count per state and the active GPU
// demand.  Every state change goes through SetState, so snapshots, queue
// walks, counts and the demand cost O(live) or O(1), not O(history).
//
// It also keeps what the service's state digest needs so that the digest
// costs O(live) too (docs/MODEL.md §12): a running FNV-1a over the catalog,
// which only ever grows by appends, and a wrapping sum of JobStateHash over
// the jobs that reached a terminal state (their fields never change again).
#ifndef SILOD_SRC_SERVE_JOB_TABLE_H_
#define SILOD_SRC_SERVE_JOB_TABLE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/digest.h"
#include "src/common/status.h"
#include "src/sched/policy.h"
#include "src/workload/dataset.h"
#include "src/workload/job.h"

namespace silod {

enum class ServeJobState { kActive, kQueued, kCompleted, kCancelled };

const char* ServeJobStateName(ServeJobState state);
// Inverse of ServeJobStateName; kInvalidArgument for unknown names (used by
// checkpoint restore, serve/journal.h).
Result<ServeJobState> ServeJobStateFromName(const std::string& name);

struct ServeJob {
  std::string key;  // Client-chosen id; unique across the daemon's lifetime.
  JobSpec spec;     // spec.id is the dense daemon JobId.
  // Set by JobTable::Add and changed only by JobTable::SetState.
  ServeJobState state() const { return state_; }

  Seconds submit_time = 0;       // Virtual time of the submit request.
  Seconds admit_time = -1;       // When admission let it through (-1: never).
  Seconds first_start_time = -1; // First plan that granted it GPUs.
  Seconds finish_time = -1;      // Virtual time of complete/cancel.

  // Scheduler-visible runtime state, updated by progress reports and plans.
  Bytes remaining_bytes = 0;
  Bytes effective_cache = 0;
  bool running = false;  // Held GPUs in the last applied plan.
  // GPU type held in the last applied plan (-1 when waiting or untyped).
  // Sticky across plans while running: the non-preemptive serve path never
  // migrates a running job between types.
  int gpu_type = -1;

 private:
  friend class JobTable;
  ServeJobState state_ = ServeJobState::kActive;
};

// The job's contribution to the service's state digest: FNV-1a over its id,
// key, state, spec, timestamps and scheduler-visible state, then a
// splitmix64 finalizer so a wrapping sum of these hashes mixes every bit.
std::uint64_t JobStateHash(const ServeJob& job);

class JobTable {
 public:
  // Interns `name`, creating the dataset on first sight; kInvalidArgument if
  // an existing dataset of that name disagrees on size or block size.
  Result<DatasetId> InternDataset(const std::string& name, Bytes size, Bytes block_size);

  // Adds a job under `key` in `state` (a submit's kActive or kQueued, or any
  // state on checkpoint restore); kAlreadyExists if the key was ever used.
  // The spec's id field is overwritten with the assigned dense JobId.
  Result<ServeJob*> Add(const std::string& key, JobSpec spec, Seconds submit_time,
                        ServeJobState state);
  // Moves `job` to `to` and keeps the index in step.  SILOD_CHECKs the
  // transition: queued -> active (promotion), active -> completed, and
  // active or queued -> cancelled.
  void SetState(ServeJob* job, ServeJobState to);

  // Lookup by client key; kNotFound for unknown keys.
  Result<ServeJob*> Find(const std::string& key);
  ServeJob* Get(JobId id);
  const ServeJob* Get(JobId id) const;

  // Scheduler view: kActive jobs in ascending JobId order.  The snapshot
  // borrows pointers into the table; it is valid until the next Add.
  Snapshot BuildSnapshot(Seconds now, const ClusterResources& resources,
                         const ClusterTopology* topology) const;

  // Sum of active jobs' GPU demand (the admission controller's load input).
  int ActiveGpuDemand() const { return active_gpu_demand_; }
  // Active job ids, ascending.
  const std::vector<JobId>& active() const { return active_; }
  // Queued job ids in submission (FIFO promotion) order, which is ascending:
  // a job is queued only when it is added.
  const std::deque<JobId>& queued() const { return queued_; }

  std::size_t size() const { return jobs_.size(); }
  std::size_t CountState(ServeJobState state) const {
    return counts_[static_cast<std::size_t>(state)];
  }
  const std::vector<std::unique_ptr<ServeJob>>& jobs() const { return jobs_; }
  const DatasetCatalog& catalog() const { return catalog_; }

  // FNV-1a over every interned dataset's name, size and block size, in
  // catalog order.
  std::uint64_t catalog_digest() const { return catalog_hash_.hash(); }
  // Folds the JobStateHash of each job that reached a terminal state since
  // the last call into retired_sum().  Call it once the request that ended
  // them has returned: a completed or cancelled job's fields are final then,
  // but not yet inside the request (or checkpoint restore) that set them.
  void FoldRetired();
  // Wrapping sum of JobStateHash over the completed and cancelled jobs;
  // SILOD_CHECKs that none is waiting for FoldRetired.
  std::uint64_t retired_sum() const;

 private:
  // Enters or leaves `job` in the index for its current state.
  void Index(const ServeJob& job, bool enter);

  DatasetCatalog catalog_;
  std::map<std::string, DatasetId> datasets_by_name_;
  std::vector<std::unique_ptr<ServeJob>> jobs_;  // Indexed by JobId.
  std::map<std::string, JobId> jobs_by_key_;
  std::vector<JobId> active_;  // Ascending.
  std::deque<JobId> queued_;   // Ascending (FIFO).
  std::array<std::size_t, 4> counts_{};  // Indexed by ServeJobState.
  int active_gpu_demand_ = 0;
  Fnv1a64 catalog_hash_;
  std::vector<JobId> unfolded_;  // Terminal, not yet in retired_sum_.
  std::uint64_t retired_sum_ = 0;
};

}  // namespace silod

#endif  // SILOD_SRC_SERVE_JOB_TABLE_H_
