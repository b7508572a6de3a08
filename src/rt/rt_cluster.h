// The real-time mini-cluster: the paper's "GPU acceleration" methodology
// (§7, "GPU Acceleration") as an executable runtime.
//
// The paper evaluates on K80 GPUs that run the full data pipeline but replace
// the forward/backward passes with sleep(profiled V100 duration).  RtCluster
// is that idea with the GPUs removed entirely: every job is a worker whose
// loader walks shuffled epochs and whose trainer sleeps block_bytes / f* per
// block (rt/worker_main.h); each block fetch is paid in the driver, through
// the shared DataManager and the in-memory remote store (checksummed
// payloads), throttled to the job's remote-IO allocation.  A scheduler thread
// periodically snapshots progress and applies a fresh AllocationPlan (quotas
// + throttles), exactly like the SiloD control loop in Fig. 7.
//
// Worker model (docs/MODEL.md §10): NodeManager runs every job's worker and
// speaks the rt/wire.h protocol with it over a socketpair.  By default the
// worker is a thread of this process; with workers_processes it is one real
// OS process per job, and an injected kWorkerCrash SIGKILLs a real pid
// instead of shutting the socket down.  Either way the crash discards
// progress per RtOptions::restart_cost and the restart pays its re-reads
// through the very same DataManager path, cross-checkable against the fine
// engine's per-kind fault accounting.
//
// Workloads are scaled down (tiny datasets, seconds of wall time) but every
// mechanism is the real one: concurrency, contention, throttling, caching,
// process supervision.
#ifndef SILOD_SRC_RT_RT_CLUSTER_H_
#define SILOD_SRC_RT_RT_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/rng.h"
#include "src/core/data_manager.h"
#include "src/core/recovery.h"
#include "src/fault/fault_injector.h"
#include "src/fault/minidump.h"
#include "src/fault/restart_cost.h"
#include "src/rt/node_manager.h"
#include "src/sched/policy.h"
#include "src/sim/metrics.h"
#include "src/storage/inmem_remote.h"
#include "src/storage/token_bucket.h"
#include "src/workload/trace_gen.h"

namespace silod {

struct RtOptions {
  // Blocks a worker's loader may stage ahead of its trainer.
  int pipeline_depth = 4;
  // Wall-clock rescheduling period.
  Seconds reschedule_period = 0.25;
  // Service rate for cache hits (the storage fabric).
  BytesPerSec fabric_rate = GBps(3.2);
  // Safety timeout: Run() aborts (returns error results) past this.
  Seconds max_wall_seconds = 120;

  // Fault schedule, consumed by the scheduler thread at its polling
  // granularity (reschedule_period).  Remote degradation, Data-Manager
  // restarts, cache-server crash/recover events (against the sharded Data
  // Manager, one shard per ClusterResources::num_servers) and worker
  // crash/restart events are all modelled; a worker event is ignored (and
  // counted) only when its target job does not exist, already finished, or
  // is not in the state the event requires.
  FaultPlan faults;
  // Loader retry policy for transient remote-read errors: exponential
  // backoff from `base`, capped at `cap` (common/backoff.h).
  Seconds retry_backoff_base = 0.002;
  Seconds retry_backoff_cap = 0.1;
  // When > 0, the scheduler thread captures a Data-Manager snapshot (§6,
  // durable pod annotations + disk contents) every period; a Data-Manager
  // restart restores from the latest one instead of capture-at-crash.
  Seconds snapshot_period = 0;
  // Failure domains of the cache shards (common/topology.h).  Empty =
  // zone-oblivious.  When set it is threaded into the scheduler's Snapshot,
  // the Data Manager routes spread datasets zone-proportionally, and shard
  // crashes are attributed per zone in RtResult::faults.blocks_lost_by_zone.
  ClusterTopology topology;

  // What a worker crash discards (fault/restart_cost.h).  The rt runtime
  // treats lose-partial-epoch as epoch-granular for every job (it does not
  // model curriculum orders).
  RestartCost restart_cost;

  // How NodeManager runs each job's worker: false = a thread of this process,
  // true = one OS process per job.  Only spawn, kill and reap differ; the
  // block order and the protocol are the same.
  bool workers_processes = false;
  Seconds worker_stop_grace = 2.0;  // Drain budget at shutdown and restart.
  // Respawn-after-unexpected-exit policy: bounded exponential backoff with
  // jitter; a job whose worker dies unexpectedly more than max_attempts
  // times is abandoned (reported unfinished).
  int respawn_max_attempts = 3;
  Seconds respawn_backoff_base = 0.01;
  Seconds respawn_backoff_cap = 0.2;
  double respawn_backoff_jitter = 0.1;

  // Crash forensics (fault/minidump.h): when non-empty, every injected
  // worker crash, unexpected worker exit and completion-invariant violation
  // serializes a minidump here (paths in RtResult::minidump_paths), and the
  // event recorder runs for the whole run.
  std::string minidump_dir;
  int minidump_window = 256;  // Events kept per dump.
};

struct RtJobResult {
  JobId id = kInvalidJob;
  Seconds start = 0;   // Wall seconds from Run() begin.
  Seconds finish = 0;  // Valid only when completed.
  // False when Run() timed out (or abandoned the job after repeated worker
  // deaths) before it consumed all its blocks; start, finish and Runtime()
  // are meaningless then.
  bool completed = false;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t blocks_done = 0;      // Blocks whose compute finished.
  std::int64_t blocks_consumed = 0;  // Blocks the trainer reported done.
  std::int64_t remote_retries = 0;   // Transient remote errors retried.
  // Blocks re-read because a crash discarded un-checkpointed progress.  For
  // a completed job, cache_hits + cache_misses == blocks fetched ==
  // blocks_total + blocks_refetched exactly (the completion invariant).
  std::int64_t blocks_refetched = 0;

  Seconds Runtime() const { return finish - start; }
};

struct RtResult {
  std::vector<RtJobResult> jobs;
  // Over completed jobs only; 0 if nothing completed.
  Seconds makespan = 0;
  int unfinished_jobs = 0;
  bool timed_out = false;

  // Fault accounting (RtOptions::faults).  Losses are shard-crash drops and
  // ignored_events sums ignored_by_kind; bytes_refetched and windows stay
  // empty (whole-block re-reads; degrade windows are only counted).
  FaultStats faults;
  // Events this runtime could not act on, by kind (targets that are out of
  // range / in the wrong state).
  std::map<FaultKind, int> ignored_by_kind;
  // Workers respawned after an unexpected exit (not injected crashes).
  int worker_respawns = 0;
  std::int64_t remote_retries = 0;
  // Compute sleeps workers began after they were told to stop (the deadline
  // or the end of the run), as their kDrained frames report them: each one
  // is a staged block drained at teardown, so 0 unless shutdown pays for
  // the pipeline.  A worker killed past worker_stop_grace reports none.
  std::int64_t late_compute_sleeps = 0;
  // Minidumps written during the run (empty unless minidump_dir is set).
  std::vector<std::string> minidump_paths;
};

// Folds an RtResult into the shared RunReport schema (sim/metrics.h), so the
// runtime serializes exactly like the simulation engines ("engine": "rt").
RunReport MakeRtRunReport(std::string label, const RtResult& result);

class RtCluster : private NodeManager::Host {
 public:
  // The trace's jobs all start at t = 0 (wall submit times are not modelled;
  // this runtime targets micro-benchmark-style workloads).  `scheduler` must
  // produce dataset-quota plans (SiloD / Quiver style).
  RtCluster(const Trace* trace, std::shared_ptr<Scheduler> scheduler,
            ClusterResources resources, RtOptions options = {});

  // Runs every job to completion on real threads/processes; blocking.
  RtResult Run();

 private:
  struct RtJob {
    const JobSpec* spec = nullptr;
    // Wall-clock remote-IO limiter; throttle_mu serializes the fetch path's
    // reservations against the scheduler's SetRate (TokenBucket requires a
    // monotone clock, so every operation reads the wall clock under the
    // lock).
    std::unique_ptr<TokenBucket> throttle;
    std::mutex throttle_mu;
    std::mutex mu;
    std::atomic<std::int64_t> blocks_done{0};
    std::int64_t blocks_total = 0;
    std::atomic<bool> completed{false};
    // Crashed and awaiting its restart event; set by ApplyFault, cleared by
    // RestartJob.
    std::atomic<bool> crashed{false};
    // Given up after respawn_max_attempts unexpected exits.
    std::atomic<bool> abandoned{false};
    std::atomic<std::int64_t> hits{0};
    std::atomic<std::int64_t> misses{0};
    std::atomic<std::int64_t> remote_retries{0};
    Seconds start = 0;
    Seconds finish = 0;
    Seconds block_compute = 0;

    // Everything below is under mu.
    std::int64_t consumed = 0;  // Blocks the worker reported done.
    // Fetch cursor: the absolute index the worker fetches next (rewound by a
    // lossy restart), and the refetch accounting that backs the completion
    // invariant — an access whose index is below the high-water mark is a
    // policy-mandated re-read.
    std::int64_t fetched = 0;
    std::int64_t high_water = 0;
    std::int64_t refetched = 0;
    // Bumped per spawn; stale frames from a killed worker's socket buffer
    // carry the old incarnation and are dropped.
    std::uint64_t incarnation = 0;
    std::unique_ptr<Rng> respawn_rng;
    std::unique_ptr<Backoff> respawn_backoff;
  };

  // The full fetch path: cache access (recorded), refetch accounting,
  // fabric/throttle waits, remote read with bounded backoff and a checksum
  // check.  Returns hit; *aborted is set when the run is stopping.
  bool FetchOneBlock(RtJob& job, std::int64_t fetch_index, std::int64_t block, bool* aborted);

  // NodeManager::Host.
  bool FetchBlock(JobId job, std::uint64_t incarnation, std::int64_t fetch_index,
                  std::int64_t block, bool* aborted) override;
  void OnBlockDone(JobId job, std::uint64_t incarnation, std::int64_t blocks_done) override;
  void OnDrained(JobId job, std::uint64_t incarnation, std::int64_t blocks_done,
                 std::int64_t blocks_fetched, std::int64_t late_sleeps) override;
  void OnUnexpectedExit(JobId job, std::uint64_t incarnation, int exit_status) override;

  void SchedulerLoop();
  void ScheduleOnce();
  void ApplyFault(const FaultEvent& event);
  RtJob* FindJob(JobId id);
  // The checkpoint index `done` rolls back to under restart_cost.
  std::int64_t RollbackTarget(std::int64_t done, const RtJob& job) const;
  // Applies restart_cost to the job's counters (job.mu held): freezes for
  // checkpoint-everything, rewinds done/fetched otherwise.  Accounts the
  // discarded compute.
  void ApplyRollbackLocked(RtJob& job);
  // Waits for the killed worker to retire, rolls back, respawns.
  void RestartJob(RtJob& job);
  Status SpawnWorker(RtJob& job);
  void CompleteJob(RtJob& job);
  void AbandonJob(RtJob& job);
  // Serializes the recorder's current window to minidump_dir (no-op when
  // forensics are off).
  void WriteDump(const std::string& label, const std::string& reason);
  Seconds WallNow() const;
  // Sleeps `s` in small slices, returning early once the run is stopping.
  void SleepInterruptible(Seconds s);

  const Trace* trace_;
  std::shared_ptr<Scheduler> scheduler_;
  ClusterResources resources_;
  RtOptions options_;

  InMemRemoteStore remote_;
  DataManager manager_;
  std::mutex manager_mu_;  // DataManager is not internally synchronized.

  std::vector<std::unique_ptr<RtJob>> jobs_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> unfinished_{0};
  std::chrono::steady_clock::time_point wall_start_;

  // Crash forensics; null unless minidump_dir is set.
  std::unique_ptr<MinidumpRecorder> recorder_;
  std::mutex forensics_mu_;  // Guards minidump_paths_, dump_counter_, compute_lost_.
  std::vector<std::string> minidump_paths_;
  int dump_counter_ = 0;
  double compute_lost_ = 0;

  // Touched by the handler threads.
  std::atomic<int> worker_respawns_{0};
  std::atomic<std::int64_t> late_compute_sleeps_{0};

  // Fault state: owned by the scheduler thread; the counters are read by
  // Run() only after it joins that thread.  Liveness is the shards' own.
  FaultInjector injector_;
  std::vector<FaultEvent> due_faults_;
  DataManagerSnapshot last_snapshot_;
  bool have_snapshot_ = false;
  Seconds next_snapshot_ = 0;
  FaultStats fault_stats_;  // Everything but compute_lost and blocks_refetched.
  ClusterTopology topology_;  // Cover()ed copy of RtOptions::topology.
  std::map<FaultKind, int> ignored_by_kind_;

  // Last, so it is destroyed (and its threads joined) before anything its
  // handler threads touch.
  NodeManager node_;
};

}  // namespace silod

#endif  // SILOD_SRC_RT_RT_CLUSTER_H_
