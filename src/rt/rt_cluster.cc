#include "src/rt/rt_cluster.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/logging.h"
#include "src/common/text_codec.h"

namespace silod {
namespace {

// Worker epoch-shuffle seed, per job.
constexpr std::uint64_t kLoaderSeed = 0x10AD;
constexpr std::uint64_t kRespawnSeed = 0xBAC0FF;
// Service rate for cache hits (the storage fabric).
constexpr BytesPerSec kFabricRate = GBps(3.2);
// Respawn-after-unexpected-exit policy (seeded per job by kRespawnSeed).
constexpr BackoffOptions kRespawnBackoff = {
    .base = 0.01, .cap = 0.2, .jitter = 0.1, .max_attempts = 3};
// Events a minidump keeps.
constexpr int kMinidumpWindow = 256;

void SleepSeconds(double s) {
  if (s > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  }
}

}  // namespace

RunReport MakeRtRunReport(std::string label, const RtResult& result) {
  RunReport report;
  report.label = std::move(label);
  report.engine = "rt";
  report.jobs = static_cast<int>(result.jobs.size());
  report.unfinished_jobs = result.unfinished_jobs;
  std::vector<JctSample> samples;
  samples.reserve(result.jobs.size());
  for (const RtJobResult& j : result.jobs) {
    if (j.completed) {
      // RT jobs start the moment Run() launches them, so the JCT is all
      // run-time: queueing delay is zero by construction.
      JctSample sample;
      sample.jct_min = j.Runtime() / 60.0;
      samples.push_back(sample);
    }
  }
  FillJctSummary(samples, &report.jct);
  report.makespan_min = result.makespan / 60.0;
  report.faults = result.faults;
  report.AddExtra("timed_out", result.timed_out);
  report.AddExtra("remote_retries", result.remote_retries);
  report.AddExtra("worker_respawns", static_cast<std::int64_t>(result.worker_respawns));
  report.AddExtra("minidumps", static_cast<std::int64_t>(result.minidump_paths.size()));
  return report;
}

RtCluster::RtCluster(const Trace* trace, std::shared_ptr<Scheduler> scheduler,
                     ClusterResources resources, RtOptions options)
    : trace_(trace), scheduler_(std::move(scheduler)), resources_(resources), options_(options),
      remote_(resources.remote_io, /*burst=*/MB(8)),
      manager_(resources.total_cache, resources.remote_io, /*seed=*/7,
               std::max(1, resources.num_servers)),
      injector_(options.faults), node_(this, options.workers_processes) {
  SILOD_CHECK(trace_ != nullptr) << "trace required";
  SILOD_CHECK(scheduler_ != nullptr) << "scheduler required";
  SILOD_CHECK(!trace_->jobs.empty()) << "empty trace";
  int gpu_demand = 0;
  for (const JobSpec& spec : trace_->jobs) {
    gpu_demand += spec.num_gpus;
  }
  SILOD_CHECK(gpu_demand <= resources.total_gpus)
      << "RtCluster runs all jobs concurrently; GPU demand " << gpu_demand << " exceeds "
      << resources.total_gpus;
  if (!options_.topology.empty()) {
    const Status st = manager_.SetTopology(options_.topology);
    SILOD_CHECK(st.ok()) << "bad topology: " << st.ToString();
    topology_ = manager_.topology();  // Cover()ed over the shards.
  }
  for (const Dataset& dataset : trace_->catalog.all()) {
    remote_.RegisterDataset(dataset);
  }
  for (const JobSpec& spec : trace_->jobs) {
    auto job = std::make_unique<RtJob>();
    job->spec = &spec;
    const Dataset& d = trace_->catalog.Get(spec.dataset);
    job->blocks_total =
        std::max<std::int64_t>(1, (spec.total_bytes + d.block_size / 2) / d.block_size);
    job->throttle = std::make_unique<TokenBucket>(kUnlimitedRate, MB(8));
    job->block_compute = static_cast<double>(d.block_size) / spec.ideal_io;
    job->respawn_rng =
        std::make_unique<Rng>(kRespawnSeed ^ static_cast<std::uint64_t>(spec.id));
    job->respawn_backoff = std::make_unique<Backoff>(kRespawnBackoff, job->respawn_rng.get());
    jobs_.push_back(std::move(job));
  }
  if (!options_.minidump_dir.empty()) {
    recorder_ = std::make_unique<MinidumpRecorder>(manager_, &trace_->catalog,
                                                   resources_.remote_io, /*seed=*/7,
                                                   kMinidumpWindow);
  }
}

Seconds RtCluster::WallNow() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_).count();
}

RtCluster::RtJob* RtCluster::FindJob(JobId id) {
  for (const auto& job : jobs_) {
    if (job->spec->id == id) {
      return job.get();
    }
  }
  return nullptr;
}

bool RtCluster::FetchOneBlock(RtJob& job, std::int64_t fetch_index, std::int64_t block,
                              bool* aborted) {
  *aborted = false;
  if (stopping_.load()) {
    *aborted = true;
    return false;
  }
  const Dataset& dataset = trace_->catalog.Get(job.spec->dataset);
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(manager_mu_);
    if (recorder_ != nullptr) {
      recorder_->MaybeRebase(manager_);
    }
    hit = manager_.AccessBlock(dataset, block);
    if (recorder_ != nullptr) {
      recorder_->RecordAccess(job.spec->id, dataset.id, block, hit);
    }
  }
  {
    // Completion-invariant accounting: an access below the job's high-water
    // mark is a crash-mandated re-read, so for every completed job
    // hits + misses == blocks_total + refetched exactly.
    std::lock_guard<std::mutex> lock(job.mu);
    if (fetch_index < job.high_water) {
      ++job.refetched;
    } else {
      job.high_water = fetch_index + 1;
    }
  }
  const Bytes bytes = dataset.BlockBytes(block);
  if (hit) {
    job.hits.fetch_add(1);
    SleepSeconds(static_cast<double>(bytes) / kFabricRate);
  } else {
    job.misses.fetch_add(1);
    // The FUSE client's per-job throttle, then the account-level egress
    // bucket inside the remote store (which also sleeps).
    Seconds wait = 0;
    {
      std::lock_guard<std::mutex> lock(job.throttle_mu);
      const Seconds now = WallNow();
      const Seconds admit = job.throttle->TimeToAdmit(bytes, now);
      job.throttle->Consume(bytes, admit);
      wait = admit - now;
    }
    SleepInterruptible(wait);
    // Bounded exponential backoff against injected transient errors: a
    // failed read spent no egress tokens, so retrying costs only latency.
    Backoff backoff(BackoffOptions{});
    for (;;) {
      if (stopping_.load()) {
        *aborted = true;
        return hit;
      }
      const Result<std::vector<std::uint8_t>> payload = remote_.TryReadBlock(dataset.id, block);
      if (payload.ok()) {
        // The store is in-process and deterministic: a mismatch is memory
        // corruption, not a transient error.
        SILOD_CHECK(InMemRemoteStore::Checksum(*payload) ==
                    InMemRemoteStore::ExpectedChecksum(dataset.id, block, bytes))
            << "corrupt payload: dataset " << dataset.id << " block " << block;
        break;
      }
      job.remote_retries.fetch_add(1);
      SleepSeconds(backoff.NextDelay());
    }
  }
  return hit;
}

void RtCluster::SleepInterruptible(Seconds s) {
  constexpr Seconds kSlice = 0.02;
  Seconds remaining = s;
  while (remaining > 0 && !stopping_.load()) {
    const Seconds chunk = remaining < kSlice ? remaining : kSlice;
    SleepSeconds(chunk);
    remaining -= chunk;
  }
}

void RtCluster::CompleteJob(RtJob& job) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    if (!job.completed.load() && !job.abandoned.load()) {
      job.finish = WallNow();
      job.completed.store(true);
      first = true;
    }
  }
  if (first) {
    unfinished_.fetch_sub(1);
  }
}

void RtCluster::AbandonJob(RtJob& job) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    if (!job.completed.load() && !job.abandoned.load()) {
      job.abandoned.store(true);
      first = true;
    }
  }
  if (first) {
    if (recorder_ != nullptr) {
      recorder_->Note("abandon job=" + std::to_string(job.spec->id));
    }
    unfinished_.fetch_sub(1);
  }
}

// --- NodeManager::Host -------------------------------------------------------

bool RtCluster::FetchBlock(JobId job_id, std::uint64_t incarnation, std::int64_t fetch_index,
                           std::int64_t block, bool* aborted) {
  *aborted = false;
  RtJob* job = FindJob(job_id);
  if (job == nullptr) {
    *aborted = true;
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (incarnation != job->incarnation || job->crashed.load()) {
      *aborted = true;  // Stale worker, or crashed and awaiting restart.
      return false;
    }
  }
  const bool hit = FetchOneBlock(*job, fetch_index, block, aborted);
  if (!*aborted) {
    std::lock_guard<std::mutex> lock(job->mu);
    if (incarnation == job->incarnation) {
      job->fetched = std::max(job->fetched, fetch_index + 1);
    }
  }
  return hit;
}

void RtCluster::OnBlockDone(JobId job_id, std::uint64_t incarnation, std::int64_t blocks_done) {
  RtJob* job = FindJob(job_id);
  if (job == nullptr) {
    return;
  }
  bool complete = false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (incarnation != job->incarnation || job->crashed.load() || job->completed.load()) {
      return;  // Stale frame from a killed worker's socket buffer.
    }
    if (blocks_done <= job->consumed) {
      return;
    }
    job->consumed = blocks_done;
    job->blocks_done.store(blocks_done);
    complete = blocks_done >= job->blocks_total;
  }
  if (complete) {
    CompleteJob(*job);
  }
}

void RtCluster::OnDrained(JobId job_id, std::uint64_t incarnation, std::int64_t blocks_done,
                          std::int64_t blocks_fetched, std::int64_t late_sleeps) {
  late_compute_sleeps_.fetch_add(late_sleeps);
  RtJob* job = FindJob(job_id);
  if (job == nullptr) {
    return;
  }
  bool complete = false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (incarnation != job->incarnation || job->crashed.load()) {
      return;
    }
    job->consumed = std::max(job->consumed, blocks_done);
    job->blocks_done.store(job->consumed);
    job->fetched = std::max(job->fetched, blocks_fetched);
    complete = job->consumed >= job->blocks_total;
  }
  if (complete) {
    CompleteJob(*job);
  }
}

void RtCluster::OnUnexpectedExit(JobId job_id, std::uint64_t incarnation, int exit_status) {
  RtJob* job = FindJob(job_id);
  if (job == nullptr || stopping_.load()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (incarnation != job->incarnation || job->completed.load() || job->abandoned.load()) {
      return;
    }
  }
  SILOD_LOG(Error) << "worker for job " << job_id << " exited unexpectedly (status " << exit_status
                   << ")";
  if (recorder_ != nullptr) {
    recorder_->Note("worker-exit job=" + std::to_string(job_id) +
                    " status=" + std::to_string(exit_status));
  }
  WriteDump("worker-exit-job" + std::to_string(job_id),
            "unexpected worker exit, job " + std::to_string(job_id) + ", exit status " +
                std::to_string(exit_status));
  if (job->respawn_backoff->exhausted()) {
    SILOD_LOG(Error) << "job " << job_id << " abandoned after " << job->respawn_backoff->attempts()
                     << " respawns";
    AbandonJob(*job);
    return;
  }
  const Seconds delay = job->respawn_backoff->NextDelay();
  worker_respawns_.fetch_add(1);
  SleepInterruptible(delay);
  if (stopping_.load()) {
    return;
  }
  {
    // A real crash discards un-checkpointed progress exactly like an
    // injected one.
    std::lock_guard<std::mutex> lock(job->mu);
    ApplyRollbackLocked(*job);
  }
  if (const Status st = SpawnWorker(*job); !st.ok()) {
    SILOD_LOG(Error) << "respawn for job " << job_id << " failed: " << st.ToString();
    AbandonJob(*job);
  }
}

// --- Restart-cost machinery -------------------------------------------------

std::int64_t RtCluster::RollbackTarget(std::int64_t done, const RtJob& job) const {
  switch (options_.restart_cost.policy) {
    case RestartCostPolicy::kCheckpointEverything:
      return done;
    case RestartCostPolicy::kLosePartialEpoch: {
      const Dataset& d = trace_->catalog.Get(job.spec->dataset);
      return done - done % d.num_blocks;
    }
    case RestartCostPolicy::kCheckpointInterval: {
      const std::int64_t n = std::max<std::int64_t>(1, options_.restart_cost.interval_blocks);
      return done - done % n;
    }
  }
  return done;
}

void RtCluster::ApplyRollbackLocked(RtJob& job) {
  const std::int64_t done = job.consumed;
  const std::int64_t resume = RollbackTarget(done, job);
  {
    std::lock_guard<std::mutex> lock(forensics_mu_);
    compute_lost_ += static_cast<double>(done - resume) * job.block_compute;
  }
  if (recorder_ != nullptr) {
    recorder_->Note("rollback job=" + std::to_string(job.spec->id) + " done=" +
                    std::to_string(done) + " resume=" + std::to_string(resume));
  }
  if (options_.restart_cost.policy == RestartCostPolicy::kCheckpointEverything) {
    return;  // Freeze: staged compute resumes verbatim, nothing re-read.
  }
  job.consumed = resume;
  job.blocks_done.store(resume);
  job.fetched = resume;
}

void RtCluster::RestartJob(RtJob& job) {
  // The killed worker's handler drains any in-flight fetch and retires; wait
  // for it so the fetch cursor is final before the rollback.
  if (!node_.WaitIdle(job.spec->id, options_.worker_stop_grace)) {
    SILOD_LOG(Error) << "job " << job.spec->id << " worker did not retire within grace";
  }
  {
    std::lock_guard<std::mutex> lock(job.mu);
    ApplyRollbackLocked(job);
    job.crashed.store(false);
  }
  if (!stopping_.load()) {
    if (const Status st = SpawnWorker(job); !st.ok()) {
      SILOD_LOG(Error) << "restart spawn for job " << job.spec->id << " failed: " << st.ToString();
      AbandonJob(job);
    }
  }
}

Status RtCluster::SpawnWorker(RtJob& job) {
  const Dataset& dataset = trace_->catalog.Get(job.spec->dataset);
  WorkerConfig config;
  config.job = job.spec->id;
  config.blocks_total = job.blocks_total;
  config.num_blocks = dataset.num_blocks;
  config.pipeline_depth = options_.pipeline_depth;
  config.rng_seed = kLoaderSeed ^ static_cast<std::uint64_t>(job.spec->id);
  config.block_compute = job.block_compute;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    config.incarnation = ++job.incarnation;
    config.resume_done = job.consumed;
    config.resume_fetched = job.fetched;
  }
  if (recorder_ != nullptr) {
    recorder_->Note("spawn job=" + std::to_string(config.job) +
                    " inc=" + std::to_string(config.incarnation) +
                    " done=" + std::to_string(config.resume_done) +
                    " fetched=" + std::to_string(config.resume_fetched));
  }
  return node_.Spawn(config);
}

void RtCluster::WriteDump(const std::string& label, const std::string& reason) {
  if (recorder_ == nullptr) {
    return;
  }
  const Minidump dump = recorder_->Dump(WallNow(), reason);
  int n;
  {
    std::lock_guard<std::mutex> lock(forensics_mu_);
    n = dump_counter_++;
  }
  const auto path = WriteMinidumpFile(dump, options_.minidump_dir, label, n);
  if (!path.ok()) {
    SILOD_LOG(Error) << "minidump write failed: " << path.status().ToString();
    return;
  }
  std::lock_guard<std::mutex> lock(forensics_mu_);
  minidump_paths_.push_back(*path);
}

// --- Fault application ------------------------------------------------------

void RtCluster::ApplyFault(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kRemoteDegrade:
      remote_.SetFault(event.severity, event.error_rate);
      if (event.severity < 1.0 || event.error_rate > 0) {
        ++fault_stats_.degrade_windows;
      }
      if (recorder_ != nullptr) {
        recorder_->Note("degrade factor=" + std::to_string(event.severity) +
                        " err=" + std::to_string(event.error_rate));
      }
      return;
    case FaultKind::kDataManagerRestart: {
      // The in-memory Data Manager dies and a fresh one rebuilds from the
      // durable state (§6).  Fetches keep running throughout: they serialize
      // on manager_mu_, so each read lands either on the old manager or the
      // restored one — a restore from a stale snapshot only turns some hits
      // into misses, never corrupts accounting.
      std::lock_guard<std::mutex> lock(manager_mu_);
      if (recorder_ != nullptr) {
        recorder_->MaybeRebase(manager_);
      }
      const DataManagerSnapshot snapshot =
          have_snapshot_ ? last_snapshot_ : CaptureSnapshot(manager_, trace_->catalog);
      std::vector<int> dead_shards;
      for (int s = 0; s < manager_.num_shards(); ++s) {
        if (!manager_.shard_alive(s)) {
          dead_shards.push_back(s);
        }
      }
      manager_ = DataManager(resources_.total_cache, resources_.remote_io, /*seed=*/7,
                             std::max(1, resources_.num_servers));
      if (!topology_.empty()) {
        // Failure domains are part of the durable config, not the dead state.
        const Status topo_st = manager_.SetTopology(topology_);
        SILOD_CHECK(topo_st.ok()) << topo_st.ToString();
      }
      // Servers that were down stay down across the restart; the restore
      // drops any snapshot blocks routed to them.
      for (const int s : dead_shards) {
        manager_.CrashShard(s);
      }
      const Status st = RestoreDataManager(snapshot, trace_->catalog, &manager_);
      SILOD_CHECK(st.ok()) << "Data Manager restore failed: " << st.ToString();
      ++fault_stats_.dm_restarts;
      if (recorder_ != nullptr) {
        std::string dead = "-";
        if (!dead_shards.empty()) {
          dead.clear();
          for (std::size_t i = 0; i < dead_shards.size(); ++i) {
            if (i > 0) {
              dead += ",";
            }
            dead += std::to_string(dead_shards[i]);
          }
        }
        recorder_->RecordFault(
            EncodeRecord("dm-restart", {{"dead", dead}, {"snap", SnapshotToText(snapshot)}}));
      }
      return;
    }
    case FaultKind::kCacheServerCrash: {
      // Sharded Data Manager: the crashed server's shard drops its resident
      // blocks and stops admitting until recovery.
      std::lock_guard<std::mutex> lock(manager_mu_);
      if (event.target < 0 || event.target >= manager_.num_shards() ||
          !manager_.shard_alive(event.target)) {
        ++ignored_by_kind_[event.kind];
        return;
      }
      if (recorder_ != nullptr) {
        recorder_->MaybeRebase(manager_);
      }
      Bytes before = 0;
      for (const Dataset& dataset : trace_->catalog.all()) {
        before += manager_.CachedBytes(dataset.id);
      }
      const std::int64_t lost = manager_.CrashShard(event.target);
      Bytes after = 0;
      for (const Dataset& dataset : trace_->catalog.all()) {
        after += manager_.CachedBytes(dataset.id);
      }
      fault_stats_.blocks_lost += lost;
      fault_stats_.bytes_lost += static_cast<double>(before - after);
      if (!topology_.empty() && lost > 0) {
        const int zone = topology_.ZoneOf(event.target);
        if (zone >= 0) {
          const std::string& name = topology_.zones()[static_cast<std::size_t>(zone)].name;
          fault_stats_.blocks_lost_by_zone[name] += lost;
        }
      }
      ++fault_stats_.server_crashes;
      if (recorder_ != nullptr) {
        recorder_->RecordFault(
            EncodeRecord("server-crash", {{"shard", std::to_string(event.target)}}));
      }
      return;
    }
    case FaultKind::kCacheServerRecover: {
      std::lock_guard<std::mutex> lock(manager_mu_);
      if (event.target < 0 || event.target >= manager_.num_shards() ||
          manager_.shard_alive(event.target)) {
        ++ignored_by_kind_[event.kind];
        return;
      }
      if (recorder_ != nullptr) {
        recorder_->MaybeRebase(manager_);
      }
      manager_.RecoverShard(event.target);  // Rejoins empty, refills on misses.
      ++fault_stats_.server_recoveries;
      if (recorder_ != nullptr) {
        recorder_->RecordFault(
            EncodeRecord("server-recover", {{"shard", std::to_string(event.target)}}));
      }
      return;
    }
    case FaultKind::kWorkerCrash: {
      RtJob* job = FindJob(event.target);
      if (job == nullptr || job->completed.load() || job->abandoned.load() ||
          job->crashed.load()) {
        ++ignored_by_kind_[event.kind];
        return;
      }
      job->crashed.store(true);
      ++fault_stats_.worker_crashes;
      if (recorder_ != nullptr) {
        recorder_->Note("worker-crash job=" + std::to_string(event.target));
      }
      node_.Kill(job->spec->id);  // The handler reaps it.
      WriteDump("worker-crash-job" + std::to_string(event.target),
                "injected worker crash, job " + std::to_string(event.target));
      return;
    }
    case FaultKind::kWorkerRestart: {
      RtJob* job = FindJob(event.target);
      if (job == nullptr || job->completed.load() || job->abandoned.load() ||
          !job->crashed.load()) {
        ++ignored_by_kind_[event.kind];
        return;
      }
      ++fault_stats_.worker_restarts;
      if (recorder_ != nullptr) {
        recorder_->Note("worker-restart job=" + std::to_string(event.target));
      }
      RestartJob(*job);
      return;
    }
  }
  // A FaultEvent with an out-of-enum kind is an invariant violation (memory
  // corruption or an unhandled new kind), not an "ignored" fault.
  SILOD_LOG(Error) << "fault event with invalid kind " << static_cast<int>(event.kind)
                   << " dropped";
}

// --- Control loop -----------------------------------------------------------

void RtCluster::ScheduleOnce() {
  // Snapshot progress.
  Snapshot snap;
  snap.now = WallNow();
  snap.resources = resources_;
  snap.catalog = &trace_->catalog;
  if (!topology_.empty()) {
    snap.topology = &topology_;
  }
  for (const auto& job : jobs_) {
    if (job->blocks_done.load() >= job->blocks_total) {
      continue;
    }
    if (job->crashed.load() || job->abandoned.load()) {
      continue;  // Deactivated until restart, like the fine engine.
    }
    JobView view;
    view.spec = job->spec;
    const Dataset& d = trace_->catalog.Get(job->spec->dataset);
    view.remaining_bytes = (job->blocks_total - job->blocks_done.load()) * d.block_size;
    view.running = true;
    {
      std::lock_guard<std::mutex> lock(manager_mu_);
      view.effective_cache = manager_.CachedBytes(d.id);
    }
    snap.jobs.push_back(view);
  }
  if (snap.jobs.empty()) {
    return;
  }
  const AllocationPlan plan = scheduler_->Schedule(snap);
  if (plan.cache_model == CacheModelKind::kDatasetQuota) {
    std::lock_guard<std::mutex> lock(manager_mu_);
    if (recorder_ != nullptr) {
      recorder_->MaybeRebase(manager_);
    }
    const Status st = manager_.ApplyPlan(plan, trace_->catalog);
    SILOD_CHECK(st.ok()) << "plan enforcement failed: " << st.ToString();
    if (recorder_ != nullptr) {
      recorder_->RecordPlan(MinidumpRecorder::PlanDetail(plan));
    }
  }
  for (const auto& job : jobs_) {
    const JobAllocation& alloc = plan.Get(job->spec->id);
    const BytesPerSec rate =
        plan.manages_remote_io && alloc.running && alloc.remote_io > 0 ? alloc.remote_io
                                                                       : kUnlimitedRate;
    std::lock_guard<std::mutex> lock(job->throttle_mu);
    job->throttle->SetRate(rate, std::max(WallNow(), 0.0));
  }
}

void RtCluster::SchedulerLoop() {
  while (!stopping_.load() && unfinished_.load() > 0) {
    const Seconds loop_now = WallNow();
    // Periodic durable snapshot (pod annotations + disk contents).
    if (options_.snapshot_period > 0 && loop_now >= next_snapshot_) {
      std::lock_guard<std::mutex> lock(manager_mu_);
      last_snapshot_ = CaptureSnapshot(manager_, trace_->catalog);
      have_snapshot_ = true;
      next_snapshot_ = loop_now + options_.snapshot_period;
    }
    // Faults are polled at the control loop's granularity.
    if (injector_.NextTime() <= loop_now) {
      due_faults_.clear();
      injector_.PopDue(loop_now, &due_faults_);
      for (const FaultEvent& event : due_faults_) {
        ApplyFault(event);
      }
    }

    ScheduleOnce();
    SleepSeconds(options_.reschedule_period);
  }
  // Events scheduled past the end of the run: nothing left to act on.
  due_faults_.clear();
  injector_.PopDue(kInfiniteTime, &due_faults_);
  for (const FaultEvent& event : due_faults_) {
    ++ignored_by_kind_[event.kind];
  }
}

RtResult RtCluster::Run() {
  wall_start_ = std::chrono::steady_clock::now();
  unfinished_.store(static_cast<int>(jobs_.size()));

  // Allocations are durable annotations set at admission (§6): apply the
  // first plan before any worker runs, or early misses land while the
  // dataset quota is still zero and are never admitted — a startup race
  // that costs an extra miss per affected block on the next epoch.
  ScheduleOnce();

  // Workers exist before the scheduler thread can deliver a kWorkerCrash.
  for (auto& job : jobs_) {
    job->start = WallNow();
    const Status st = SpawnWorker(*job);
    SILOD_CHECK(st.ok()) << "worker spawn failed: " << st.ToString();
  }
  std::thread scheduler_thread([this] { SchedulerLoop(); });

  RtResult result;
  while (unfinished_.load() > 0) {
    if (WallNow() > options_.max_wall_seconds) {
      result.timed_out = true;
      break;
    }
    SleepSeconds(0.01);
  }
  stopping_.store(true);
  node_.Stop(options_.worker_stop_grace);
  if (scheduler_thread.joinable()) {
    scheduler_thread.join();
  }

  result.faults = fault_stats_;
  result.worker_respawns = worker_respawns_.load();
  result.late_compute_sleeps = late_compute_sleeps_.load();
  result.ignored_by_kind = ignored_by_kind_;
  for (const auto& [kind, count] : ignored_by_kind_) {
    result.faults.ignored_events += count;
  }
  for (const auto& job : jobs_) {
    RtJobResult r;
    r.id = job->spec->id;
    r.start = job->start;
    r.finish = job->finish;
    r.completed = job->completed.load();
    r.cache_hits = job->hits.load();
    r.cache_misses = job->misses.load();
    r.blocks_done = job->blocks_done.load();
    r.blocks_consumed = job->consumed;
    r.remote_retries = job->remote_retries.load();
    r.blocks_refetched = job->refetched;
    result.remote_retries += r.remote_retries;
    result.faults.blocks_refetched += r.blocks_refetched;
    if (r.completed) {
      result.makespan = std::max(result.makespan, r.finish);
      // The completion invariant: every fetched block is a hit or a miss,
      // and every fetch is either first-time progress or a crash-mandated
      // re-read.  A violation is state corruption — dump it.
      if (r.cache_hits + r.cache_misses != job->blocks_total + r.blocks_refetched) {
        SILOD_LOG(Error) << "completion invariant violated for job " << r.id << ": " << r.cache_hits
                         << " hits + " << r.cache_misses << " misses != " << job->blocks_total
                         << " blocks + " << r.blocks_refetched << " refetched";
        WriteDump("invariant-job" + std::to_string(r.id),
                  "completion invariant violated, job " + std::to_string(r.id));
      }
    } else {
      ++result.unfinished_jobs;
    }
    result.jobs.push_back(r);
  }
  {
    std::lock_guard<std::mutex> lock(forensics_mu_);
    result.faults.compute_lost = compute_lost_;
    result.minidump_paths = minidump_paths_;
  }
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const RtJobResult& a, const RtJobResult& b) { return a.id < b.id; });
  return result;
}

}  // namespace silod
