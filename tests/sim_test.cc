// Tests for src/sim: metrics and both engines — including the
// engine-vs-closed-form and engine-vs-engine fidelity checks that mirror the
// paper's own simulator validation (§7.1.1/§7.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/digest.h"
#include "src/common/units.h"
#include "src/core/policy_registry.h"
#include "src/core/system.h"
#include "src/fault/fault_plan.h"
#include "src/sched/fifo.h"
#include "src/sched/greedy.h"
#include "src/sched/storage_policies.h"
#include "src/sim/cluster.h"
#include "src/sim/fine_engine.h"
#include "src/sim/flow_engine.h"
#include "src/sim/job_lifecycle.h"
#include "src/sim/metrics.h"

namespace silod {
namespace {

// ---------------------------------------------------------------- Metrics --

TEST(Metrics, JctAndMakespan) {
  MetricsCollector collector;
  JobSpec a;
  a.id = 0;
  a.submit_time = 0;
  JobSpec b;
  b.id = 1;
  b.submit_time = 100;
  collector.OnSubmit(a);
  collector.OnSubmit(b);
  collector.OnStart(0, 10);
  collector.OnFinish(0, 110);
  EXPECT_FALSE(collector.AllFinished());
  collector.OnStart(1, 120);
  collector.OnFinish(1, 400);
  EXPECT_TRUE(collector.AllFinished());
  const SimResult result = collector.Finalize();
  EXPECT_DOUBLE_EQ(result.jobs[0].Jct(), 110);
  EXPECT_DOUBLE_EQ(result.jobs[1].Jct(), 300);
  EXPECT_DOUBLE_EQ(result.AvgJctSeconds(), 205);
  EXPECT_DOUBLE_EQ(result.makespan, 400);
}

// -------------------------------------------------- Engine test scaffolding --

// A small single-job trace: `epochs` passes over a 10 GB dataset at
// f* = 114 MB/s.
Trace SingleJobTrace(double epochs, Bytes dataset_size = GB(10)) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("data", dataset_size, MB(16));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = static_cast<Bytes>(epochs * static_cast<double>(dataset_size));
  trace.jobs.push_back(job);
  return trace;
}

SimConfig SmallCluster(Bytes cache, BytesPerSec egress) {
  SimConfig config;
  config.resources.total_gpus = 8;
  config.resources.total_cache = cache;
  config.resources.remote_io = egress;
  config.resources.num_servers = 2;
  config.reschedule_period = Minutes(5);
  return config;
}

double RunJct(const Trace& trace, EngineKind engine, CacheSystem cache, SimConfig sim,
              SchedulerKind scheduler = SchedulerKind::kFifo) {
  ExperimentConfig config;
  config.policy = PolicyName(scheduler, cache);
  config.sim = sim;
  config.engine = engine;
  const SimResult result = RunExperiment(trace, config);
  return result.AvgJctSeconds();
}

// A run that reaches SimConfig::max_time ends there instead of aborting: a
// 20 GB job at 20 MB/s cannot finish in 400 s, while a 1 GB job sharing the
// egress does.
RunReport RunPastMaxTime(EngineKind engine) {
  Trace trace = SingleJobTrace(2.0);
  JobSpec short_job = trace.jobs[0];
  short_job.id = 1;
  short_job.total_bytes = GB(1);
  trace.jobs.push_back(short_job);
  SimConfig sim = SmallCluster(0, MBps(20));
  sim.max_time = 400;
  ExperimentConfig config;
  config.policy = PolicyName(SchedulerKind::kFifo, CacheSystem::kSiloD);
  config.sim = sim;
  config.engine = engine;
  const SimResult result = RunExperiment(trace, config);
  EXPECT_LT(result.jobs[0].finish_time, 0);
  EXPECT_GT(result.jobs[1].finish_time, 0);
  return MakeRunReport("fifo+silod", "test", result);
}

// ------------------------------------------------------------- FlowEngine --

TEST(FlowEngine, MaxTimeEndsRunWithUnfinishedJobs) {
  const RunReport report = RunPastMaxTime(EngineKind::kFlow);
  EXPECT_EQ(1, report.unfinished_jobs);
  EXPECT_EQ(1, report.jct.finished);
}

TEST(FlowEngine, ComputeBoundJobRunsAtIdealSpeed) {
  const Trace trace = SingleJobTrace(2.0);
  // Egress far above f*: never IO bound.
  const double jct =
      RunJct(trace, EngineKind::kFlow, CacheSystem::kSiloD, SmallCluster(0, GBps(10)));
  EXPECT_NEAR(jct, trace.jobs[0].IdealDuration(), 1.0);
}

TEST(FlowEngine, IoBoundJobRunsAtEgressSpeed) {
  const Trace trace = SingleJobTrace(2.0);
  // No cache, 20 MB/s egress: the whole job runs at 20 MB/s.
  const double jct =
      RunJct(trace, EngineKind::kFlow, CacheSystem::kSiloD, SmallCluster(0, MBps(20)));
  EXPECT_NEAR(jct, static_cast<double>(trace.jobs[0].total_bytes) / MBps(20), 2.0);
}

TEST(FlowEngine, CacheKicksInAfterFirstEpoch) {
  const Trace trace = SingleJobTrace(3.0);
  // Full cache allocation, 20 MB/s egress: epoch 1 at 20 MB/s (cold, §6
  // delayed effectiveness), epochs 2-3 at f* = 114 MB/s.
  const double jct =
      RunJct(trace, EngineKind::kFlow, CacheSystem::kSiloD, SmallCluster(GB(10), MBps(20)));
  const double expected = 1e10 / MBps(20) + 2e10 / MBps(114);
  EXPECT_NEAR(jct, expected, 0.02 * expected);
}

TEST(FlowEngine, PartialCachePartialSpeedup) {
  const Trace trace = SingleJobTrace(5.0);
  // Half the dataset cached: steady state f = b/(1-c/d) = 20/0.5 = 40 MB/s.
  const double jct =
      RunJct(trace, EngineKind::kFlow, CacheSystem::kSiloD, SmallCluster(GB(5), MBps(20)));
  const double expected = 1e10 / MBps(20)            // Cold epoch 1.
                          + 4e10 / MBps(40);         // Steady epochs.
  EXPECT_NEAR(jct, expected, 0.05 * expected);
}

TEST(FlowEngine, RemoteIoUsageNeverExceedsEgress) {
  TraceOptions options;
  options.num_jobs = 30;
  options.median_duration = Minutes(20);
  options.mean_interarrival = Minutes(2);
  options.seed = 4;
  const Trace trace = TraceGenerator(options).Generate();
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(TB(2), MBps(300));
  config.sim.resources.total_gpus = 16;
  const SimResult result = RunExperiment(trace, config);
  for (const auto& [t, io] : result.remote_io_usage.points()) {
    EXPECT_LE(io, MBps(300) * 1.001) << "at t=" << t;
  }
}

TEST(FlowEngine, AllCacheSystemsCompleteAllJobs) {
  TraceOptions options;
  options.num_jobs = 20;
  options.median_duration = Minutes(15);
  options.seed = 8;
  const Trace trace = TraceGenerator(options).Generate();
  for (const CacheSystem cache : {CacheSystem::kSiloD, CacheSystem::kAlluxio,
                                  CacheSystem::kCoorDl, CacheSystem::kQuiver}) {
    ExperimentConfig config;
    config.policy = PolicyName(SchedulerKind::kFifo, cache);
    config.sim = SmallCluster(TB(1), MBps(200));
    config.sim.resources.total_gpus = 16;
    const SimResult result = RunExperiment(trace, config);
    EXPECT_EQ(result.jobs.size(), trace.jobs.size()) << CacheSystemName(cache);
    for (const JobResult& j : result.jobs) {
      EXPECT_GE(j.finish_time, 0) << CacheSystemName(cache);
      EXPECT_GE(j.Jct(), 0) << CacheSystemName(cache);
    }
  }
}

TEST(FlowEngine, SchedulersRespectArrivalCausality) {
  TraceOptions options;
  options.num_jobs = 15;
  options.seed = 12;
  const Trace trace = TraceGenerator(options).Generate();
  for (const SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel}) {
    ExperimentConfig config;
    config.policy = PolicyName(kind, CacheSystem::kSiloD);
    config.sim = SmallCluster(TB(1), MBps(200));
    config.sim.resources.total_gpus = 16;
    const SimResult result = RunExperiment(trace, config);
    for (const JobResult& j : result.jobs) {
      EXPECT_GE(j.first_start_time, j.submit_time - 1e-6) << SchedulerKindName(kind);
      EXPECT_GE(j.finish_time, j.first_start_time) << SchedulerKindName(kind);
    }
  }
}

TEST(FlowEngine, EffectiveCacheRampsUp) {
  const Trace trace = SingleJobTrace(4.0);
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(10), MBps(50));
  const SimResult result = RunExperiment(trace, config);
  // Cold at the start, fully effective near the end (Fig. 8's ramp).
  const double early = result.effective_cache_ratio.ValueAt(1.0);
  const double late = result.effective_cache_ratio.ValueAt(result.makespan * 0.9);
  EXPECT_LT(early, 0.1);
  EXPECT_GT(late, 0.95);
}

// ------------------------------------------------------------- FineEngine --

TEST(FineEngine, MaxTimeEndsRunWithUnfinishedJobs) {
  const RunReport report = RunPastMaxTime(EngineKind::kFine);
  EXPECT_EQ(1, report.unfinished_jobs);
  EXPECT_EQ(1, report.jct.finished);
}

TEST(FineEngine, ComputeBoundJobMatchesClosedForm) {
  const Trace trace = SingleJobTrace(2.0);
  const double jct =
      RunJct(trace, EngineKind::kFine, CacheSystem::kSiloD, SmallCluster(0, GBps(10)));
  EXPECT_NEAR(jct, trace.jobs[0].IdealDuration(), 0.02 * trace.jobs[0].IdealDuration());
}

TEST(FineEngine, IoBoundJobMatchesClosedForm) {
  const Trace trace = SingleJobTrace(2.0);
  const double jct =
      RunJct(trace, EngineKind::kFine, CacheSystem::kSiloD, SmallCluster(0, MBps(20)));
  const double expected = static_cast<double>(trace.jobs[0].total_bytes) / MBps(20);
  EXPECT_NEAR(jct, expected, 0.02 * expected);
}

TEST(FineEngine, UniformCacheHitRatioMatchesClosedForm) {
  // Steady-state throughput with half the dataset cached must match Eq. 4.
  const Trace trace = SingleJobTrace(6.0);
  const double jct =
      RunJct(trace, EngineKind::kFine, CacheSystem::kSiloD, SmallCluster(GB(5), MBps(20)));
  const double expected = 1e10 / MBps(20) + 5e10 / MBps(40);
  EXPECT_NEAR(jct, expected, 0.06 * expected);
}

TEST(FineEngine, SharedLruThrashesBelowUniform) {
  // Same scenario, Alluxio's LRU vs SiloD's uniform caching: LRU's scan
  // thrashing yields a clearly longer JCT (§7.1.1).
  const Trace trace = SingleJobTrace(6.0);
  const SimConfig sim = SmallCluster(GB(5), MBps(20));
  const double uniform = RunJct(trace, EngineKind::kFine, CacheSystem::kSiloD, sim);
  const double lru = RunJct(trace, EngineKind::kFine, CacheSystem::kAlluxio, sim);
  EXPECT_GT(lru, 1.15 * uniform);
}

TEST(FineEngine, LruStillBeatsNoCache) {
  const Trace trace = SingleJobTrace(6.0);
  const double lru = RunJct(trace, EngineKind::kFine, CacheSystem::kAlluxio,
                            SmallCluster(GB(5), MBps(20)));
  const double none = RunJct(trace, EngineKind::kFine, CacheSystem::kAlluxio,
                             SmallCluster(MB(16), MBps(20)));
  EXPECT_LT(lru, none);
}

TEST(FineEngine, TwoJobsShareEgressFairly) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d0 = trace.catalog.Add("a", GB(10), MB(16));
  const DatasetId d1 = trace.catalog.Add("b", GB(10), MB(16));
  JobSpec j0 = MakeJob(0, zoo, "ResNet-50", 1, d0, 1.0, 0);
  j0.total_bytes = GB(10);
  JobSpec j1 = MakeJob(1, zoo, "ResNet-50", 1, d1, 1.0, 0);
  j1.total_bytes = GB(10);
  trace.jobs = {j0, j1};
  // No cache, 40 MB/s egress: each runs at ~20 MB/s, both finish together.
  ExperimentConfig config;
  config.policy = "fifo+alluxio";
  config.sim = SmallCluster(0, MBps(40));
  config.engine = EngineKind::kFine;
  const SimResult result = RunExperiment(trace, config);
  const double expected = 1e10 / MBps(20);
  EXPECT_NEAR(result.jobs[0].Jct(), expected, 0.05 * expected);
  EXPECT_NEAR(result.jobs[1].Jct(), expected, 0.05 * expected);
}

// ---------------------------------------------------------- Job lifecycle --

// Arrivals go live in submit order up to the horizon; the live and present
// sets stay ascending by id through crash, restart and finish; worker
// faults on a job in the wrong phase count as ignored; and a transition
// from the wrong phase is a checked invariant violation.
TEST(JobLifecycle, PhasesAndAscendingSetsThroughEveryTransition) {
  Trace trace;
  const DatasetId d = trace.catalog.Add("d", GB(1), MB(16));
  for (const Seconds submit : {30.0, 10.0, 10.0, 20.0}) {
    JobSpec job;
    job.id = static_cast<JobId>(trace.jobs.size());
    job.dataset = d;
    job.submit_time = submit;
    trace.jobs.push_back(job);
  }
  JobLifecycle lifecycle(&trace);
  EXPECT_EQ(lifecycle.NextArrivalTime(), 10.0);
  EXPECT_FALSE(lifecycle.ArriveUntil(5.0));
  EXPECT_TRUE(lifecycle.ArriveUntil(20.0));
  EXPECT_EQ(lifecycle.live(), (std::vector<JobId>{1, 2, 3}));
  EXPECT_EQ(lifecycle.NextArrivalTime(), 30.0);

  struct Job {
    bool running = true;
  };
  const std::vector<Job> jobs(trace.jobs.size());
  FaultStats stats;
  EXPECT_FALSE(lifecycle.CrashWorker(0, jobs, stats));  // Pending.
  EXPECT_FALSE(lifecycle.CrashWorker(7, jobs, stats));  // Out of range.
  EXPECT_TRUE(lifecycle.CrashWorker(2, jobs, stats));
  EXPECT_FALSE(lifecycle.CrashWorker(2, jobs, stats));  // Already crashed.
  lifecycle.RestartWorker(3, stats);                     // Never crashed.
  EXPECT_EQ(stats.worker_crashes, 1);
  EXPECT_EQ(stats.ignored_events, 4);
  EXPECT_EQ(lifecycle.live(), (std::vector<JobId>{1, 3}));
  EXPECT_EQ(lifecycle.present(), (std::vector<JobId>{1, 2, 3}));
  EXPECT_TRUE(lifecycle.Present(2));
  EXPECT_FALSE(lifecycle.Present(0));

  EXPECT_TRUE(lifecycle.ArriveUntil(30.0));
  EXPECT_EQ(lifecycle.NextArrivalTime(), kInfiniteTime);
  lifecycle.RestartWorker(2, stats);
  EXPECT_EQ(stats.worker_restarts, 1);
  EXPECT_EQ(lifecycle.live(), (std::vector<JobId>{0, 1, 2, 3}));

  std::vector<JobId> visited;
  lifecycle.FinishWhere([&](JobId id) {
    visited.push_back(id);
    return id % 2 == 1;
  });
  EXPECT_EQ(visited, (std::vector<JobId>{0, 1, 2, 3}));
  EXPECT_EQ(lifecycle.live(), (std::vector<JobId>{0, 2}));
  EXPECT_EQ(lifecycle.present(), (std::vector<JobId>{0, 2}));
  lifecycle.Finish(0);
  EXPECT_EQ(lifecycle.live(), (std::vector<JobId>{2}));
  EXPECT_FALSE(lifecycle.Present(0));
  EXPECT_DEATH(lifecycle.Finish(0), "not in phase");
}

// ---------------------------------------------------------- Event calendar --

// Seeded multi-job trace with mixed dataset sizes, shared datasets, staggered
// arrivals and a few curriculum jobs — enough variety to exercise every phase
// transition of the stepping loop.
Trace SeededMixTrace(int num_jobs, std::uint64_t seed) {
  const ModelZoo zoo;
  Rng rng(seed);
  Trace trace;
  for (int i = 0; i < num_jobs; ++i) {
    const Bytes dataset_size = GB(0.5 + 2.0 * rng.NextDouble());
    const DatasetId d =
        trace.catalog.Add("mix" + std::to_string(i), dataset_size, MB(16));
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo,
                          i % 3 == 0 ? "EfficientNetB1" : "ResNet-50", 1, d, 1.0,
                          /*submit_time=*/Minutes(1) * i);
    job.total_bytes = static_cast<Bytes>((1.5 + 2.0 * rng.NextDouble()) *
                                         static_cast<double>(dataset_size));
    if (i % 16 == 7) {
      job.curriculum = true;
      job.regular = false;
      job.curriculum_params.step = 100;
    }
    trace.jobs.push_back(job);
  }
  return trace;
}

// The fine engine's event stepping, pinned bit-for-bit: the ResultDigest
// (job times, step counters) of a seeded 64-job mix under each cache model,
// plus two fifo+silod cells for the flow recompute on a denser copy of the
// mix: one whose egress binds, so the throttles hand out all of remote_io
// while the miss set churns, and one with degrade windows and a per-job
// remote cap, so the capacity and the caps move while miss fetches are in
// flight.  Any change to event indexing, firing order or the fluid
// arithmetic moves one.
TEST(FineEngine, StepResultsMatchPinnedDigests) {
  const Trace trace = SeededMixTrace(/*num_jobs=*/64, /*seed=*/21);
  // The same mix arriving every 3 s instead of every minute, so a few dozen
  // jobs fetch at once.
  Trace dense = trace;
  for (JobSpec& job : dense.jobs) {
    job.submit_time /= 20;
  }
  SimConfig sim = SmallCluster(GB(40), MBps(400));
  sim.resources.total_gpus = 64;
  SimConfig degraded = sim;
  degraded.resources.per_job_remote_cap = MBps(60);
  const Result<FaultPlan> degrades = FaultPlan::Parse(
      "degrade t=60 factor=0.25 for=90; degrade t=200 factor=0.5 err=0.1 for=60");
  ASSERT_TRUE(degrades.ok()) << degrades.status().ToString();
  degraded.faults = *degrades;
  const struct {
    const char* name;
    CacheSystem cache;
    const Trace& trace;
    const SimConfig& sim;
    std::uint64_t pinned;
  } kCells[] = {
      {"silod", CacheSystem::kSiloD, trace, sim, 0x560a2c5ab4513adcULL},
      {"alluxio", CacheSystem::kAlluxio, trace, sim, 0x645b363d5a192815ULL},
      {"coordl", CacheSystem::kCoorDl, trace, sim, 0x3997674e4bccefd4ULL},
      {"silod egress-bound", CacheSystem::kSiloD, dense, sim, 0xaad056eea5d38ed7ULL},
      {"silod degraded", CacheSystem::kSiloD, dense, degraded, 0x1f01a32cf65a9e6dULL},
  };
  for (const auto& cell : kCells) {
    ExperimentConfig config;
    config.policy = PolicyName(SchedulerKind::kFifo, cell.cache);
    config.sim = cell.sim;
    config.engine = EngineKind::kFine;
    const SimResult result = RunExperiment(cell.trace, config);
    EXPECT_EQ(FormatDigest(ResultDigest(result)), FormatDigest(cell.pinned)) << cell.name;
    EXPECT_GT(result.steps.calendar_updates, 0u) << cell.name;
  }
}

// The flow engine's job lifecycle, pinned bit-for-bit on the paths the fifo
// churn pins (fault_test) do not reach: a Gavel solve; preemptive SJF on a
// typed fleet, so jobs are suspended, resumed and migrated across GPU types;
// Hoard prefetching while workers crash, so the head-of-queue search meets
// crashed jobs; the shared-LRU fluid model; and a Gavel solve under rack,
// cap and churn pressure.
TEST(FlowEngine, StepResultsMatchPinnedDigests) {
  TraceOptions options;
  options.num_jobs = 40;
  options.mean_interarrival = Minutes(4);
  options.median_duration = Minutes(40);
  options.max_duration = Hours(4);
  options.seed = 33;
  options.block_size = MB(256);
  const Trace trace = TraceGenerator(options).Generate();
  SimConfig base;
  base.resources.total_gpus = 16;
  base.resources.total_cache = GB(600);
  base.resources.remote_io = MBps(400);
  base.resources.num_servers = 4;
  base.reschedule_period = Minutes(5);

  FaultChurnOptions crashes;
  crashes.horizon = Hours(24);
  crashes.worker_crashes_per_hour = 6;
  crashes.worker_restart_delay = Minutes(20);
  crashes.num_servers = base.resources.num_servers;
  crashes.num_jobs = options.num_jobs;
  crashes.seed = 8;
  const Result<ClusterTopology> typed = ClusterTopology::Parse(
      "gpu-type name=fast count=8 speed=2;gpu-type name=slow count=8 speed=1");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();

  struct Cell {
    const char* name;
    std::uint64_t pinned;
  };
  const Cell kCells[] = {
      {"gavel+silod", 0x40c0eea3b91fbd99ULL},
      {"srtf+silod typed", 0x7c9549eb2e8f7c8eULL},
      {"fifo+silod hoard crashes", 0x36283516423e97c4ULL},
      {"fifo+alluxio", 0x4112c4c6a578a5f3ULL},
  };
  for (int i = 0; i < 4; ++i) {
    ExperimentConfig config;
    config.sim = base;
    config.engine = EngineKind::kFlow;
    switch (i) {
      case 0:
        config.policy = "gavel+silod";
        break;
      case 1:
        config.policy = "sjf+silod";
        config.scheduler_options.preemptive_sjf = true;
        config.sim.topology = *typed;
        break;
      case 2:
        config.policy = "fifo+silod";
        config.sim.prefetch_waiting = true;
        // Room past the quotas, so leftover egress prefetches for the queue.
        config.sim.resources.total_cache = TB(8);
        config.sim.faults = GenerateFaultPlan(crashes);
        break;
      default:
        config.policy = "fifo+alluxio";
        break;
    }
    const SimResult result = RunExperiment(trace, config);
    EXPECT_EQ(FormatDigest(ResultDigest(result)), FormatDigest(kCells[i].pinned)) << kCells[i].name;
  }

  // The Gavel solve on the churn path: the shape of the flow400-gavel-churn
  // benchmark scaled to 60 jobs (arrivals faster than the cluster drains
  // them, four cache racks, seeded server-crash, worker-crash and degrade
  // churn), plus a finite per-job remote-IO cap, so both Gavel searches meet
  // cap-bound probes, cache floors and zone-loss throttles.
  {
    TraceOptions churn_options;
    churn_options.num_jobs = 60;
    churn_options.mean_interarrival = Minutes(0.25);
    churn_options.median_duration = Hours(3);
    churn_options.duration_sigma = 1.4;
    churn_options.max_duration = Hours(12);
    churn_options.seed = 41;
    const Trace churn_trace = TraceGenerator(churn_options).Generate();

    ExperimentConfig config;
    config.policy = "gavel+silod";
    config.engine = EngineKind::kFlow;
    config.sim.resources.total_gpus = 80;
    config.sim.resources.total_cache = TB(6);
    config.sim.resources.remote_io = Gbps(6.4);
    config.sim.resources.per_job_remote_cap = MBps(60);
    config.sim.resources.num_servers = 20;
    config.sim.reschedule_period = Minutes(10);
    const Result<ClusterTopology> racks =
        ClusterTopology::Parse("rack0=0-4;rack1=5-9;rack2=10-14;rack3=15-19");
    ASSERT_TRUE(racks.ok()) << racks.status().ToString();
    config.sim.topology = *racks;
    FaultChurnOptions churn;
    churn.horizon = Hours(24);
    churn.server_crashes_per_hour = 1;
    churn.worker_crashes_per_hour = 1;
    churn.degrade_windows_per_hour = 0.5;
    churn.num_servers = config.sim.resources.num_servers;
    churn.num_jobs = churn_options.num_jobs;
    churn.seed = 41 * 7919 + 1;
    config.sim.faults = GenerateFaultPlan(churn);

    const SimResult result = RunExperiment(churn_trace, config);
    EXPECT_GT(result.faults.server_crashes, 0);
    EXPECT_GT(result.faults.worker_crashes, 0);
    EXPECT_GT(result.faults.degrade_windows, 0);
    EXPECT_EQ(FormatDigest(ResultDigest(result)), FormatDigest(0xd03bf530d573c96fULL));
  }

  // The edges of the engine's held-dataset set (docs/MODEL.md §9): Hoard
  // prefetching into zone-spread quotas while cache servers crash, over a
  // catalog of 42 datasets, three times the largest live set (14 jobs).
  // Half the jobs share a canonical dataset, so a shared dataset's quota
  // drops to 0 when its last running job ends and comes back with the next
  // one (about 30 times in this run).
  {
    TraceOptions held_options;
    held_options.num_jobs = 80;
    held_options.mean_interarrival = Minutes(15);
    held_options.median_duration = Minutes(40);
    held_options.max_duration = Hours(6);
    held_options.share_fraction = 0.5;
    held_options.seed = 57;
    held_options.block_size = MB(256);
    const Trace held_trace = TraceGenerator(held_options).Generate();

    ExperimentConfig config;
    config.policy = "fifo+silod";
    config.engine = EngineKind::kFlow;
    config.sim.resources.total_gpus = 16;
    config.sim.resources.total_cache = TB(3);
    config.sim.resources.remote_io = MBps(600);
    config.sim.resources.num_servers = 8;
    config.sim.reschedule_period = Minutes(5);
    config.sim.prefetch_waiting = true;
    const Result<ClusterTopology> racks = ClusterTopology::Parse("rack0=0-3;rack1=4-7");
    ASSERT_TRUE(racks.ok()) << racks.status().ToString();
    config.sim.topology = *racks;
    FaultChurnOptions churn;
    churn.horizon = Hours(24);
    churn.server_crashes_per_hour = 0.5;
    churn.num_servers = config.sim.resources.num_servers;
    churn.num_jobs = held_options.num_jobs;
    churn.seed = 57;
    config.sim.faults = GenerateFaultPlan(churn);

    const SimResult result = RunExperiment(held_trace, config);
    EXPECT_GT(result.faults.server_crashes, 0);
    EXPECT_GT(result.faults.bytes_lost, 0);
    EXPECT_EQ(FormatDigest(ResultDigest(result)), FormatDigest(0x2a1b552c43b06490ULL));
  }
}

TEST(FineEngine, StepCountersAccountForEveryBlock) {
  const Trace trace = SingleJobTrace(3.0);
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(10), MBps(50));
  config.engine = EngineKind::kFine;
  const SimResult result = RunExperiment(trace, config);
  // 10 GB / 16 MB = 625 blocks per epoch, 3 epochs; every block completes as
  // exactly one miss or hit.
  EXPECT_EQ(result.steps.miss_completions + result.steps.hit_completions, 1875u);
  EXPECT_EQ(result.steps.drains, 1u);
  EXPECT_GT(result.steps.steps, 0u);
}

// The peak of per-block slots held at once: the job's 625-entry epoch order
// plus its dataset's 625 generation slots in the cache manager.
TEST(FineEngine, PeakBlockSlotsCountOrderAndGenerations) {
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(10), MBps(50));
  config.engine = EngineKind::kFine;
  EXPECT_EQ(RunExperiment(SingleJobTrace(3.0), config).steps.peak_block_slots, 1250u);
}

// Regression: curriculum jobs never cross an epoch boundary, so the
// per-job-static (CoorDL) model must not gate their effective cache on
// epochs_done — before the fix they permanently reported zero.
TEST(FineEngine, CurriculumJobReportsEffectiveCacheUnderCoorDl) {
  const ModelZoo zoo;
  Trace trace;
  const Bytes dataset_size = GB(2);
  const DatasetId d = trace.catalog.Add("sorted", dataset_size, MB(16));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = 3 * dataset_size;
  job.curriculum = true;
  job.regular = false;
  job.curriculum_params.step = 50;  // Coverage expands quickly.
  trace.jobs.push_back(job);

  ExperimentConfig config;
  config.policy = "fifo+coordl";
  config.sim = SmallCluster(GB(1), MBps(50));
  config.engine = EngineKind::kFine;
  config.fine.sample_period = 2.0;  // The run lasts ~1 min of sim time.
  const SimResult result = RunExperiment(trace, config);
  EXPECT_GT(result.effective_cache_ratio.ValueAt(result.makespan * 0.9), 0.5);
}

// Regression: a job draining its last blocks frees its GPUs at the finish
// instant, and that must trigger an immediate reschedule — a queued job
// starts right there, not at the next periodic tick (which could be up to
// reschedule_period later).  A digest pin cannot tell a late start from a
// right one, so assert the absolute start time.
TEST(FineEngine, QueuedJobStartsAtPredecessorFinishNotNextTick) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("serial", GB(5), MB(16));
  for (int i = 0; i < 2; ++i) {
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo, "ResNet-50", 1, d, 1.0, 0);
    job.total_bytes = GB(5);
    trace.jobs.push_back(job);
  }
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(5), GBps(10));
  config.sim.resources.total_gpus = 1;  // The jobs must run back to back.
  config.engine = EngineKind::kFine;
  const SimResult result = RunExperiment(trace, config);
  const double finish0 = result.jobs[0].finish_time;
  // Job 0 is compute bound and finishes well inside the first 5-minute
  // reschedule period; job 1 must not idle until that tick.
  ASSERT_LT(finish0, Minutes(5));
  EXPECT_NEAR(result.jobs[1].first_start_time, finish0, 1e-6);
}

// --------------------------------------------------------------- Fidelity --

// The §7.2-style cross-validation: both engines run the same multi-job trace
// and must agree on average JCT and makespan within a few percent (the paper
// reports simulator errors of up to 5.7% / 8.5%).
class EngineFidelityTest : public ::testing::TestWithParam<CacheSystem> {};

TEST_P(EngineFidelityTest, FlowMatchesFine) {
  const ModelZoo zoo;
  Trace trace;
  // A scaled-down micro-benchmark: 4 image jobs + 1 BERT-like job.
  for (int i = 0; i < 4; ++i) {
    const DatasetId d = trace.catalog.Add("img" + std::to_string(i), GB(13), MB(16));
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo, i < 2 ? "ResNet-50" : "EfficientNetB1", 1,
                          d, 1.0, 0);
    job.total_bytes = GB(13) * (i < 2 ? 5 : 4);
    trace.jobs.push_back(job);
  }
  const DatasetId web = trace.catalog.Add("web", GB(209), MB(16));
  JobSpec bert = MakeJob(4, zoo, "BERT", 4, web, 1.0, 0);
  bert.total_bytes = GB(15);
  trace.jobs.push_back(bert);

  const SimConfig sim = SmallCluster(GB(20), MBps(20));
  ExperimentConfig config;
  config.policy = PolicyName(SchedulerKind::kFifo, GetParam());
  config.sim = sim;

  config.engine = EngineKind::kFine;
  const SimResult fine = RunExperiment(trace, config);
  config.engine = EngineKind::kFlow;
  const SimResult flow = RunExperiment(trace, config);

  EXPECT_NEAR(flow.AvgJctSeconds(), fine.AvgJctSeconds(), 0.08 * fine.AvgJctSeconds())
      << CacheSystemName(GetParam());
  EXPECT_NEAR(flow.makespan, fine.makespan, 0.10 * fine.makespan)
      << CacheSystemName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(CacheSystems, EngineFidelityTest,
                         ::testing::Values(CacheSystem::kSiloD, CacheSystem::kCoorDl,
                                           CacheSystem::kQuiver),
                         [](const auto& info) { return CacheSystemName(info.param); });

// ----------------------------------------------------- Zone-aware placement --

// A rack crash against a zone-aware plan costs at most the loss-bounded share
// of the dataset (attributed to the rack), versus the rack's full
// capacity-proportional slice under oblivious placement.
TEST(FlowEngine, ZoneCrashLossBoundedAndAttributedPerZone) {
  const Trace trace = SingleJobTrace(/*epochs=*/60, GB(40));

  FaultPlan faults;
  for (int s = 0; s < 4; ++s) {  // The whole rack, one server at a time.
    faults.events.push_back({Hours(1) + s, FaultKind::kCacheServerCrash, s});
    faults.events.push_back({Hours(2) + s, FaultKind::kCacheServerRecover, s});
  }

  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = SmallCluster(GB(80), MBps(500));
  config.sim.resources.num_servers = 8;
  config.sim.faults = faults;
  const SimResult oblivious = RunExperiment(trace, config);
  EXPECT_TRUE(oblivious.faults.blocks_lost_by_zone.empty());

  const Result<ClusterTopology> topology = ClusterTopology::Parse("rack0=0-3;loss-bound=0.25");
  ASSERT_TRUE(topology.ok());
  config.sim.topology = *topology;
  const SimResult aware = RunExperiment(trace, config);

  // The rack held half the cache servers but at most a quarter of the quota.
  EXPECT_GT(aware.faults.bytes_lost, 0);
  EXPECT_LT(aware.faults.bytes_lost, oblivious.faults.bytes_lost);
  EXPECT_LE(aware.faults.bytes_lost, 0.25 * static_cast<double>(GB(40)) + MB(64));
  ASSERT_EQ(aware.faults.blocks_lost_by_zone.size(), 1u);
  EXPECT_EQ(aware.faults.blocks_lost_by_zone.begin()->first, "rack0");
}

// ---------------------------------------------------------- Heterogeneity --

// Declaring a GPU-type table whose speeds are all 1.0 must be a bit-for-bit
// no-op: the typed admission path multiplies every ideal by exactly 1.0, so
// both engines and every scheduler must reproduce the untyped run.
TEST(Heterogeneity, UniformTypedFleetBitIdenticalToUntyped) {
  const Trace trace = SeededMixTrace(/*num_jobs=*/48, /*seed=*/9);
  const Result<ClusterTopology> typed =
      ClusterTopology::Parse("gpu-type name=v100 count=8 speed=1");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  for (const EngineKind engine : {EngineKind::kFlow, EngineKind::kFine}) {
    for (const SchedulerKind scheduler :
         {SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel}) {
      ExperimentConfig config;
      config.engine = engine;
      config.policy = PolicyName(scheduler, CacheSystem::kSiloD);
      config.sim = SmallCluster(GB(40), MBps(300));
      const SimResult untyped = RunExperiment(trace, config);
      config.sim.topology = *typed;
      const SimResult uniform_typed = RunExperiment(trace, config);
      EXPECT_TRUE(PhysicallyIdentical(untyped, uniform_typed))
          << SchedulerKindName(scheduler) << " engine " << static_cast<int>(engine);
      const RunReport a = MakeRunReport("x", "e", untyped);
      const RunReport b = MakeRunReport("x", "e", uniform_typed);
      EXPECT_EQ(a.jct.avg_jct_min, b.jct.avg_jct_min);
      EXPECT_EQ(a.jct.p99_jct_min, b.jct.p99_jct_min);
    }
  }
}

// The per-GPU-type sub-summaries partition the finished jobs: group counts sum
// to the overall count and every group percentile is bounded by the overall
// max.
TEST(Heterogeneity, PerTypeBreakdownPartitionsFinishedJobs) {
  const Trace trace = SeededMixTrace(/*num_jobs=*/48, /*seed=*/9);
  ExperimentConfig config;
  config.policy = "sjf+silod";
  config.sim = SmallCluster(GB(40), MBps(300));
  const Result<ClusterTopology> typed =
      ClusterTopology::Parse("gpu-type name=v100 count=5 speed=1;gpu-type name=k80 count=3 speed=0.5");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  config.sim.topology = *typed;
  for (const EngineKind engine : {EngineKind::kFlow, EngineKind::kFine}) {
    config.engine = engine;
    const SimResult result = RunExperiment(trace, config);
    const RunReport report = MakeRunReport("x", "e", result);
    ASSERT_FALSE(report.gpu_types.empty());
    int grouped = 0;
    double worst = 0;
    for (const TenantSummary& g : report.gpu_types) {
      EXPECT_GT(g.jct.finished, 0) << g.name;
      grouped += g.jct.finished;
      worst = std::max(worst, g.jct.p99_jct_min);
    }
    EXPECT_EQ(grouped, report.jct.finished);
    EXPECT_LE(report.jct.p99_jct_min, worst + 1e-9);
  }
}

// A long job that only runs well on the slow GPU type: SJF ranks it by its
// (long) speed-adjusted duration and keeps admitting the stream of short jobs
// ahead of it, so its completion — the trace's p99 — blows up.  Gavel's
// fairness objective admits in arrival order, hands it the slow GPU at t=0,
// and the tail stays near the job's ideal duration.
TEST(Heterogeneity, SlowBoundJobTailRegressesUnderSjfNotFairness) {
  const ModelZoo zoo;
  Trace trace;
  JobId next = 0;
  auto add_job = [&](const char* name, Bytes bytes, Seconds submit) -> JobSpec& {
    const DatasetId d =
        trace.catalog.Add(name + std::to_string(next), std::max(bytes, GB(1)), MB(16));
    JobSpec job = MakeJob(next++, zoo, "ResNet-50", 1, d, 1.0, submit);
    job.total_bytes = bytes;
    trace.jobs.push_back(job);
    return trace.jobs.back();
  };
  // Two warm-up jobs saturate both pools; the slow pool frees first.
  add_job("warm-fast", GB(17), 0);
  add_job("warm-slow", GB(2.85), 0);
  // The victim: crawls on the fast type, so its speed-adjusted duration (the
  // SJF score) is long, and it arrives before the whole short stream.
  JobSpec& slow_bound = add_job("victim", 2 * GB(10), 10);
  slow_bound.speed_factors = {{"fast", 0.05}};
  const std::size_t victim = trace.jobs.size() - 1;
  // A stream of shorts arriving faster than the two pools drain them: under
  // SJF there is a shorter waiting job at every replan until the stream ends.
  for (int i = 0; i < 40; ++i) {
    add_job("short", GB(2), 20 + 10.0 * i);
  }

  ExperimentConfig config;
  config.engine = EngineKind::kFlow;
  config.sim = SmallCluster(TB(1), GBps(10));  // Compute-bound throughout.
  config.sim.resources.total_gpus = 2;
  config.sim.reschedule_period = Minutes(1);
  const Result<ClusterTopology> typed = ClusterTopology::Parse(
      "gpu-type name=fast count=1 speed=1;gpu-type name=slow count=1 speed=0.25");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  config.sim.topology = *typed;

  config.policy = "sjf+silod";
  const SimResult sjf_result = RunExperiment(trace, config);
  config.policy = "gavel+silod";
  const SimResult gavel_result = RunExperiment(trace, config);
  const RunReport sjf = MakeRunReport("sjf", "flow", sjf_result);
  const RunReport gavel = MakeRunReport("gavel", "flow", gavel_result);

  const int total = static_cast<int>(trace.jobs.size());
  ASSERT_EQ(sjf.jct.finished, total);
  ASSERT_EQ(gavel.jct.finished, total);
  // SJF starves the slow-bound job behind the short stream; Gavel's
  // arrival-order fairness hands it the slow GPU as soon as one frees, so its
  // JCT — and with it the trace's p99 — stays near the ideal slow-type
  // duration.
  EXPECT_GT(sjf_result.jobs[victim].Jct(), 1.5 * gavel_result.jobs[victim].Jct());
  EXPECT_GT(sjf.jct.p99_jct_min, 1.3 * gavel.jct.p99_jct_min);
}

// ------------------------------------------------------- Input validation --

// One job of `gpus` GPUs on the SingleJobTrace dataset.
Trace WideJobTrace(int gpus) {
  Trace trace = SingleJobTrace(/*epochs=*/1);
  trace.jobs[0].num_gpus = gpus;
  return trace;
}

bool Mentions(const Status& st, const std::string& text) {
  return st.message().find(text) != std::string::npos;
}

// A gang wider than the whole cluster could never start: both engines used
// to run until max_time (fine) or abort (flow) instead of rejecting it.
TEST(SimInputs, RejectsJobWiderThanCluster) {
  SimConfig config = SmallCluster(GB(10), MBps(100));
  config.resources.total_gpus = 16;
  const Status st = ValidateSimInputs(WideJobTrace(64), config);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(st, "needs 64 GPUs but the cluster has 16")) << st.ToString();
  EXPECT_TRUE(ValidateSimInputs(WideJobTrace(16), config).ok());
}

// Gangs never span GPU types: 12 GPUs fit the 16-GPU cluster but neither
// 8-GPU pool.
TEST(SimInputs, RejectsJobWiderThanEveryGpuTypePool) {
  SimConfig config = SmallCluster(GB(10), MBps(100));
  config.resources.total_gpus = 16;
  const Result<ClusterTopology> typed = ClusterTopology::Parse(
      "gpu-type name=v100 count=8 speed=1;gpu-type name=k80 count=8 speed=0.5");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  config.topology = *typed;
  const Status st = ValidateSimInputs(WideJobTrace(12), config);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(st, "widest gpu-type pool has 8")) << st.ToString();
  EXPECT_TRUE(ValidateSimInputs(WideJobTrace(8), config).ok());
}

// What a zero-job workload amounts to.
TEST(SimInputs, RejectsEmptyTrace) {
  const Status st = ValidateSimInputs(Trace{}, SmallCluster(GB(10), MBps(100)));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(st, "empty trace")) << st.ToString();
}

TEST(SimInputs, RejectsMalformedTraceAndTopology) {
  const SimConfig config = SmallCluster(GB(10), MBps(100));
  Trace sparse_ids = SingleJobTrace(1);
  sparse_ids.jobs[0].id = 3;
  EXPECT_TRUE(Mentions(ValidateSimInputs(sparse_ids, config), "dense"));
  Trace duplicate_ids = SingleJobTrace(1);
  duplicate_ids.jobs.push_back(duplicate_ids.jobs[0]);
  EXPECT_TRUE(Mentions(ValidateSimInputs(duplicate_ids, config), "dense"));
  Trace unknown_dataset = SingleJobTrace(1);
  unknown_dataset.jobs[0].dataset = 7;
  EXPECT_TRUE(Mentions(ValidateSimInputs(unknown_dataset, config), "unknown dataset 7"));

  SimConfig zones_past_servers = config;  // Two servers: 0 and 1.
  const Result<ClusterTopology> racks = ClusterTopology::Parse("rack0=0-1;rack1=2-3");
  ASSERT_TRUE(racks.ok()) << racks.status().ToString();
  zones_past_servers.topology = *racks;
  EXPECT_FALSE(ValidateSimInputs(SingleJobTrace(1), zones_past_servers).ok());

  SimConfig typed_sum = config;  // Eight GPUs.
  const Result<ClusterTopology> typed = ClusterTopology::Parse("gpu-type name=v100 count=6");
  ASSERT_TRUE(typed.ok()) << typed.status().ToString();
  typed_sum.topology = *typed;
  EXPECT_TRUE(Mentions(ValidateSimInputs(SingleJobTrace(1), typed_sum),
                       "gpu-type counts sum to 6 but the cluster has 8 GPUs"));

  // The fine engine's fabric used to abort on zero servers; the flow engine
  // ran without any.
  for (const int servers : {0, -3}) {
    SimConfig serverless = config;
    serverless.resources.num_servers = servers;
    EXPECT_TRUE(Mentions(ValidateSimInputs(SingleJobTrace(1), serverless),
                         "num_servers must be >= 1"))
        << servers;
  }

  EXPECT_TRUE(ValidateSimInputs(SingleJobTrace(1), config).ok());
}

// The fine engine's epoch orders hold 32-bit block indices.  A 4 TB dataset
// of 1-byte blocks used to abort the fine engine with std::bad_alloc; the
// flow engine keeps no per-block state and runs it.
TEST(SimInputs, FineEngineBoundsBlockCounts) {
  constexpr Bytes kMaxBlocks = std::numeric_limits<std::int32_t>::max();
  Trace at_bound = SingleJobTrace(1);
  at_bound.catalog.Add("at-bound", kMaxBlocks, 1);
  EXPECT_TRUE(ValidateFineBlockCounts(at_bound).ok());

  Trace past_bound = SingleJobTrace(1);
  past_bound.catalog.Add("past-bound", kMaxBlocks + 1, 1);
  const Status st = ValidateFineBlockCounts(past_bound);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(st, "dataset 1 (past-bound) has 2147483648 blocks")) << st.ToString();
  EXPECT_DEATH(FineEngine(&past_bound, MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
                          SmallCluster(GB(10), MBps(100))),
               "past-bound");
}

}  // namespace
}  // namespace silod
