// Tests for the extension features beyond the paper's core evaluation:
// command-line flags, trace serialization, crash recovery (§6 fault
// tolerance), consistent-hash block placement, the Gavel objective family,
// Hoard-style prefetching, and the shared-LFU cache model.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/flags.h"
#include "src/core/recovery.h"
#include "src/core/system.h"
#include "src/estimator/ioperf.h"
#include "src/sched/gavel.h"
#include "src/storage/placement.h"
#include "src/workload/trace_io.h"

namespace silod {
namespace {

// ------------------------------------------------------------------ Flags --

TEST(Flags, ParsesEqualsAndSpaceForms) {
  FlagSet flags;
  flags.Define("gpus", "8", "gpu count");
  flags.Define("name", "x", "a name");
  const char* argv[] = {"prog", "--gpus=96", "--name", "cluster-a", "positional"};
  ASSERT_TRUE(flags.Parse(5, argv).ok());
  EXPECT_EQ(flags.GetInt("gpus"), 96);
  EXPECT_EQ(flags.GetString("name"), "cluster-a");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, BooleanSugar) {
  FlagSet flags;
  flags.Define("verbose", "false", "chatty");
  flags.Define("manage", "true", "manage IO");
  const char* argv[] = {"prog", "--verbose", "--no-manage"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_FALSE(flags.GetBool("manage"));
}

TEST(Flags, UnknownFlagIsError) {
  FlagSet flags;
  flags.Define("gpus", "8", "gpu count");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(Flags, DefaultsApply) {
  FlagSet flags;
  flags.Define("cache-tb", "7.5", "cache");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("cache-tb"), 7.5);
  EXPECT_NE(flags.Help("prog").find("cache-tb"), std::string::npos);
}

// --------------------------------------------------------------- Trace IO --

TEST(TraceIo, RoundTripPreservesJobs) {
  TraceOptions options;
  options.num_jobs = 25;
  options.share_fraction = 0.4;
  options.seed = 9;
  const Trace original = TraceGenerator(options).Generate();
  const Result<Trace> loaded = TraceFromCsv(TraceToCsv(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->jobs.size(), original.jobs.size());
  ASSERT_EQ(loaded->catalog.size(), original.catalog.size());
  for (std::size_t i = 0; i < original.jobs.size(); ++i) {
    const JobSpec& a = original.jobs[i];
    const JobSpec& b = loaded->jobs[i];
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.num_gpus, b.num_gpus);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_NEAR(a.ideal_io, b.ideal_io, 1.0);
    EXPECT_NEAR(a.submit_time, b.submit_time, 1e-3);
    EXPECT_EQ(original.catalog.Get(a.dataset).name, loaded->catalog.Get(b.dataset).name);
  }
}

TEST(TraceIo, SharedDatasetsDeduplicate) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("shared", GB(100), MB(64));
  trace.jobs.push_back(MakeJob(0, zoo, "ResNet-50", 1, d, Hours(1), 0));
  trace.jobs.push_back(MakeJob(1, zoo, "ResNet-50", 1, d, Hours(1), 0));
  const Result<Trace> loaded = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->catalog.size(), 1u);
  EXPECT_EQ(loaded->jobs[0].dataset, loaded->jobs[1].dataset);
}

TEST(TraceIo, RejectsMalformedInput) {
  EXPECT_FALSE(TraceFromCsv("").ok());
  EXPECT_FALSE(TraceFromCsv("not,a,header\n").ok());
  const Trace t = MakeMicrobenchmarkTrace();
  std::string csv = TraceToCsv(t);
  csv += "1,x,ResNet-50,1\n";  // Truncated row.
  EXPECT_FALSE(TraceFromCsv(csv).ok());
}

TEST(TraceIo, RoundTripSimulatesIdentically) {
  TraceOptions options;
  options.num_jobs = 20;
  options.seed = 10;
  const Trace original = TraceGenerator(options).Generate();
  const Result<Trace> loaded = TraceFromCsv(TraceToCsv(original));
  ASSERT_TRUE(loaded.ok());
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim.resources.total_gpus = 16;
  config.sim.resources.total_cache = TB(1);
  config.sim.resources.remote_io = MBps(200);
  const double a = RunExperiment(original, config).AvgJctSeconds();
  const double b = RunExperiment(*loaded, config).AvgJctSeconds();
  EXPECT_NEAR(a, b, 1.0);
}

// --------------------------------------------------------------- Recovery --

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    dataset_a_ = catalog_.Add("a", GB(4), MB(100));
    dataset_b_ = catalog_.Add("b", GB(8), MB(100));
  }
  DatasetCatalog catalog_;
  DatasetId dataset_a_;
  DatasetId dataset_b_;
};

TEST_F(RecoveryTest, SnapshotRestoreRoundTrip) {
  DataManager manager(GB(10), MBps(100));
  ASSERT_TRUE(manager.AllocateCacheSize(catalog_.Get(dataset_a_), GB(3)).ok());
  ASSERT_TRUE(manager.AllocateCacheSize(catalog_.Get(dataset_b_), GB(5)).ok());
  ASSERT_TRUE(manager.AllocateRemoteIo(4, MBps(40)).ok());
  ASSERT_TRUE(manager.AllocateRemoteIo(7, MBps(60)).ok());
  // Populate some cache content.
  for (std::int64_t b = 0; b < 20; ++b) {
    manager.ReadBlock(4, catalog_.Get(dataset_a_), b);
  }

  const DataManagerSnapshot snapshot = CaptureSnapshot(manager, catalog_);
  EXPECT_EQ(snapshot.cache_allocations.at(dataset_a_), GB(3));
  EXPECT_EQ(snapshot.cached_blocks.at(dataset_a_).size(), 20u);

  // "Crash": a fresh manager, rebuilt from the snapshot.
  DataManager restored(GB(10), MBps(100));
  ASSERT_TRUE(RestoreDataManager(snapshot, catalog_, &restored).ok());
  EXPECT_EQ(restored.cache().Allocation(dataset_a_), GB(3));
  EXPECT_EQ(restored.cache().Allocation(dataset_b_), GB(5));
  EXPECT_DOUBLE_EQ(restored.remote().JobThrottle(4), MBps(40));
  EXPECT_DOUBLE_EQ(restored.remote().JobThrottle(7), MBps(60));
  for (std::int64_t b = 0; b < 20; ++b) {
    EXPECT_TRUE(restored.cache().IsCached(dataset_a_, b)) << b;
  }
  // The restored state snapshots identically (fixpoint).
  EXPECT_EQ(CaptureSnapshot(restored, catalog_), snapshot);
}

TEST_F(RecoveryTest, TextSerializationRoundTrip) {
  DataManagerSnapshot snapshot;
  snapshot.cache_allocations[dataset_a_] = GB(3);
  snapshot.io_allocations[9] = MBps(25);
  snapshot.io_allocations[11] = 123456789.12345679;  // Needs all 17 digits.
  snapshot.cached_blocks[dataset_a_] = {0, 5, 17};
  const Result<DataManagerSnapshot> parsed = SnapshotFromText(SnapshotToText(snapshot));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, snapshot);
}

TEST_F(RecoveryTest, TextRejectsGarbage) {
  EXPECT_FALSE(SnapshotFromText("").ok());
  EXPECT_FALSE(SnapshotFromText("silod-snapshot-v1\nwut 1 2\n").ok());
  EXPECT_FALSE(SnapshotFromText("silod-snapshot-v1\ncache x\n").ok());
}

// Hostile-input table: a restart must never rebuild from a corrupt durable
// snapshot — every malformed record is a distinct InvalidArgument, not a
// silently skipped line or a garbage DataManager.
TEST_F(RecoveryTest, TextRejectsEveryMalformedRecordShape) {
  const struct {
    const char* text;
    const char* why;
  } kBad[] = {
      {"silod-snapshot-v2\n", "wrong version header"},
      {"silod-snapshot-v1\ncache 0\n", "truncated cache line"},
      {"silod-snapshot-v1\ncache 0 100 extra\n", "trailing garbage on cache line"},
      {"silod-snapshot-v1\ncache 0 ten\n", "non-numeric quota"},
      {"silod-snapshot-v1\ncache 0 -5\n", "negative quota"},
      {"silod-snapshot-v1\ncache 0 100\ncache 0 200\n", "duplicate cache record"},
      {"silod-snapshot-v1\nio 3\n", "truncated io line"},
      {"silod-snapshot-v1\nio 3 100 extra\n", "trailing garbage on io line"},
      {"silod-snapshot-v1\nio 3 -1\n", "negative io rate"},
      {"silod-snapshot-v1\nio 3 10\nio 3 20\n", "duplicate io record"},
      {"silod-snapshot-v1\nblocks\n", "truncated blocks line"},
      {"silod-snapshot-v1\nblocks 0\n", "blocks record lists no blocks"},
      {"silod-snapshot-v1\nblocks 0 1 two 3\n", "non-numeric block id"},
      {"silod-snapshot-v1\nblocks 0 1 2\nblocks 0 3\n", "duplicate blocks record"},
  };
  for (const auto& c : kBad) {
    const Result<DataManagerSnapshot> parsed = SnapshotFromText(c.text);
    EXPECT_FALSE(parsed.ok()) << c.why;
  }
  // The same shapes in one well-formed snapshot parse cleanly.
  const Result<DataManagerSnapshot> good =
      SnapshotFromText("silod-snapshot-v1\ncache 0 100\nio 3 10\nblocks 0 1 2\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->cache_allocations.at(0), 100);
  EXPECT_EQ(good->cached_blocks.at(0), (std::vector<std::int64_t>{1, 2}));
}

TEST_F(RecoveryTest, TextValidatesAgainstCatalogWhenGiven) {
  // dataset ids 0 and 1 exist (a: 4 GB in 100 MB blocks = 40 blocks).
  const std::string unknown_cache = "silod-snapshot-v1\ncache 9 100\n";
  const std::string unknown_blocks = "silod-snapshot-v1\nblocks 9 1\n";
  const std::string negative_block = "silod-snapshot-v1\nblocks 0 -1\n";
  const std::string out_of_range = "silod-snapshot-v1\nblocks 0 40\n";
  const std::string in_range = "silod-snapshot-v1\nblocks 0 39\n";

  // Without a catalog, structurally valid text parses (ids are opaque).
  EXPECT_TRUE(SnapshotFromText(unknown_cache).ok());
  EXPECT_TRUE(SnapshotFromText(unknown_blocks).ok());
  // With the catalog, unknown ids and out-of-range blocks are rejected.
  EXPECT_FALSE(SnapshotFromText(unknown_cache, &catalog_).ok());
  EXPECT_FALSE(SnapshotFromText(unknown_blocks, &catalog_).ok());
  EXPECT_FALSE(SnapshotFromText(negative_block, &catalog_).ok());
  EXPECT_FALSE(SnapshotFromText(out_of_range, &catalog_).ok());
  EXPECT_TRUE(SnapshotFromText(in_range, &catalog_).ok());
}

TEST_F(RecoveryTest, RestoreDropsSurplusDiskContent) {
  // Disk holds more blocks than the (shrunken) restored quota admits.
  DataManagerSnapshot snapshot;
  snapshot.cache_allocations[dataset_a_] = MB(500);  // 5 blocks.
  snapshot.cached_blocks[dataset_a_] = {0, 1, 2, 3, 4, 5, 6, 7};
  DataManager restored(GB(10), MBps(100));
  ASSERT_TRUE(RestoreDataManager(snapshot, catalog_, &restored).ok());
  EXPECT_EQ(restored.cache().CachedBytes(dataset_a_), MB(500));
}

// -------------------------------------------------------------- Placement --

TEST(Placement, Deterministic) {
  const BlockPlacement a(10);
  const BlockPlacement b(10);
  for (std::int64_t block = 0; block < 1000; ++block) {
    EXPECT_EQ(a.ServerFor(3, block), b.ServerFor(3, block));
  }
}

TEST(Placement, SpreadsEvenly) {
  const Dataset dataset = MakeDataset(0, "x", GB(64), MB(4));  // 16384 blocks.
  const BlockPlacement placement(16);
  const auto counts = placement.CountPerServer(dataset);
  const double expected = static_cast<double>(dataset.num_blocks) / 16.0;
  for (std::int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, 0.35 * expected);
  }
}

TEST(Placement, MinimalMovementOnGrowth) {
  const Dataset dataset = MakeDataset(0, "x", GB(64), MB(4));
  const BlockPlacement before(16);
  const BlockPlacement after(17);
  const double moved = before.MovedFraction(dataset, after);
  // Consistent hashing moves ~1/17 of blocks; naive mod-N would move ~94%.
  EXPECT_LT(moved, 0.15);
  EXPECT_GT(moved, 0.01);
}

TEST(Placement, SingleServerTakesAll) {
  const Dataset dataset = MakeDataset(0, "x", MB(640), MB(64));
  const BlockPlacement placement(1);
  EXPECT_EQ(placement.CountPerServer(dataset)[0], dataset.num_blocks);
}

// -------------------------------------------------------- Gavel objectives --

class ObjectiveTest : public ::testing::Test {
 protected:
  // Two short cache-efficient jobs and one long inefficient one competing
  // for scarce storage.
  Trace MakeTrace() {
    const ModelZoo zoo;
    Trace trace;
    auto add = [&](const char* model, Bytes size, double epochs) {
      const DatasetId d = trace.catalog.Add(std::string("d") + std::to_string(trace.jobs.size()),
                                            size, MB(16));
      JobSpec job = MakeJob(static_cast<JobId>(trace.jobs.size()), zoo, model, 1, d, 1.0, 0);
      job.total_bytes = static_cast<Bytes>(epochs * static_cast<double>(size));
      trace.jobs.push_back(job);
    };
    add("ResNet-50", GB(20), 4);
    add("ResNet-50", GB(20), 4);
    add("VLAD", GB(200), 1.5);
    return trace;
  }

  SimResult RunWith(GavelObjective objective) {
    ExperimentConfig config;
    config.policy = "gavel+silod";
    config.scheduler_options.gavel_objective = objective;
    config.sim.resources.total_gpus = 4;
    config.sim.resources.total_cache = GB(25);
    config.sim.resources.remote_io = MBps(30);
    return RunExperiment(MakeTrace(), config);
  }
};

TEST_F(ObjectiveTest, AllObjectivesProduceValidRuns) {
  for (const GavelObjective objective :
       {GavelObjective::kMaxMinFairness, GavelObjective::kFinishTimeFairness,
        GavelObjective::kMinTotalJct, GavelObjective::kMaxThroughput}) {
    const SimResult result = RunWith(objective);
    EXPECT_EQ(result.jobs.size(), 3u) << GavelObjectiveName(objective);
    for (const JobResult& j : result.jobs) {
      EXPECT_GT(j.Jct(), 0) << GavelObjectiveName(objective);
    }
  }
}

TEST_F(ObjectiveTest, JctObjectiveMinimizesAvgJct) {
  const double jct_obj = RunWith(GavelObjective::kMinTotalJct).AvgJctSeconds();
  const double fair_obj = RunWith(GavelObjective::kMaxMinFairness).AvgJctSeconds();
  EXPECT_LE(jct_obj, fair_obj * 1.001);
}

TEST_F(ObjectiveTest, FairnessObjectiveMaximizesFairness) {
  const double fair = RunWith(GavelObjective::kMaxMinFairness).AvgFairness();
  const double jct = RunWith(GavelObjective::kMinTotalJct).AvgFairness();
  EXPECT_GE(fair, jct * 0.999);
}

TEST_F(ObjectiveTest, ThroughputObjectivePlanMaximizesSteadyThroughput) {
  // The throughput objective is greedy on the *instantaneous* state, so its
  // time-average can trail max-min during cache warm-up; the crisp property
  // is at the plan level: with warm caches, the aggregate steady-state
  // throughput its plan implies is at least the fair plan's.
  const Trace trace = MakeTrace();
  Snapshot snap;
  snap.catalog = &trace.catalog;
  snap.resources.total_gpus = 4;
  snap.resources.total_cache = GB(25);
  snap.resources.remote_io = MBps(30);
  for (const JobSpec& job : trace.jobs) {
    JobView view;
    view.spec = &job;
    view.remaining_bytes = job.total_bytes;
    snap.jobs.push_back(view);
  }
  auto plan_throughput = [&](GavelObjective objective) {
    GavelScheduler scheduler(nullptr, /*silod_aware=*/true, /*manage_remote_io=*/true,
                             objective);
    // Two passes: the first sets quotas, the second sees warm effective
    // caches matching them.
    AllocationPlan plan = scheduler.Schedule(snap);
    Snapshot warm = snap;
    for (JobView& view : warm.jobs) {
      const auto it = plan.dataset_cache.find(view.spec->dataset);
      view.effective_cache = it == plan.dataset_cache.end() ? 0 : it->second;
    }
    plan = scheduler.Schedule(warm);
    double total = 0;
    for (const JobView& view : warm.jobs) {
      const Dataset& d = trace.catalog.Get(view.spec->dataset);
      const auto it = plan.dataset_cache.find(d.id);
      const Bytes c = it == plan.dataset_cache.end() ? 0 : it->second;
      total += SiloDPerfThroughput(view.spec->ideal_io, plan.Get(view.spec->id).remote_io, c,
                                   d.size);
    }
    return total;
  };
  const double tp = plan_throughput(GavelObjective::kMaxThroughput);
  const double fair = plan_throughput(GavelObjective::kMaxMinFairness);
  EXPECT_GE(tp, fair * 0.999);
}

TEST(ObjectiveSemantics, FinishTimeFairnessAllocatesProportionallyToIdeal) {
  // Two cold jobs, no cache, scarce egress.  Max-min fairness equalizes
  // absolute throughput; finish-time fairness equalizes throughput / f*, so
  // remote IO goes out proportionally to f* (114 : 43).
  const ModelZoo zoo;
  DatasetCatalog catalog;
  const DatasetId d0 = catalog.Add("a", TB(2), MB(64));
  const DatasetId d1 = catalog.Add("b", TB(2), MB(64));
  const JobSpec fast = MakeJob(0, zoo, "ResNet-50", 1, d0, Hours(10), 0);
  const JobSpec slow = MakeJob(1, zoo, "ResNet-152", 1, d1, Hours(10), 0);
  Snapshot snap;
  snap.catalog = &catalog;
  snap.resources.total_gpus = 2;
  snap.resources.total_cache = 0;
  snap.resources.remote_io = MBps(100);
  for (const JobSpec* spec : {&fast, &slow}) {
    JobView view;
    view.spec = spec;
    view.remaining_bytes = spec->total_bytes;
    snap.jobs.push_back(view);
  }

  GavelScheduler ftf(nullptr, true, true, GavelObjective::kFinishTimeFairness);
  const AllocationPlan ftf_plan = ftf.Schedule(snap);
  EXPECT_NEAR(ftf_plan.Get(0).remote_io / ftf_plan.Get(1).remote_io, 114.0 / 43.0, 0.05);

  GavelScheduler mmf(nullptr, true, true, GavelObjective::kMaxMinFairness);
  const AllocationPlan mmf_plan = mmf.Schedule(snap);
  // Max-min with progressive filling: the slow job saturates at its f* of
  // 43 MB/s and cannot use more; the leftover tops the fast job up to 57 —
  // a smaller skew than finish-time fairness's 114:43.
  EXPECT_NEAR(ToMBps(mmf_plan.Get(1).remote_io), 43.0, 1.0);
  EXPECT_NEAR(ToMBps(mmf_plan.Get(0).remote_io), 57.0, 1.0);
  EXPECT_LT(mmf_plan.Get(0).remote_io / mmf_plan.Get(1).remote_io,
            ftf_plan.Get(0).remote_io / ftf_plan.Get(1).remote_io);
}

TEST(ObjectiveNames, AllDistinct) {
  EXPECT_STRNE(GavelObjectiveName(GavelObjective::kMaxMinFairness),
               GavelObjectiveName(GavelObjective::kFinishTimeFairness));
  EXPECT_STRNE(GavelObjectiveName(GavelObjective::kMinTotalJct),
               GavelObjectiveName(GavelObjective::kMaxThroughput));
}

// ------------------------------------------------------------- Prefetching --

TEST(Prefetch, WarmStartsQueuedJobs) {
  // Two jobs on one GPU: job 1 queues behind job 0.  With Hoard prefetching
  // the leftover egress warms job 1's dataset while it waits, removing its
  // cold first epoch.
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d0 = trace.catalog.Add("a", GB(10), MB(16));
  const DatasetId d1 = trace.catalog.Add("b", GB(10), MB(16));
  JobSpec j0 = MakeJob(0, zoo, "ResNet-50", 1, d0, 1.0, 0);
  j0.total_bytes = 4 * GB(10);
  JobSpec j1 = MakeJob(1, zoo, "ResNet-50", 1, d1, 1.0, 1.0);
  j1.total_bytes = 4 * GB(10);
  trace.jobs = {j0, j1};

  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim.resources.total_gpus = 1;
  config.sim.resources.total_cache = GB(20);
  // 60 MB/s < f*: a cold job IS IO-bound, but once job 0's cache fills its
  // epochs leave the egress idle — exactly the slack Hoard exploits.
  config.sim.resources.remote_io = MBps(60);
  config.sim.prefetch_waiting = false;
  const SimResult off = RunExperiment(trace, config);
  config.sim.prefetch_waiting = true;
  const SimResult on = RunExperiment(trace, config);

  // Job 1 starts with a warm cache: its runtime (finish - start) drops from
  // cold-epoch-plus-warm-epochs to the compute-bound duration.
  const double run_off = off.jobs[1].finish_time - off.jobs[1].first_start_time;
  const double run_on = on.jobs[1].finish_time - on.jobs[1].first_start_time;
  EXPECT_LT(run_on, run_off * 0.9);
  EXPECT_NEAR(run_on, j1.IdealDuration(), 0.05 * j1.IdealDuration());
  EXPECT_LT(on.makespan, off.makespan);
}

TEST(Prefetch, NoEffectWithoutSlackOrSpace) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d0 = trace.catalog.Add("a", GB(10), MB(16));
  const DatasetId d1 = trace.catalog.Add("b", GB(10), MB(16));
  JobSpec j0 = MakeJob(0, zoo, "ResNet-50", 1, d0, 1.0, 0);
  j0.total_bytes = 3 * GB(10);
  JobSpec j1 = MakeJob(1, zoo, "ResNet-50", 1, d1, 1.0, 1.0);
  j1.total_bytes = 3 * GB(10);
  trace.jobs = {j0, j1};
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim.resources.total_gpus = 1;
  // Cache only fits the running job's dataset: nothing to prefetch into.
  config.sim.resources.total_cache = GB(10);
  config.sim.resources.remote_io = MBps(200);
  config.sim.prefetch_waiting = false;
  const double off = RunExperiment(trace, config).makespan;
  config.sim.prefetch_waiting = true;
  const double on = RunExperiment(trace, config).makespan;
  EXPECT_NEAR(on, off, 0.02 * off);
}

// -------------------------------------------------------------- Shared LFU --

TEST(SharedLfu, ThrashesLikeLruUnderEpochScans) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("x", GB(10), MB(16));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = 6 * GB(10);
  trace.jobs.push_back(job);

  auto run = [&](CacheSystem cache) {
    ExperimentConfig config;
    config.policy = PolicyName(SchedulerKind::kFifo, cache);
    config.engine = EngineKind::kFine;
    config.sim.resources.total_gpus = 1;
    config.sim.resources.total_cache = GB(5);
    config.sim.resources.remote_io = MBps(20);
    return RunExperiment(trace, config).AvgJctSeconds();
  };
  const double uniform = run(CacheSystem::kSiloD);
  const double lru = run(CacheSystem::kAlluxio);
  const double lfu = run(CacheSystem::kAlluxioLfu);
  // Both shared-pool policies thrash relative to uniform caching.
  EXPECT_GT(lru, 1.1 * uniform);
  EXPECT_GT(lfu, 1.1 * uniform);
}

TEST(SharedLfu, SchedulerConstructs) {
  const auto scheduler = MakeScheduler(SchedulerKind::kFifo, CacheSystem::kAlluxioLfu);
  EXPECT_EQ(scheduler->name(), "fifo+alluxio-lfu");
}


// ------------------------------------------------------------ SRTF (preempt)

TEST(Srtf, ShortArrivalPreemptsLongJob) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d0 = trace.catalog.Add("long", GB(50), MB(16));
  const DatasetId d1 = trace.catalog.Add("short", GB(5), MB(16));
  JobSpec long_job = MakeJob(0, zoo, "ResNet-50", 1, d0, 1.0, 0);
  long_job.total_bytes = GB(100);  // ~877 s of work.
  JobSpec short_job = MakeJob(1, zoo, "ResNet-50", 1, d1, 1.0, Minutes(1));
  short_job.total_bytes = GB(5);   // ~44 s of work.
  trace.jobs = {long_job, short_job};

  ExperimentConfig config;
  config.policy = "sjf+silod";
  config.sim.resources.total_gpus = 1;  // The short job MUST preempt to run.
  config.sim.resources.total_cache = GB(60);
  config.sim.resources.remote_io = MBps(500);
  config.sim.preempt_resume_penalty = 30.0;

  config.scheduler_options.preemptive_sjf = false;
  const SimResult fifo_like = RunExperiment(trace, config);
  config.scheduler_options.preemptive_sjf = true;
  const SimResult srtf = RunExperiment(trace, config);

  // Without preemption the short job waits out the long one (~15 min JCT);
  // with SRTF it runs promptly.
  EXPECT_GT(fifo_like.jobs[1].Jct(), Minutes(10));
  EXPECT_LT(srtf.jobs[1].Jct(), Minutes(5));
  // The long job pays the resume penalty but still finishes.
  EXPECT_GE(srtf.jobs[0].Jct(), fifo_like.jobs[0].Jct() - 1.0);
  EXPECT_GE(srtf.jobs[0].finish_time, 0);
  // SRTF lowers the average JCT.
  EXPECT_LT(srtf.AvgJctSeconds(), fifo_like.AvgJctSeconds());
}

TEST(Srtf, ResumePenaltyIsCharged) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d0 = trace.catalog.Add("long", GB(50), MB(16));
  const DatasetId d1 = trace.catalog.Add("short", GB(5), MB(16));
  JobSpec long_job = MakeJob(0, zoo, "ResNet-50", 1, d0, 1.0, 0);
  long_job.total_bytes = GB(50);
  JobSpec short_job = MakeJob(1, zoo, "ResNet-50", 1, d1, 1.0, Minutes(1));
  short_job.total_bytes = GB(5);
  trace.jobs = {long_job, short_job};

  ExperimentConfig config;
  config.policy = "sjf+silod";
  config.scheduler_options.preemptive_sjf = true;
  config.sim.resources.total_gpus = 1;
  config.sim.resources.total_cache = GB(60);
  config.sim.resources.remote_io = MBps(500);

  config.sim.preempt_resume_penalty = 0.0;
  const double free_resume = RunExperiment(trace, config).jobs[0].Jct();
  config.sim.preempt_resume_penalty = 60.0;
  const double costly_resume = RunExperiment(trace, config).jobs[0].Jct();
  EXPECT_NEAR(costly_resume - free_resume, 60.0, 5.0);
}

TEST(Srtf, NameReflectsPreemption) {
  SchedulerOptions options;
  options.preemptive_sjf = true;
  EXPECT_EQ(MakeScheduler(SchedulerKind::kSjf, CacheSystem::kSiloD, options)->name(),
            "srtf-silod+silod-greedy");
}

}  // namespace
}  // namespace silod
