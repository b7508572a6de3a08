// Tests for src/core: Algorithm 1 composition, the Data Manager's Table 3
// API, irregular-job partitioning (§6), and the experiment facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "src/common/units.h"
#include "src/core/data_manager.h"
#include "src/core/partition.h"
#include "src/core/policy_registry.h"
#include "src/core/system.h"
#include "src/sched/fifo.h"
#include "src/sched/greedy.h"

namespace silod {
namespace {

// -------------------------------------------------------- MakeScheduler ----

TEST(MakeScheduler, AllFifteenCombinationsConstruct) {
  for (const SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel}) {
    for (const CacheSystem cache :
         {CacheSystem::kSiloD, CacheSystem::kAlluxio, CacheSystem::kAlluxioLfu,
          CacheSystem::kCoorDl, CacheSystem::kQuiver}) {
      const auto scheduler = MakeScheduler(kind, cache);
      ASSERT_NE(scheduler, nullptr);
      EXPECT_FALSE(scheduler->name().empty());
    }
  }
}

TEST(MakeScheduler, SiloDVariantsUseCoDesignedStorage) {
  EXPECT_EQ(MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD)->name(),
            "fifo+silod-greedy");
  EXPECT_EQ(MakeScheduler(SchedulerKind::kGavel, CacheSystem::kSiloD)->name(), "gavel-silod");
  SchedulerOptions ablation;
  ablation.manage_remote_io = false;
  EXPECT_EQ(MakeScheduler(SchedulerKind::kGavel, CacheSystem::kSiloD, ablation)->name(),
            "gavel-silod-cache-only");
}

// ---------------------------------------------------------- DataManager ----

class DataManagerTest : public ::testing::Test {
 protected:
  DataManagerTest() : manager_(GB(10), MBps(100)) {
    dataset_ = MakeDataset(0, "d", GB(4), MB(100));
  }
  DataManager manager_;
  Dataset dataset_;
};

TEST_F(DataManagerTest, Table3AllocationApis) {
  EXPECT_TRUE(manager_.AllocateCacheSize(dataset_, GB(2)).ok());
  EXPECT_TRUE(manager_.AllocateRemoteIo(0, MBps(50)).ok());
  EXPECT_EQ(manager_.cache().Allocation(dataset_.id), GB(2));
  EXPECT_DOUBLE_EQ(manager_.remote().JobThrottle(0), MBps(50));
  EXPECT_FALSE(manager_.AllocateRemoteIo(-1, MBps(1)).ok());
  EXPECT_FALSE(manager_.AllocateRemoteIo(0, -1.0).ok());
  EXPECT_FALSE(manager_.AllocateCacheSize(dataset_, GB(11)).ok());
}

TEST_F(DataManagerTest, ReadBlockMissThenHit) {
  ASSERT_TRUE(manager_.AllocateCacheSize(dataset_, GB(4)).ok());
  ASSERT_TRUE(manager_.AllocateRemoteIo(1, MBps(50)).ok());
  const auto miss = manager_.ReadBlock(1, dataset_, 0);
  EXPECT_FALSE(miss.hit);
  EXPECT_NEAR(miss.remote_seconds, static_cast<double>(MB(100)) / MBps(50), 1e-9);
  const auto hit = manager_.ReadBlock(1, dataset_, 0);
  EXPECT_TRUE(hit.hit);
  EXPECT_DOUBLE_EQ(hit.remote_seconds, 0);
}

TEST_F(DataManagerTest, UnthrottledReadUsesEgressLimit) {
  const auto miss = manager_.ReadBlock(2, dataset_, 1);
  EXPECT_NEAR(miss.remote_seconds, static_cast<double>(MB(100)) / MBps(100), 1e-9);
}

TEST_F(DataManagerTest, ApplyPlanEnforcesQuotasAndThrottles) {
  DatasetCatalog catalog;
  const DatasetId a = catalog.Add("a", GB(4), MB(100));
  const DatasetId b = catalog.Add("b", GB(8), MB(100));
  AllocationPlan plan;
  plan.cache_model = CacheModelKind::kDatasetQuota;
  plan.manages_remote_io = true;
  plan.dataset_cache[a] = GB(3);
  plan.dataset_cache[b] = GB(7);
  plan.jobs[0] = JobAllocation{true, 1, 0, MBps(30)};
  plan.jobs[1] = JobAllocation{true, 1, 0, MBps(70)};
  ASSERT_TRUE(manager_.ApplyPlan(plan, catalog).ok());
  EXPECT_EQ(manager_.cache().Allocation(a), GB(3));
  EXPECT_EQ(manager_.cache().Allocation(b), GB(7));
  EXPECT_DOUBLE_EQ(manager_.remote().JobThrottle(0), MBps(30));
  EXPECT_DOUBLE_EQ(manager_.remote().JobThrottle(1), MBps(70));

  // Reallocate: swap the quotas; shrink-before-grow must make this legal.
  plan.dataset_cache[a] = GB(7);
  plan.dataset_cache[b] = GB(3);
  EXPECT_TRUE(manager_.ApplyPlan(plan, catalog).ok());
}

TEST_F(DataManagerTest, ApplyPlanRejectsNonQuotaModels) {
  DatasetCatalog catalog;
  AllocationPlan plan;
  plan.cache_model = CacheModelKind::kSharedLru;
  EXPECT_FALSE(manager_.ApplyPlan(plan, catalog).ok());
}

// -------------------------------------------------------------- Partition --

class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() {
    snapshot_.catalog = &catalog_;
    snapshot_.resources.total_gpus = 8;
    snapshot_.resources.total_cache = TB(2);
    snapshot_.resources.remote_io = MBps(200);
  }

  void AddJob(bool regular, int gpus = 1) {
    const DatasetId d =
        catalog_.Add("d" + std::to_string(jobs_.size()), GB(143), MB(64));
    JobSpec job = MakeJob(static_cast<JobId>(jobs_.size()), zoo_, "ResNet-50", gpus, d,
                          Hours(1), 0);
    job.regular = regular;
    if (!regular) {
      job.curriculum = true;
    }
    jobs_.push_back(job);
  }

  Snapshot& snapshot() {
    snapshot_.jobs.clear();
    for (const JobSpec& j : jobs_) {
      JobView view;
      view.spec = &j;
      view.remaining_bytes = j.total_bytes;
      snapshot_.jobs.push_back(view);
    }
    return snapshot_;
  }

  ModelZoo zoo_;
  DatasetCatalog catalog_;
  std::deque<JobSpec> jobs_;
  Snapshot snapshot_;
};

TEST_F(PartitionTest, SplitProportionalToGpuDemand) {
  AddJob(true, 6);
  AddJob(false, 2);
  const PartitionSplit split = SplitResources(snapshot());
  EXPECT_NEAR(split.regular_fraction, 0.75, 1e-9);
  EXPECT_EQ(split.regular.total_gpus + split.irregular.total_gpus, 8);
  EXPECT_EQ(split.regular.total_cache + split.irregular.total_cache, TB(2));
  EXPECT_NEAR(split.regular.remote_io + split.irregular.remote_io, MBps(200), 1.0);
}

TEST_F(PartitionTest, AllRegularKeepsEverything) {
  AddJob(true);
  const PartitionSplit split = SplitResources(snapshot());
  EXPECT_DOUBLE_EQ(split.regular_fraction, 1.0);
  EXPECT_EQ(split.regular.total_cache, TB(2));
}

TEST_F(PartitionTest, SplitClampedUnderSkew) {
  for (int i = 0; i < 20; ++i) {
    AddJob(true);
  }
  AddJob(false);
  const PartitionSplit split = SplitResources(snapshot());
  EXPECT_LE(split.regular_fraction, 0.9);  // Irregular partition stays viable.
}

TEST_F(PartitionTest, MergedPlanIsValidAndDisjoint) {
  AddJob(true, 2);
  AddJob(true, 2);
  AddJob(false, 2);
  AddJob(false, 1);
  PartitionedScheduler scheduler(
      MakeScheduler(SchedulerKind::kGavel, CacheSystem::kSiloD),
      MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD));
  const AllocationPlan plan = scheduler.Schedule(snapshot());
  EXPECT_TRUE(plan.Validate(snapshot().resources).ok());
  // Every job is scheduled by exactly one partition; with ample GPUs all run.
  for (const JobSpec& j : jobs_) {
    EXPECT_TRUE(plan.IsRunning(j.id)) << j.id;
  }
  // Irregular jobs got a remote-IO slice from their own partition.
  EXPECT_TRUE(plan.manages_remote_io);
  EXPECT_TRUE(std::isfinite(plan.Get(2).remote_io));
}

TEST_F(PartitionTest, PureRegularDelegates) {
  AddJob(true);
  PartitionedScheduler scheduler(
      MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD),
      MakeScheduler(SchedulerKind::kFifo, CacheSystem::kSiloD));
  const AllocationPlan plan = scheduler.Schedule(snapshot());
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_TRUE(plan.Validate(snapshot().resources).ok());
}

// ----------------------------------------------------------- RunExperiment --

TEST(RunExperiment, DefaultPolicyOnBothEngines) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("x", GB(5), MB(16));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = GB(10);
  trace.jobs.push_back(job);

  ExperimentConfig config;
  config.sim.resources.total_gpus = 4;
  config.sim.resources.total_cache = GB(5);
  config.sim.resources.remote_io = MBps(50);
  EXPECT_EQ(config.policy, "fifo+silod");

  config.engine = EngineKind::kFlow;
  const SimResult flow = RunExperiment(trace, config);
  config.engine = EngineKind::kFine;
  const SimResult fine = RunExperiment(trace, config);
  EXPECT_GT(flow.AvgJctSeconds(), 0);
  EXPECT_NEAR(flow.AvgJctSeconds(), fine.AvgJctSeconds(), 0.08 * fine.AvgJctSeconds());
}

// ------------------------------------------------------------ PolicyName --

TEST(PolicyName, ParseRoundTripsEveryPair) {
  int pairs = 0;
  for (const SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kSjf, SchedulerKind::kGavel}) {
    for (const CacheSystem cache :
         {CacheSystem::kSiloD, CacheSystem::kAlluxio, CacheSystem::kAlluxioLfu,
          CacheSystem::kCoorDl, CacheSystem::kQuiver}) {
      const std::string name = PolicyName(kind, cache);
      const Result<std::pair<SchedulerKind, CacheSystem>> parsed = ParsePolicyName(name);
      ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
      EXPECT_EQ(parsed->first, kind) << name;
      EXPECT_EQ(parsed->second, cache) << name;
      // The name builds the same policy the enum pair does.
      const Result<std::shared_ptr<Scheduler>> by_name = MakeSchedulerByName(name);
      ASSERT_TRUE(by_name.ok()) << name;
      EXPECT_EQ((*by_name)->name(), MakeScheduler(kind, cache)->name()) << name;
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 15);
  EXPECT_EQ(PolicyName(SchedulerKind::kGavel, CacheSystem::kAlluxioLfu), "gavel+alluxio-lfu");
}

TEST(PolicyName, RejectsMalformedNamesListingEveryPolicy) {
  for (const char* name :
       {"", "fifo", "fifo+", "+silod", "fifo+silod+x", "FIFO+SiloD", "lifo+silod", "fifo silod",
        "fifo+silod "}) {
    const Result<std::pair<SchedulerKind, CacheSystem>> parsed = ParsePolicyName(name);
    ASSERT_FALSE(parsed.ok()) << "'" << name << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound) << name;
    for (const std::string& known : AllPolicyNames()) {
      EXPECT_NE(parsed.status().message().find(known), std::string::npos) << known;
    }
    EXPECT_FALSE(MakeSchedulerByName(name).ok()) << name;
  }
}

TEST(PolicyName, AllPolicyNamesAreFifteenSortedAndParse) {
  const std::vector<std::string> names = AllPolicyNames();
  EXPECT_EQ(names.size(), 15u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_EQ(names.front(), "fifo+alluxio");
  EXPECT_EQ(names.back(), "sjf+silod");
  for (const std::string& name : names) {
    EXPECT_TRUE(ParsePolicyName(name).ok()) << name;
  }
}

TEST(PolicyName, DisplayNamesLabelThePaperTables) {
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kGavel), "Gavel");
  EXPECT_STREQ(CacheSystemName(CacheSystem::kAlluxioLfu), "Alluxio-LFU");
  EXPECT_STREQ(CacheSystemName(CacheSystem::kCoorDl), "CoorDL");
}

TEST(PolicyName, NamedPolicyRunsIdenticallyToEnumPair) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("x", GB(5), MB(16));
  trace.jobs.push_back(MakeJob(0, zoo, "ResNet-50", 1, d, Hours(1), 0));
  trace.jobs.push_back(MakeJob(1, zoo, "BERT", 2, d, Hours(1), 60));

  ExperimentConfig config;
  config.sim.resources.total_gpus = 4;
  config.sim.resources.total_cache = GB(5);
  config.sim.resources.remote_io = MBps(200);
  const SimResult via_enum =
      RunExperimentWith(trace, MakeScheduler(SchedulerKind::kSjf, CacheSystem::kSiloD), config);

  config.policy = "sjf+silod";
  const SimResult via_name = RunExperiment(trace, config);
  EXPECT_TRUE(PhysicallyIdentical(via_enum, via_name));
}

}  // namespace
}  // namespace silod
