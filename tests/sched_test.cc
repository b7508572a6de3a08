// Unit and property tests for src/sched: admission, Algorithm 2, the SJF
// score (Eq. 6/7), the Gavel max-min solver (Eq. 8/9), baseline storage
// policies, and plan validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/topology.h"
#include "src/common/units.h"
#include "src/estimator/ioperf.h"
#include "src/sched/fifo.h"
#include "src/sched/gavel.h"
#include "src/sched/greedy.h"
#include "src/sched/sjf.h"
#include "src/sched/storage_policies.h"
#include "src/sched/zone_spread.h"
#include "src/workload/model_zoo.h"

namespace silod {
namespace {

// Fixture building configurable snapshots.
class SchedTest : public ::testing::Test {
 protected:
  SchedTest() {
    snapshot_.catalog = &catalog_;
    snapshot_.resources.total_gpus = 8;
    snapshot_.resources.total_cache = TB(2);
    snapshot_.resources.remote_io = MBps(200);
  }

  // Adds a job on its own dataset; returns the view index.
  std::size_t AddJob(const std::string& model, int gpus, Bytes dataset_size,
                     Seconds duration = Hours(10), Seconds submit = 0) {
    const DatasetId d =
        catalog_.Add(model + "-data-" + std::to_string(jobs_.size()), dataset_size, MB(64));
    jobs_.push_back(MakeJob(static_cast<JobId>(jobs_.size()), zoo_, model, gpus, d, duration,
                            submit));
    views_dirty_ = true;
    return jobs_.size() - 1;
  }

  Snapshot& snapshot() {
    if (views_dirty_) {
      snapshot_.jobs.clear();
      for (const JobSpec& j : jobs_) {
        JobView view;
        view.spec = &j;
        view.remaining_bytes = j.total_bytes;
        view.effective_cache = 0;
        snapshot_.jobs.push_back(view);
      }
      views_dirty_ = false;
    }
    return snapshot_;
  }

  ModelZoo zoo_;
  DatasetCatalog catalog_;
  std::deque<JobSpec> jobs_;
  Snapshot snapshot_;
  bool views_dirty_ = true;
};

// -------------------------------------------------------------- Admission --

TEST_F(SchedTest, FifoAdmitsInArrivalOrderWithBackfill) {
  AddJob("ResNet-50", 4, GB(143), Hours(1), /*submit=*/0);
  AddJob("ResNet-50", 8, GB(143), Hours(1), /*submit=*/10);  // Does not fit after job 0.
  AddJob("ResNet-50", 4, GB(143), Hours(1), /*submit=*/20);  // Backfills.
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_FALSE(plan.IsRunning(1));
  EXPECT_TRUE(plan.IsRunning(2));
  EXPECT_EQ(plan.GpusUsed(), 8);
  EXPECT_TRUE(plan.Validate(snapshot().resources).ok());
}

TEST_F(SchedTest, RunningJobsAreNotPreempted) {
  AddJob("ResNet-50", 8, GB(143), Hours(1), /*submit=*/100);
  AddJob("ResNet-50", 4, GB(143), Hours(1), /*submit=*/0);
  snapshot().jobs[0].running = true;  // Later-submitted job already holds GPUs.
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot_);
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_FALSE(plan.IsRunning(1));  // No room left; FIFO order cannot preempt.
}

// ------------------------------------------------------------ Algorithm 2 --

TEST_F(SchedTest, GreedyCachesMostEfficientDatasetsFirst) {
  // §7.1.1 micro-benchmark shape: ResNet-50 (87 MB/s/TB) beats
  // EfficientNetB1 (53) beats BERT (0.4); 2 TB covers one full ResNet dataset
  // and 0.7 TB of the second most efficient.
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("EfficientNetB1", 1, TB(1.3));
  AddJob("EfficientNetB1", 1, TB(1.3));
  AddJob("BERT", 4, TB(20.9));
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  // The two ResNet datasets are tied: one fully cached, the other gets the
  // remaining 0.7 TB.  EfficientNet and BERT get nothing.
  const Bytes c0 = plan.dataset_cache.at(jobs_[0].dataset);
  const Bytes c1 = plan.dataset_cache.at(jobs_[1].dataset);
  EXPECT_EQ(std::max(c0, c1), TB(1.3));
  EXPECT_EQ(std::min(c0, c1), TB(0.7));
  EXPECT_EQ(plan.dataset_cache.count(jobs_[2].dataset)
                ? plan.dataset_cache.at(jobs_[2].dataset)
                : 0,
            0);
  EXPECT_EQ(plan.DatasetCacheTotal(), TB(2));
}

TEST_F(SchedTest, GreedyRemoteIoCoversDemandsWhenUnderloaded) {
  AddJob("ResNet-50", 1, GB(143));
  AddJob("BERT", 4, TB(20.9));
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  // Instantaneous demands (cold caches): 114 + 8 MB/s < 200 MB/s.
  EXPECT_NEAR(plan.Get(0).remote_io, jobs_[0].ideal_io, 1.0);
  EXPECT_NEAR(plan.Get(1).remote_io, jobs_[1].ideal_io, 1.0);
  EXPECT_TRUE(plan.manages_remote_io);
}

TEST_F(SchedTest, GreedyRemoteIoSharesFairlyWhenOverloaded) {
  for (int i = 0; i < 4; ++i) {
    AddJob("ResNet-50", 1, TB(1.3));
  }
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  // Cold demands 4 x 114 > 200: equal 50 MB/s shares.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(plan.Get(i).remote_io, MBps(50), 1.0);
  }
}

TEST_F(SchedTest, GreedySumsEfficiencyOverSharingJobs) {
  // Two BERT jobs sharing one dataset can out-rank a single faster job if
  // their summed efficiency wins; here they do not, but the dataset-level sum
  // must still be what ranks (§6).
  const DatasetId shared = catalog_.Add("shared", GB(500), MB(64));
  for (int i = 0; i < 2; ++i) {
    jobs_.push_back(MakeJob(static_cast<JobId>(jobs_.size()), zoo_, "EfficientNetB1", 1, shared,
                            Hours(10), 0));
  }
  AddJob("ResNet-50", 1, GB(500));
  snapshot_.resources.total_cache = GB(500);
  views_dirty_ = true;
  FifoScheduler fifo(std::make_shared<SiloDGreedyStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  // Summed efficiency of the shared dataset: 2*69/500 = 0.276 > 114/500.
  EXPECT_EQ(plan.dataset_cache.at(shared), GB(500));
}

// -------------------------------------------------------------- SJF score --

TEST_F(SchedTest, VanillaSjfPrefersShortJobs) {
  const std::size_t long_job = AddJob("ResNet-50", 1, GB(143), Hours(20));
  const std::size_t short_job = AddJob("ResNet-50", 1, GB(143), Hours(1));
  const double s_long = SjfScore(snapshot().jobs[long_job], snapshot(), SjfScoreMode::kComputeOnly);
  const double s_short =
      SjfScore(snapshot().jobs[short_job], snapshot(), SjfScoreMode::kComputeOnly);
  EXPECT_LT(s_short, s_long);
}

TEST_F(SchedTest, SiloDSjfPrefersCacheEfficientJobAtEqualWork) {
  // §5.1: two ResNet-50 jobs with the same steps, one on ImageNet-1k (143 GB)
  // and one on ImageNet-22k (1.3 TB): the former consumes far less cache to
  // reach f*, so its Eq. 7 score is lower.
  const std::size_t small = AddJob("ResNet-50", 1, GB(143), Hours(10));
  const std::size_t large = AddJob("ResNet-50", 1, TB(1.3), Hours(10));
  const double s_small = SjfScore(snapshot().jobs[small], snapshot(), SjfScoreMode::kSiloD);
  const double s_large = SjfScore(snapshot().jobs[large], snapshot(), SjfScoreMode::kSiloD);
  EXPECT_LT(s_small, s_large);
}

TEST_F(SchedTest, SiloDSjfSchedulerOrdersByScore) {
  AddJob("ResNet-50", 8, TB(1.3), Hours(10), /*submit=*/0);
  AddJob("ResNet-50", 8, GB(143), Hours(10), /*submit=*/1);
  SjfScheduler sjf(std::make_shared<SiloDGreedyStorage>(), SjfScoreMode::kSiloD);
  const AllocationPlan plan = sjf.Schedule(snapshot());
  // Only one 8-GPU job fits; the cache-efficient one wins despite arriving
  // later.
  EXPECT_FALSE(plan.IsRunning(0));
  EXPECT_TRUE(plan.IsRunning(1));
}

// ----------------------------------------------------------------- Gavel --

TEST_F(SchedTest, GavelEqualShareThroughput) {
  AddJob("ResNet-50", 1, GB(143));
  // Equal share of 2 TB covers the whole 143 GB dataset -> compute bound.
  EXPECT_DOUBLE_EQ(EqualShareThroughput(jobs_[0], snapshot(), 2), jobs_[0].ideal_io);
  // With 100 sharers: 20 GB cache, 2 MB/s IO -> IO bound.
  const BytesPerSec eq100 = EqualShareThroughput(jobs_[0], snapshot(), 100);
  EXPECT_NEAR(eq100, SiloDPerfThroughput(jobs_[0].ideal_io, MBps(2), TB(2) / 100, GB(143)),
              1.0);
}

TEST_F(SchedTest, GavelSolverSymmetricJobsGetEqualTargets) {
  snapshot_.resources.total_cache = TB(1.4);
  snapshot_.resources.remote_io = MBps(100);
  snapshot_.resources.per_job_remote_cap = MBps(50);
  AddJob("ResNet-50", 1, TB(1.36));
  AddJob("ResNet-50", 1, TB(1.36));
  GavelScheduler gavel(nullptr, /*silod_aware=*/true);
  const AllocationPlan plan = gavel.Schedule(snapshot());
  ASSERT_TRUE(plan.Validate(snapshot().resources).ok());
  // Fig. 4's optimum: cache split evenly, both jobs at the same speed.
  const Bytes c0 = plan.dataset_cache.at(jobs_[0].dataset);
  const Bytes c1 = plan.dataset_cache.at(jobs_[1].dataset);
  EXPECT_NEAR(static_cast<double>(c0), static_cast<double>(c1), static_cast<double>(GB(20)));
  const GavelSolution solution = SolveMaxMinFairness(snapshot(), plan);
  EXPECT_NEAR(solution.target.at(0), solution.target.at(1), MBps(1));
  // ~103-108 MB/s steady state (the paper reports 107).
  EXPECT_GT(solution.target.at(0), MBps(95));
  EXPECT_LT(solution.target.at(0), MBps(114));
}

TEST_F(SchedTest, GavelSolverRespectsConservation) {
  snapshot_.resources.total_cache = TB(1);
  snapshot_.resources.remote_io = MBps(150);
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("EfficientNetB1", 1, TB(1.3));
  AddJob("BERT", 4, TB(20.9));
  GavelScheduler gavel(nullptr, /*silod_aware=*/true);
  const AllocationPlan plan = gavel.Schedule(snapshot());
  EXPECT_TRUE(plan.Validate(snapshot().resources).ok());
  EXPECT_LE(plan.DatasetCacheTotal(), TB(1));
  BytesPerSec io = 0;
  for (const auto& [id, alloc] : plan.jobs) {
    if (alloc.running && !std::isinf(alloc.remote_io)) {
      io += alloc.remote_io;
    }
  }
  EXPECT_LE(io, MBps(150) * 1.001);
}

TEST_F(SchedTest, GavelSolverParetoNoLeftoverWhenConstrained) {
  // With every job IO-hungry, the solver should hand out the whole egress.
  snapshot_.resources.total_cache = GB(100);
  snapshot_.resources.remote_io = MBps(100);
  for (int i = 0; i < 4; ++i) {
    AddJob("ResNet-50", 1, TB(1.3));
  }
  GavelScheduler gavel(nullptr, /*silod_aware=*/true);
  const AllocationPlan plan = gavel.Schedule(snapshot());
  BytesPerSec io = 0;
  for (const auto& [id, alloc] : plan.jobs) {
    if (alloc.running && !std::isinf(alloc.remote_io)) {
      io += alloc.remote_io;
    }
  }
  EXPECT_NEAR(io, MBps(100), MBps(1));
}

TEST_F(SchedTest, GavelImprovesWorstJobOverQuiver) {
  // The qualitative claim of Fig. 4/13: the solver's worst-off job is no
  // worse than under Quiver's benefit-greedy allocation.
  snapshot_.resources.total_cache = TB(1.4);
  snapshot_.resources.remote_io = MBps(100);
  snapshot_.resources.per_job_remote_cap = MBps(50);
  AddJob("ResNet-50", 1, TB(1.36));
  AddJob("ResNet-50", 1, TB(1.36));

  GavelScheduler gavel_silod(nullptr, /*silod_aware=*/true);
  const AllocationPlan plan_s = gavel_silod.Schedule(snapshot());
  const GavelSolution sol = SolveMaxMinFairness(snapshot(), plan_s);
  const BytesPerSec worst_silod = std::min(sol.target.at(0), sol.target.at(1));

  GavelScheduler gavel_quiver(std::make_shared<QuiverStorage>(0.0, 1), /*silod_aware=*/false);
  const AllocationPlan plan_q = gavel_quiver.Schedule(snapshot());
  // Quiver caches one dataset whole; the other job is left with its own
  // 50 MB/s cap.
  BytesPerSec worst_quiver = 1e18;
  for (int i = 0; i < 2; ++i) {
    const auto it = plan_q.dataset_cache.find(jobs_[static_cast<std::size_t>(i)].dataset);
    const Bytes c = it == plan_q.dataset_cache.end() ? 0 : it->second;
    worst_quiver = std::min(
        worst_quiver, SiloDPerfThroughput(jobs_[static_cast<std::size_t>(i)].ideal_io, MBps(50),
                                          c, TB(1.36)));
  }
  EXPECT_GT(worst_silod, worst_quiver * 1.5);
}

// A seeded Gavel snapshot that reaches every branch of the fairness solve:
// fewer datasets than jobs (several jobs share one), a cache pool well short
// of the datasets' total (the knapsack runs dry, leaving some datasets with
// no entry), a typed two-pool fleet with per-job speed factors, a two-rack
// zone topology, and running jobs with partly filled caches.
struct GavelCase {
  ModelZoo zoo;
  DatasetCatalog catalog;
  std::deque<JobSpec> jobs;
  ClusterTopology topology;
  Snapshot snapshot;
};

std::unique_ptr<GavelCase> MakeGavelCase(std::uint64_t seed, bool capped) {
  auto c = std::make_unique<GavelCase>();
  Rng rng(seed);
  constexpr int kDatasets = 6;
  constexpr int kJobs = 14;
  constexpr int kRunning = 5;
  std::vector<DatasetId> datasets;
  Bytes dataset_total = 0;
  for (int i = 0; i < kDatasets; ++i) {
    const Bytes size = GB(100 + 1400 * rng.NextDouble());
    datasets.push_back(c->catalog.Add("gavel-ds" + std::to_string(i), size, MB(64)));
    dataset_total += size;
  }
  const char* const kModels[] = {"ResNet-50", "EfficientNetB1", "ResNet-152", "AlexNet"};
  for (int i = 0; i < kJobs; ++i) {
    JobSpec job = MakeJob(static_cast<JobId>(i), c->zoo, kModels[rng.NextBelow(4)],
                          1 << rng.NextBelow(3), datasets[rng.NextBelow(kDatasets)],
                          Hours(1 + 9 * rng.NextDouble()), 60.0 * i);
    if (i % 3 == 0) {
      job.speed_factors = {{"k80", 0.8}};
    }
    c->jobs.push_back(job);
  }
  Result<ClusterTopology> topology = ClusterTopology::Parse(
      "rack0=0-3;rack1=4-7;gpu-type name=v100 count=12 speed=1;"
      "gpu-type name=k80 count=12 speed=0.5");
  SILOD_CHECK(topology.ok()) << topology.status().ToString();
  c->topology = *std::move(topology);

  Snapshot& s = c->snapshot;
  s.now = Hours(1);
  s.catalog = &c->catalog;
  s.topology = &c->topology;
  s.resources.total_gpus = 24;
  s.resources.total_cache = dataset_total * 2 / 5;
  s.resources.remote_io = MBps(300);
  s.resources.num_servers = 8;
  if (capped) {
    s.resources.per_job_remote_cap = MBps(40);
  }
  for (int i = 0; i < kJobs; ++i) {
    const JobSpec& job = c->jobs[static_cast<std::size_t>(i)];
    JobView view;
    view.spec = &job;
    view.remaining_bytes = job.total_bytes / (1 + i % 3);
    if (i < kRunning) {  // At most 4 GPUs each: both pools hold their share.
      view.running = true;
      view.gpu_type = i % 2;
      view.effective_cache = static_cast<Bytes>(
          rng.NextDouble() * static_cast<double>(c->catalog.Get(job.dataset).size));
    }
    s.jobs.push_back(view);
  }
  AnnotateSnapshotSpeeds(&s);
  return c;
}

std::string KeyList(const std::map<DatasetId, Bytes>& cache) {
  std::string out;
  for (const auto& [id, bytes] : cache) {
    out += (out.empty() ? "" : ",") + std::to_string(id);
  }
  return out;
}

// Pins the Gavel solve bit-for-bit: plan digests for both fairness
// objectives, plus the max-min solution's ratio bits and dataset_cache key
// set (PlanDigest hashes the key set, so a zero entry for a dataset the
// knapsack never reached is a change).  Recorded from the map-based oracle;
// any layout change to the solver must reproduce them exactly.
TEST_F(SchedTest, GavelPlansMatchPinnedDigests) {
  struct Pinned {
    std::uint64_t seed;
    bool capped;
    std::uint64_t max_min_digest;
    std::uint64_t finish_time_digest;
    std::uint64_t rho_bits;
    const char* cache_keys;
  };
  const Pinned kPinned[] = {
      {1, false, 0x242cc4d00d14db0bULL, 0x774476e4a7d3904ULL, 0x40056339f7495975ULL, "0,1,5"},
      {1, true, 0x416a2c7418adf86cULL, 0xe757af28865d2209ULL, 0x400049936b6549aeULL, "0,1,2,3,5"},
      {2, false, 0xa830068fef00195bULL, 0xf29b372d280d19b6ULL, 0x4005628189525d5dULL, "2,4,5"},
      {2, true, 0x5eef1174c5ace076ULL, 0xdd4c40bb1f531eb2ULL, 0x3fff1d27c921a408ULL, "1,2,3,4,5"},
      {3, false, 0xc9e2fb5111ed65f8ULL, 0x6ce1271fb5375ff2ULL, 0x40046da102c88ae4ULL, "2,3,4"},
      {3, true, 0xfee7b09b455b71b7ULL, 0x5f48113aae78b357ULL, 0x3ff9e507bbe7f781ULL, "0,1,2,3,4"},
  };
  bool some_dataset_uncached = false;
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE("seed=" + std::to_string(p.seed) + (p.capped ? " capped" : " uncapped"));
    const std::unique_ptr<GavelCase> c = MakeGavelCase(p.seed, p.capped);
    GavelScheduler max_min(nullptr, /*silod_aware=*/true);
    GavelScheduler finish_time(nullptr, /*silod_aware=*/true, /*manage_remote_io=*/true,
                               GavelObjective::kFinishTimeFairness);
    const AllocationPlan plan = max_min.Schedule(c->snapshot);
    ASSERT_TRUE(plan.Validate(c->snapshot.resources).ok());
    const GavelSolution solution = SolveMaxMinFairness(c->snapshot, plan);
    std::uint64_t rho_bits = 0;
    std::memcpy(&rho_bits, &solution.fairness_ratio, sizeof(rho_bits));
    EXPECT_EQ(PlanDigest(plan), p.max_min_digest);
    EXPECT_EQ(PlanDigest(finish_time.Schedule(c->snapshot)), p.finish_time_digest);
    EXPECT_EQ(rho_bits, p.rho_bits);
    EXPECT_EQ(KeyList(solution.dataset_cache), p.cache_keys);

    // The fixture must keep reaching the branches it exists for.
    std::map<DatasetId, int> sharers;
    for (const JobView& view : c->snapshot.jobs) {
      if (plan.IsRunning(view.spec->id)) {
        ++sharers[view.spec->dataset];
        some_dataset_uncached =
            some_dataset_uncached || solution.dataset_cache.count(view.spec->dataset) == 0;
      }
    }
    EXPECT_TRUE(std::any_of(sharers.begin(), sharers.end(),
                            [](const auto& entry) { return entry.second > 1; }));
    EXPECT_TRUE(std::any_of(plan.jobs.begin(), plan.jobs.end(), [](const auto& entry) {
      return entry.second.running && entry.second.speed != 1.0;
    }));
    EXPECT_FALSE(plan.dataset_zone_cache.empty());
  }
  EXPECT_TRUE(some_dataset_uncached);
}

// -------------------------------------------------- Baseline storage plans --

TEST_F(SchedTest, AlluxioPlanIsSharedLruWithNoAllocations) {
  AddJob("ResNet-50", 1, GB(143));
  FifoScheduler fifo(std::make_shared<AlluxioStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  EXPECT_EQ(plan.cache_model, CacheModelKind::kSharedLru);
  EXPECT_FALSE(plan.manages_remote_io);
  EXPECT_TRUE(plan.dataset_cache.empty());
}

TEST_F(SchedTest, CoorDlGivesStaticSharesByGpu) {
  AddJob("BERT", 4, TB(20.9));
  AddJob("ResNet-50", 1, TB(1.3));
  FifoScheduler fifo(std::make_shared<CoorDlStorage>());
  const AllocationPlan plan = fifo.Schedule(snapshot());
  EXPECT_EQ(plan.cache_model, CacheModelKind::kPerJobStatic);
  EXPECT_EQ(plan.Get(0).private_cache, TB(1));    // 4/8 of 2 TB.
  EXPECT_EQ(plan.Get(1).private_cache, GB(250));  // 1/8 of 2 TB.
}

TEST_F(SchedTest, QuiverPlanCachesWholeBestDataset) {
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("EfficientNetB1", 1, TB(1.3));
  FifoScheduler fifo(std::make_shared<QuiverStorage>(0.0, 1));
  const AllocationPlan plan = fifo.Schedule(snapshot());
  EXPECT_EQ(plan.dataset_cache.at(jobs_[0].dataset), TB(1.3));
  EXPECT_EQ(plan.dataset_cache.count(jobs_[1].dataset), 0u);  // 0.7 TB wasted.
}

TEST_F(SchedTest, QuiverRetentionPreventsFlipFlop) {
  AddJob("ResNet-50", 1, TB(1.3));
  AddJob("ResNet-50", 1, TB(1.3));
  auto storage = std::make_shared<QuiverStorage>(0.25, 42);
  FifoScheduler fifo(storage);
  const AllocationPlan first = fifo.Schedule(snapshot());
  const DatasetId winner = first.dataset_cache.begin()->first;
  for (int round = 0; round < 50; ++round) {
    const AllocationPlan plan = fifo.Schedule(snapshot());
    ASSERT_EQ(plan.dataset_cache.size(), 1u);
    EXPECT_EQ(plan.dataset_cache.begin()->first, winner) << "round " << round;
  }
}

// ------------------------------------------------------------- Validation --

TEST_F(SchedTest, ValidateCatchesGpuOverCommit) {
  AddJob("ResNet-50", 8, GB(143));
  AllocationPlan plan;
  plan.jobs[0] = JobAllocation{true, 16, 0, kUnlimitedRate};
  EXPECT_FALSE(plan.Validate(snapshot().resources).ok());
}

TEST_F(SchedTest, ValidateCatchesCacheOverCommit) {
  AllocationPlan plan;
  plan.dataset_cache[0] = TB(3);
  EXPECT_FALSE(plan.Validate(snapshot().resources).ok());
}

// Regression: allocators derive byte quotas from floating-point shares, so a
// plan handing out exactly total_cache can overshoot by a rounding residue.
// Validate must tolerate that (same epsilon as the remote-IO check) while
// still rejecting real over-commit.
TEST_F(SchedTest, ValidateToleratesCacheRoundingResidue) {
  AllocationPlan plan;
  plan.dataset_cache[0] = snapshot().resources.total_cache + 1;  // One byte of residue.
  EXPECT_TRUE(plan.Validate(snapshot().resources).ok());

  plan.dataset_cache[0] = snapshot().resources.total_cache + MB(1);  // Genuine over-commit.
  EXPECT_FALSE(plan.Validate(snapshot().resources).ok());

  // Private (per-job-static) shares count against the same pool.
  AllocationPlan coordl;
  coordl.cache_model = CacheModelKind::kPerJobStatic;
  coordl.jobs[0] = JobAllocation{true, 1, snapshot().resources.total_cache / 2 + 1,
                                 kUnlimitedRate};
  coordl.jobs[1] = JobAllocation{true, 1, snapshot().resources.total_cache / 2 + 1,
                                 kUnlimitedRate};
  EXPECT_TRUE(coordl.Validate(snapshot().resources).ok());  // 2 bytes of residue.
  coordl.jobs[1] = JobAllocation{true, 1, snapshot().resources.total_cache, kUnlimitedRate};
  EXPECT_FALSE(coordl.Validate(snapshot().resources).ok());
}

TEST_F(SchedTest, ValidateCatchesAllocationsToIdleJobs) {
  AllocationPlan plan;
  plan.jobs[0] = JobAllocation{false, 2, 0, kUnlimitedRate};
  EXPECT_FALSE(plan.Validate(snapshot().resources).ok());
}

TEST_F(SchedTest, ValidateAcceptsAllSchedulers) {
  for (int i = 0; i < 12; ++i) {
    AddJob(i % 3 == 0 ? "BERT" : "ResNet-50", 1 + (i % 4), TB(1.3), Hours(2), i * 60.0);
  }
  const std::vector<std::shared_ptr<Scheduler>> schedulers = {
      std::make_shared<FifoScheduler>(std::make_shared<SiloDGreedyStorage>()),
      std::make_shared<FifoScheduler>(std::make_shared<AlluxioStorage>()),
      std::make_shared<FifoScheduler>(std::make_shared<CoorDlStorage>()),
      std::make_shared<FifoScheduler>(std::make_shared<QuiverStorage>()),
      std::make_shared<SjfScheduler>(std::make_shared<SiloDGreedyStorage>(),
                                     SjfScoreMode::kSiloD),
      std::make_shared<SjfScheduler>(std::make_shared<AlluxioStorage>(),
                                     SjfScoreMode::kComputeOnly),
      std::make_shared<GavelScheduler>(nullptr, true),
      std::make_shared<GavelScheduler>(std::make_shared<QuiverStorage>(), false),
  };
  for (const auto& scheduler : schedulers) {
    const AllocationPlan plan = scheduler->Schedule(snapshot());
    EXPECT_TRUE(plan.Validate(snapshot().resources).ok()) << scheduler->name();
  }
}

// --------------------------------------------------- AdmitByOrder backfill --

TEST_F(SchedTest, AdmitByOrderBackfillsPastSkippedLargeJob) {
  AddJob("ResNet-50", 6, GB(143));
  AddJob("ResNet-50", 4, GB(143));  // Skipped: only 2 GPUs free.
  AddJob("ResNet-50", 2, GB(143));  // Backfills behind the skipped job.
  AllocationPlan plan;
  AdmitByOrder(snapshot(), {0, 1, 2}, &plan);
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_FALSE(plan.IsRunning(1));
  EXPECT_TRUE(plan.IsRunning(2));
  EXPECT_EQ(plan.GpusUsed(), 8);
}

TEST_F(SchedTest, AdmitByOrderChargesRunningJobsBeforeTheOrder) {
  AddJob("ResNet-50", 4, GB(143));
  AddJob("ResNet-50", 6, GB(143));  // Skipped: the running job holds 4 GPUs.
  AddJob("ResNet-50", 4, GB(143));  // Fits exactly in the remainder.
  snapshot().jobs[0].running = true;
  AllocationPlan plan;
  AdmitByOrder(snapshot(), {1, 2, 0}, &plan);  // Order puts the big job first.
  EXPECT_TRUE(plan.IsRunning(0));
  EXPECT_FALSE(plan.IsRunning(1));
  EXPECT_TRUE(plan.IsRunning(2));
  EXPECT_EQ(plan.GpusUsed(), 8);
}

TEST_F(SchedTest, AdmitByOrderPreemptiveSuspendsRunningJobOutsideAdmittedPrefix) {
  AddJob("ResNet-50", 4, GB(143));
  AddJob("ResNet-50", 6, GB(143));
  AddJob("ResNet-50", 2, GB(143));
  snapshot().jobs[0].running = true;  // Running, but last in the new order.
  AllocationPlan plan;
  AdmitByOrderPreemptive(snapshot(), {1, 2, 0}, &plan);
  EXPECT_TRUE(plan.IsRunning(1));
  EXPECT_TRUE(plan.IsRunning(2));
  EXPECT_FALSE(plan.IsRunning(0));  // Suspended: no room after the prefix.
  EXPECT_EQ(plan.GpusUsed(), 8);
}

// ------------------------------------------------------------ ZoneSpreader --

TEST(ZoneSpread, SharesSumToQuotaAndRespectLossBound) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3;loss-bound=0.25");
  ASSERT_TRUE(parsed.ok());
  const ClusterTopology topology = parsed->Cover(8);  // rack0 + 4 singletons.
  ZoneSpreader spreader(topology, GB(80), 8);

  const std::vector<Bytes> shares = spreader.Spread(GB(40));
  ASSERT_EQ(shares.size(), 5u);
  Bytes sum = 0;
  for (const Bytes share : shares) {
    EXPECT_GE(share, 0);
    sum += share;
  }
  EXPECT_EQ(sum, GB(40));
  // Bound satisfiable here (5 zones x 0.25 > 1): no zone exceeds it.
  EXPECT_LE(ZoneSpreader::WorstCaseLoss(shares), GB(10) + 1);
}

TEST(ZoneSpread, CapacityBindsAndLossBoundRelaxesGracefully) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3;loss-bound=0.25");
  ASSERT_TRUE(parsed.ok());
  const ClusterTopology topology = parsed->Cover(8);
  ZoneSpreader spreader(topology, GB(80), 8);

  // The whole pool: the bound cannot absorb it, capacity still must.
  const std::vector<Bytes> shares = spreader.Spread(GB(80));
  Bytes sum = 0;
  for (std::size_t z = 0; z < shares.size(); ++z) {
    const Bytes capacity = GB(80) * topology.zones()[z].size() / 8;
    EXPECT_LE(shares[z], capacity + 1) << "zone " << topology.zones()[z].name;
    sum += shares[z];
  }
  EXPECT_EQ(sum, GB(80));
  EXPECT_GT(ZoneSpreader::WorstCaseLoss(shares), GB(20));  // Bound relaxed.
}

TEST(ZoneSpread, StatefulAcrossDatasetsNeverOverfillsAZone) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3;loss-bound=0.5");
  ASSERT_TRUE(parsed.ok());
  const ClusterTopology topology = parsed->Cover(8);
  ZoneSpreader spreader(topology, GB(80), 8);

  const std::vector<Bytes> first = spreader.Spread(GB(40));
  const std::vector<Bytes> second = spreader.Spread(GB(40));
  for (std::size_t z = 0; z < first.size(); ++z) {
    const Bytes capacity = GB(80) * topology.zones()[z].size() / 8;
    EXPECT_LE(first[z] + second[z], capacity + 1) << "zone " << topology.zones()[z].name;
  }
}

TEST(ZoneSpread, WorstCaseZoneFractionTracksLargestExposure) {
  const Result<ClusterTopology> bounded = ClusterTopology::Parse("rack0=0-3;loss-bound=0.25");
  ASSERT_TRUE(bounded.ok());
  EXPECT_DOUBLE_EQ(WorstCaseZoneFraction(bounded->Cover(8), 8), 0.25);

  const Result<ClusterTopology> loose = ClusterTopology::Parse("rack0=0-3;loss-bound=0.8");
  ASSERT_TRUE(loose.ok());
  // The rack holds half the servers: capacity caps the exposure below 0.8.
  EXPECT_DOUBLE_EQ(WorstCaseZoneFraction(loose->Cover(8), 8), 0.5);

  EXPECT_DOUBLE_EQ(WorstCaseZoneFraction(ClusterTopology(), 8), 1.0);
}

}  // namespace
}  // namespace silod
