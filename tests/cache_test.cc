// Unit and property tests for src/cache: item caches, analytic hit-ratio
// models (validated against the item-level simulations), cache manager,
// Quiver and CoorDL allocation models.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/analytic.h"
#include "src/cache/cache_manager.h"
#include "src/cache/coordl.h"
#include "src/cache/item_cache.h"
#include "src/cache/quiver.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/estimator/profiler.h"
#include "src/workload/model_zoo.h"

namespace silod {
namespace {

ItemKey Key(std::int64_t block) { return ItemKey{0, block}; }

// ---------------------------------------------------------- UniformItemCache

TEST(UniformItemCache, AdmitsUntilFullThenNever) {
  UniformItemCache cache(300);
  cache.Admit(Key(0), 100);
  cache.Admit(Key(1), 100);
  cache.Admit(Key(2), 100);
  cache.Admit(Key(3), 100);  // No room; dropped.
  EXPECT_EQ(cache.item_count(), 3u);
  EXPECT_EQ(cache.used_bytes(), 300);
  EXPECT_TRUE(cache.Contains(Key(0)));
  EXPECT_FALSE(cache.Contains(Key(3)));
}

TEST(UniformItemCache, NeverEvictsOnAccess) {
  UniformItemCache cache(200);
  cache.Admit(Key(0), 100);
  cache.Admit(Key(1), 100);
  for (int i = 0; i < 100; ++i) {
    cache.Access(Key(5));  // Misses do not perturb residency.
  }
  EXPECT_TRUE(cache.Contains(Key(0)));
  EXPECT_TRUE(cache.Contains(Key(1)));
}

TEST(UniformItemCache, ShrinkEvictsRandomly) {
  UniformItemCache cache(1000 * 100);
  for (std::int64_t i = 0; i < 1000; ++i) {
    cache.Admit(Key(i), 100);
  }
  Rng rng(1);
  cache.SetCapacity(500 * 100, &rng);
  EXPECT_EQ(cache.item_count(), 500u);
  EXPECT_LE(cache.used_bytes(), 500 * 100);
  // Survivors should span the key range (random, not prefix, eviction).
  int low = 0;
  int high = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    if (cache.Contains(Key(i))) {
      (i < 500 ? low : high) += 1;
    }
  }
  EXPECT_GT(low, 150);
  EXPECT_GT(high, 150);
}

TEST(UniformItemCache, DuplicateAdmitIsNoop) {
  UniformItemCache cache(300);
  cache.Admit(Key(0), 100);
  cache.Admit(Key(0), 100);
  EXPECT_EQ(cache.used_bytes(), 100);
}

// ------------------------------------------------------------- LruItemCache

TEST(LruItemCache, EvictsLeastRecentlyUsed) {
  LruItemCache cache(300);
  cache.Admit(Key(0), 100);
  cache.Admit(Key(1), 100);
  cache.Admit(Key(2), 100);
  cache.Access(Key(0));      // 0 is now MRU; 1 is LRU.
  cache.Admit(Key(3), 100);  // Evicts 1.
  EXPECT_TRUE(cache.Contains(Key(0)));
  EXPECT_FALSE(cache.Contains(Key(1)));
  EXPECT_TRUE(cache.Contains(Key(2)));
  EXPECT_TRUE(cache.Contains(Key(3)));
}

TEST(LruItemCache, OversizeItemRejected) {
  LruItemCache cache(100);
  cache.Admit(Key(0), 200);
  EXPECT_EQ(cache.item_count(), 0u);
}

TEST(LruItemCache, ShrinkEvictsFromTail) {
  LruItemCache cache(400);
  for (std::int64_t i = 0; i < 4; ++i) {
    cache.Admit(Key(i), 100);
  }
  cache.SetCapacity(200, nullptr);
  EXPECT_FALSE(cache.Contains(Key(0)));
  EXPECT_FALSE(cache.Contains(Key(1)));
  EXPECT_TRUE(cache.Contains(Key(2)));
  EXPECT_TRUE(cache.Contains(Key(3)));
}

// ------------------------------------------------------------- LfuItemCache

TEST(LfuItemCache, EvictsLeastFrequentlyUsed) {
  LfuItemCache cache(300);
  cache.Admit(Key(0), 100);
  cache.Admit(Key(1), 100);
  cache.Admit(Key(2), 100);
  cache.Access(Key(0));
  cache.Access(Key(0));
  cache.Access(Key(1));
  cache.Admit(Key(3), 100);  // Evicts 2 (freq 1).
  EXPECT_TRUE(cache.Contains(Key(0)));
  EXPECT_TRUE(cache.Contains(Key(1)));
  EXPECT_FALSE(cache.Contains(Key(2)));
  EXPECT_TRUE(cache.Contains(Key(3)));
}

TEST(LfuItemCache, TieBreakByRecency) {
  LfuItemCache cache(200);
  cache.Admit(Key(0), 100);
  cache.Admit(Key(1), 100);
  // Both freq 1; 0 was inserted first, so 0 is the LRU of the class.
  cache.Admit(Key(2), 100);
  EXPECT_FALSE(cache.Contains(Key(0)));
  EXPECT_TRUE(cache.Contains(Key(1)));
}

// --------------------------------------------------- Analytic vs simulation

// Simulates shuffled epoch scans against an item cache and returns the
// steady-state hit ratio (epochs after the first).
template <typename Cache>
double SimulateScanHitRatio(Cache& cache, std::int64_t num_items, int epochs,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> order(static_cast<std::size_t>(num_items));
  std::iota(order.begin(), order.end(), 0);
  std::int64_t hits = 0;
  std::int64_t accesses = 0;
  for (int e = 0; e < epochs; ++e) {
    rng.Shuffle(order);
    for (std::int64_t item : order) {
      const bool hit = cache.Access(Key(item));
      if (!hit) {
        cache.Admit(Key(item), 1);
      }
      if (e > 0) {  // Skip the cold first epoch.
        hits += hit ? 1 : 0;
        ++accesses;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(accesses);
}

TEST(Analytic, UniformHitRatioBasics) {
  EXPECT_DOUBLE_EQ(UniformHitRatio(GB(50), GB(100)), 0.5);
  EXPECT_DOUBLE_EQ(UniformHitRatio(GB(200), GB(100)), 1.0);
  EXPECT_DOUBLE_EQ(UniformHitRatio(0, GB(100)), 0.0);
}

TEST(Analytic, LruShuffledScanFormula) {
  EXPECT_DOUBLE_EQ(LruShuffledScanHitRatio(GB(100), GB(100)), 1.0);
  // 1 - t + t ln t at t = 0.5.
  EXPECT_NEAR(LruShuffledScanHitRatio(GB(50), GB(100)), 0.5 + 0.5 * std::log(0.5), 1e-12);
  EXPECT_DOUBLE_EQ(LruShuffledScanHitRatio(0, GB(100)), 0.0);
  // Small-cache asymptotics: ~ (c/d)^2 / 2.
  EXPECT_NEAR(LruShuffledScanHitRatio(GB(1), GB(100)), 0.5 * 0.01 * 0.01, 2e-5);
}

TEST(Analytic, LruScanHitMonotoneInFraction) {
  double prev = -1;
  for (double f = 0.0; f <= 1.0; f += 0.01) {
    const double h = LruScanHitFromFraction(f);
    EXPECT_GE(h, prev);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
    prev = h;
  }
}

TEST(Analytic, LruAlwaysBelowUniformWhenPartial) {
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const Bytes c = static_cast<Bytes>(frac * 1e9);
    EXPECT_LT(LruShuffledScanHitRatio(c, GB(1)), UniformHitRatio(c, GB(1)));
  }
}

// Property sweep: the closed-form LRU thrashing model matches an item-level
// LRU simulation across cache fractions.
class LruScanModelTest : public ::testing::TestWithParam<double> {};

TEST_P(LruScanModelTest, SimulationMatchesClosedForm) {
  const double frac = GetParam();
  const std::int64_t n = 2000;
  LruItemCache cache(static_cast<Bytes>(frac * static_cast<double>(n)));
  const double simulated = SimulateScanHitRatio(cache, n, 9, 1234);
  const double predicted = LruScanHitFromFraction(frac);
  EXPECT_NEAR(simulated, predicted, 0.03) << "cache fraction " << frac;
}

INSTANTIATE_TEST_SUITE_P(CacheFractions, LruScanModelTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

class UniformScanModelTest : public ::testing::TestWithParam<double> {};

TEST_P(UniformScanModelTest, SimulationMatchesClosedForm) {
  const double frac = GetParam();
  const std::int64_t n = 2000;
  UniformItemCache cache(static_cast<Bytes>(frac * static_cast<double>(n)));
  const double simulated = SimulateScanHitRatio(cache, n, 6, 99);
  EXPECT_NEAR(simulated, frac, 0.02) << "cache fraction " << frac;
}

INSTANTIATE_TEST_SUITE_P(CacheFractions, UniformScanModelTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

TEST(Analytic, SharedLruOccupancyConservation) {
  const std::vector<BytesPerSec> rates{MBps(114), MBps(10)};
  const std::vector<Bytes> sizes{GB(143), TB(1.46)};
  const SharedLruResult result = SharedLruModel(rates, sizes, GB(200));
  Bytes total = 0;
  for (Bytes b : result.resident_bytes) {
    total += b;
  }
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(GB(200)),
              static_cast<double>(GB(1)));
}

TEST(Analytic, SharedLruFavorsFastJobs) {
  // The §7.1.2 observation: fast jobs' items recirculate quicker and displace
  // slow jobs' items.
  const std::vector<BytesPerSec> rates{MBps(114), MBps(2)};
  const std::vector<Bytes> sizes{GB(500), GB(500)};
  const SharedLruResult result = SharedLruModel(rates, sizes, GB(200));
  EXPECT_GT(result.resident_bytes[0], 10 * result.resident_bytes[1]);
  EXPECT_GT(result.hit_ratio[0], result.hit_ratio[1]);
}

TEST(Analytic, SharedLruEverythingFits) {
  const SharedLruResult result =
      SharedLruModel({MBps(10), MBps(20)}, {GB(10), GB(20)}, GB(100));
  EXPECT_DOUBLE_EQ(result.hit_ratio[0], 1.0);
  EXPECT_DOUBLE_EQ(result.hit_ratio[1], 1.0);
}

TEST(Analytic, SharedLruSingleJobReducesToScanFormula) {
  const Bytes d = GB(100);
  for (double frac : {0.2, 0.5, 0.8}) {
    const Bytes c = static_cast<Bytes>(frac * static_cast<double>(d));
    const SharedLruResult result = SharedLruModel({MBps(100)}, {d}, c);
    EXPECT_NEAR(result.hit_ratio[0], LruShuffledScanHitRatio(c, d), 1e-6);
  }
}

// The shared-pool fluid model against a real two-stream LRU simulation: two
// jobs scanning different datasets at a 3:1 rate ratio through one pool.
TEST(Analytic, SharedLruModelMatchesTwoStreamSimulation) {
  const std::int64_t n_fast = 1500;
  const std::int64_t n_slow = 1500;
  const Bytes capacity = 1200;
  LruItemCache cache(capacity);
  Rng rng(4242);

  std::vector<std::int64_t> fast_order(static_cast<std::size_t>(n_fast));
  std::vector<std::int64_t> slow_order(static_cast<std::size_t>(n_slow));
  std::iota(fast_order.begin(), fast_order.end(), 0);
  std::iota(slow_order.begin(), slow_order.end(), 0);
  rng.Shuffle(fast_order);
  rng.Shuffle(slow_order);
  std::size_t fast_pos = 0;
  std::size_t slow_pos = 0;
  std::int64_t fast_hits = 0;
  std::int64_t fast_total = 0;
  std::int64_t slow_hits = 0;
  std::int64_t slow_total = 0;

  auto access = [&](DatasetId dataset, std::int64_t item) {
    const ItemKey key{dataset, item};
    if (cache.Access(key)) {
      return true;
    }
    cache.Admit(key, 1);
    return false;
  };
  // Interleave at a 3:1 rate; measure after a warm-up of 3 fast epochs.
  const std::int64_t steps = 40 * n_fast;
  for (std::int64_t step = 0; step < steps; ++step) {
    const bool warm = step > 9 * n_fast;
    for (int k = 0; k < 3; ++k) {
      if (fast_pos == fast_order.size()) {
        rng.Shuffle(fast_order);
        fast_pos = 0;
      }
      const bool hit = access(0, fast_order[fast_pos++]);
      if (warm) {
        fast_hits += hit;
        ++fast_total;
      }
    }
    if (slow_pos == slow_order.size()) {
      rng.Shuffle(slow_order);
      slow_pos = 0;
    }
    const bool hit = access(1, slow_order[slow_pos++]);
    if (warm) {
      slow_hits += hit;
      ++slow_total;
    }
  }

  const SharedLruResult model = SharedLruModel({3.0, 1.0}, {n_fast, n_slow}, capacity);
  const double fast_sim = static_cast<double>(fast_hits) / static_cast<double>(fast_total);
  const double slow_sim = static_cast<double>(slow_hits) / static_cast<double>(slow_total);
  EXPECT_NEAR(fast_sim, model.hit_ratio[0], 0.05);
  EXPECT_NEAR(slow_sim, model.hit_ratio[1], 0.05);
  // The qualitative §7.1.2 fact: the fast job dominates the pool.
  EXPECT_GT(fast_sim, slow_sim);
  EXPECT_GT(model.resident_bytes[0], model.resident_bytes[1]);
}

// ------------------------------------------------------------ CacheManager

class CacheManagerTest : public ::testing::Test {
 protected:
  CacheManagerTest() : manager_(GB(10)) {
    dataset_ = MakeDataset(0, "d0", GB(4), MB(100));   // 40 blocks.
    other_ = MakeDataset(1, "d1", GB(8), MB(100));     // 80 blocks.
  }
  CacheManager manager_;
  Dataset dataset_;
  Dataset other_;
};

TEST_F(CacheManagerTest, AllocationConservation) {
  EXPECT_TRUE(manager_.AllocateCacheSize(dataset_, GB(4)).ok());
  EXPECT_TRUE(manager_.AllocateCacheSize(other_, GB(6)).ok());
  // Pool is full: growing either fails.
  EXPECT_FALSE(manager_.AllocateCacheSize(other_, GB(7)).ok());
  // Shrinking one frees room for the other.
  EXPECT_TRUE(manager_.AllocateCacheSize(dataset_, GB(3)).ok());
  EXPECT_TRUE(manager_.AllocateCacheSize(other_, GB(7)).ok());
  EXPECT_EQ(manager_.total_allocated(), GB(10));
}

TEST_F(CacheManagerTest, UniformAdmissionUpToQuota) {
  ASSERT_TRUE(manager_.AllocateCacheSize(dataset_, GB(2)).ok());
  for (std::int64_t b = 0; b < dataset_.num_blocks; ++b) {
    EXPECT_FALSE(manager_.AccessBlock(dataset_, b));  // Cold.
  }
  EXPECT_EQ(manager_.CachedBytes(dataset_.id), GB(2));  // 20 of 40 blocks.
  int hits = 0;
  for (std::int64_t b = 0; b < dataset_.num_blocks; ++b) {
    hits += manager_.AccessBlock(dataset_, b) ? 1 : 0;
  }
  EXPECT_EQ(hits, 20);
}

TEST_F(CacheManagerTest, ShrinkEvictsToQuota) {
  ASSERT_TRUE(manager_.AllocateCacheSize(dataset_, GB(4)).ok());
  for (std::int64_t b = 0; b < dataset_.num_blocks; ++b) {
    manager_.AccessBlock(dataset_, b);
  }
  EXPECT_EQ(manager_.CachedBytes(dataset_.id), GB(4));
  ASSERT_TRUE(manager_.AllocateCacheSize(dataset_, GB(1)).ok());
  EXPECT_EQ(manager_.CachedBytes(dataset_.id), GB(1));
}

TEST_F(CacheManagerTest, DelayedEffectiveness) {
  ASSERT_TRUE(manager_.AllocateCacheSize(dataset_, GB(4)).ok());
  manager_.RegisterJob(7, dataset_);
  manager_.StartJobEpoch(7);
  // The job fetches (and caches) 10 blocks during its epoch.
  for (std::int64_t b = 0; b < 10; ++b) {
    manager_.AccessBlock(dataset_, b);
  }
  // Items cached during this epoch are not effective for it.
  EXPECT_EQ(manager_.EffectiveBytes(7), 0);
  // Next epoch: everything cached so far becomes effective.
  manager_.StartJobEpoch(7);
  EXPECT_EQ(manager_.EffectiveBytes(7), 10 * MB(100));
}

TEST_F(CacheManagerTest, SharingJobSeesPriorJobsBlocksAsEffective) {
  ASSERT_TRUE(manager_.AllocateCacheSize(dataset_, GB(4)).ok());
  manager_.RegisterJob(1, dataset_);
  manager_.StartJobEpoch(1);
  for (std::int64_t b = 0; b < 20; ++b) {
    manager_.AccessBlock(dataset_, b);
  }
  // Job 2 registers afterwards: the 20 blocks predate its first epoch.
  manager_.RegisterJob(2, dataset_);
  manager_.StartJobEpoch(2);
  EXPECT_EQ(manager_.EffectiveBytes(2), 20 * MB(100));
  EXPECT_EQ(manager_.EffectiveBytes(1), 0);
}

// The generation-array manager the residency bits replaced: one insertion
// generation per block (0 = absent), a dataset created on its first touch
// and never released, and effective bytes by the defining scan (resident
// blocks inserted no later than the job's epoch snapshot).  Only the calls
// ResidencyBitsMatchOracle makes.
class GenerationArrayOracle {
 public:
  GenerationArrayOracle(Bytes capacity, std::uint64_t seed) : capacity_(capacity), rng_(seed) {}

  Status AllocateCacheSize(const Dataset& dataset, Bytes cache_size) {
    State& state = Get(dataset);
    const Bytes delta = cache_size - state.quota;
    if (delta > 0 && allocated_ + delta > capacity_) {
      return Status::ResourceExhausted("over-committed");
    }
    allocated_ += delta;
    state.quota = cache_size;
    if (state.used > state.quota) {
      std::vector<std::int64_t> resident = Resident(state);
      rng_.Shuffle(resident);
      for (const std::int64_t block : resident) {
        if (state.used <= state.quota) {
          break;
        }
        Evict(state, block);
      }
    }
    return Status::Ok();
  }
  bool AccessBlock(const Dataset& dataset, std::int64_t block) {
    State& state = Get(dataset);
    if (state.gen[static_cast<std::size_t>(block)] != 0) {
      return true;
    }
    if (state.used + dataset.BlockBytes(block) <= state.quota) {
      Admit(state, block);
    }
    return false;
  }
  std::int64_t EvictRandomFraction(double fraction) {
    std::int64_t evicted = 0;
    for (auto& [id, state] : datasets_) {
      evicted += EvictDatasetFraction(id, fraction, nullptr);
    }
    return evicted;
  }
  std::int64_t EvictDatasetFraction(DatasetId id, double fraction, Bytes* bytes_evicted) {
    const auto it = datasets_.find(id);
    if (it == datasets_.end()) {
      return 0;
    }
    std::vector<std::int64_t> resident = Resident(it->second);
    rng_.Shuffle(resident);
    const auto count =
        static_cast<std::size_t>(static_cast<double>(resident.size()) * fraction + 0.5);
    for (std::size_t i = 0; i < count; ++i) {
      const Bytes bytes = Evict(it->second, resident[i]);
      if (bytes_evicted != nullptr) {
        *bytes_evicted += bytes;
      }
    }
    return static_cast<std::int64_t>(count);
  }
  Status RestoreCachedBlocks(const Dataset& dataset, const std::vector<std::int64_t>& blocks) {
    State& state = Get(dataset);
    for (const std::int64_t block : blocks) {
      if (block < 0 || block >= dataset.num_blocks) {
        return Status::InvalidArgument("restored block out of range");
      }
      if (state.gen[static_cast<std::size_t>(block)] == 0 &&
          state.used + dataset.BlockBytes(block) <= state.quota) {
        Admit(state, block);
      }
    }
    return Status::Ok();
  }
  void RegisterJob(JobId job, const Dataset& dataset) {
    Get(dataset);
    jobs_[job] = {dataset.id, generation_};
  }
  void UnregisterJob(JobId job) { jobs_.erase(job); }
  void StartJobEpoch(JobId job) { jobs_.at(job).second = generation_; }

  Bytes EffectiveBytes(JobId job) const {
    const auto& [id, epoch_generation] = jobs_.at(job);
    const State& state = datasets_.at(id);
    Bytes effective = 0;
    for (std::size_t b = 0; b < state.gen.size(); ++b) {
      if (state.gen[b] != 0 && state.gen[b] <= epoch_generation) {
        effective += state.dataset.BlockBytes(static_cast<std::int64_t>(b));
      }
    }
    return effective;
  }
  bool IsCached(DatasetId id, std::int64_t block) const {
    const auto it = datasets_.find(id);
    return it != datasets_.end() && block >= 0 && block < it->second.dataset.num_blocks &&
           it->second.gen[static_cast<std::size_t>(block)] != 0;
  }
  std::vector<std::int64_t> CachedBlocks(DatasetId id) const {
    const auto it = datasets_.find(id);
    return it == datasets_.end() ? std::vector<std::int64_t>{} : Resident(it->second);
  }
  Bytes CachedBytes(DatasetId id) const {
    const auto it = datasets_.find(id);
    return it == datasets_.end() ? 0 : it->second.used;
  }
  Bytes Allocation(DatasetId id) const {
    const auto it = datasets_.find(id);
    return it == datasets_.end() ? 0 : it->second.quota;
  }
  Bytes total_allocated() const { return allocated_; }
  const Rng& eviction_rng() const { return rng_; }

 private:
  struct State {
    Dataset dataset;
    Bytes quota = 0;
    Bytes used = 0;
    std::vector<std::uint64_t> gen;
  };
  State& Get(const Dataset& dataset) {
    auto [it, inserted] = datasets_.try_emplace(dataset.id);
    if (inserted) {
      it->second.dataset = dataset;
      it->second.gen.assign(static_cast<std::size_t>(dataset.num_blocks), 0);
    }
    return it->second;
  }
  static std::vector<std::int64_t> Resident(const State& state) {
    std::vector<std::int64_t> blocks;
    for (std::size_t b = 0; b < state.gen.size(); ++b) {
      if (state.gen[b] != 0) {
        blocks.push_back(static_cast<std::int64_t>(b));
      }
    }
    return blocks;
  }
  void Admit(State& state, std::int64_t block) {
    state.gen[static_cast<std::size_t>(block)] = ++generation_;
    state.used += state.dataset.BlockBytes(block);
  }
  Bytes Evict(State& state, std::int64_t block) {
    state.gen[static_cast<std::size_t>(block)] = 0;
    const Bytes bytes = state.dataset.BlockBytes(block);
    state.used -= bytes;
    return bytes;
  }

  Bytes capacity_;
  Bytes allocated_ = 0;
  std::uint64_t generation_ = 0;
  Rng rng_;
  std::map<DatasetId, State> datasets_;
  std::map<JobId, std::pair<DatasetId, std::uint64_t>> jobs_;  // Dataset, epoch generation.
};

TEST(CacheManager, ResidencyBitsMatchOracle) {
  // Word-boundary sizes; the 65-block dataset ends in a short block.
  std::vector<Dataset> datasets;
  for (const std::int64_t blocks : {1, 63, 64, 65, 130}) {
    const Bytes size = blocks == 65 ? 64 * MB(1) + KB(100) : blocks * MB(1);
    datasets.push_back(MakeDataset(static_cast<DatasetId>(datasets.size()),
                                   "d" + std::to_string(blocks), size, MB(1)));
  }
  constexpr int kJobs = 6;
  int releases = 0;
  int recreations = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CacheManager manager(MB(200), seed);
    GenerationArrayOracle oracle(MB(200), seed);
    Rng ops(seed + 100);
    std::vector<int> job_dataset(kJobs, -1);  // -1: not registered.
    std::vector<bool> released(datasets.size(), false);
    for (int step = 0; step < 3000; ++step) {
      const Dataset& d = datasets[ops.NextBelow(datasets.size())];
      const auto job = static_cast<JobId>(ops.NextBelow(kJobs));
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step) + " on " +
                   d.name);
      const std::int64_t slots_before = manager.block_slots();
      const std::uint64_t op = ops.NextBelow(100);
      if (op < 55) {
        const auto block = static_cast<std::int64_t>(ops.NextBelow(d.num_blocks));
        ASSERT_EQ(manager.AccessBlock(d, block), oracle.AccessBlock(d, block));
      } else if (op < 72) {
        // Quota 0 a third of the time: shrinks to nothing and regrowth.
        const Bytes quota = ops.NextBelow(3) == 0
                                ? 0
                                : static_cast<Bytes>(ops.NextBelow(
                                      static_cast<std::uint64_t>(d.size) + 1));
        ASSERT_EQ(manager.AllocateCacheSize(d, quota).ok(),
                  oracle.AllocateCacheSize(d, quota).ok());
      } else if (op < 78) {
        const double fraction = ops.NextDouble();
        Bytes got = 0;
        Bytes want = 0;
        ASSERT_EQ(manager.EvictDatasetFraction(d.id, fraction, &got),
                  oracle.EvictDatasetFraction(d.id, fraction, &want));
        ASSERT_EQ(got, want);
      } else if (op < 80) {
        const double fraction = ops.NextDouble();
        ASSERT_EQ(manager.EvictRandomFraction(fraction), oracle.EvictRandomFraction(fraction));
      } else if (op < 85) {
        std::vector<std::int64_t> blocks;
        for (std::int64_t b = 0; b < d.num_blocks; ++b) {
          if (ops.NextBelow(2) == 0) {
            blocks.push_back(b);
          }
        }
        ASSERT_EQ(manager.RestoreCachedBlocks(d, blocks).ok(),
                  oracle.RestoreCachedBlocks(d, blocks).ok());
      } else if (job_dataset[static_cast<std::size_t>(job)] < 0) {
        manager.RegisterJob(job, d);
        oracle.RegisterJob(job, d);
        job_dataset[static_cast<std::size_t>(job)] = d.id;
      } else if (op < 93) {
        manager.UnregisterJob(job);
        oracle.UnregisterJob(job);
        job_dataset[static_cast<std::size_t>(job)] = -1;
      } else {
        manager.StartJobEpoch(job);
        oracle.StartJobEpoch(job);
      }
      if (manager.block_slots() < slots_before) {
        ++releases;
        released[static_cast<std::size_t>(d.id)] = true;
      } else if (manager.block_slots() > slots_before && released[static_cast<std::size_t>(d.id)]) {
        ++recreations;
      }
      for (const Dataset& each : datasets) {
        for (std::int64_t b = -1; b <= each.num_blocks; ++b) {
          ASSERT_EQ(manager.IsCached(each.id, b), oracle.IsCached(each.id, b)) << each.name;
        }
        ASSERT_EQ(manager.CachedBlocks(each.id), oracle.CachedBlocks(each.id)) << each.name;
        ASSERT_EQ(manager.CachedBytes(each.id), oracle.CachedBytes(each.id)) << each.name;
        ASSERT_EQ(manager.Allocation(each.id), oracle.Allocation(each.id)) << each.name;
      }
      for (JobId j = 0; j < kJobs; ++j) {
        if (job_dataset[static_cast<std::size_t>(j)] >= 0) {
          ASSERT_EQ(manager.EffectiveBytes(j), oracle.EffectiveBytes(j)) << "job " << j;
        }
      }
      ASSERT_EQ(manager.total_allocated(), oracle.total_allocated());
      ASSERT_EQ(manager.eviction_rng().state(), oracle.eviction_rng().state());
    }
  }
  // The mix released idle datasets and re-created released ones.
  EXPECT_GT(releases, 50);
  EXPECT_GT(recreations, 50);
}

// ----------------------------------------------------------------- Quiver --

TEST(Quiver, RanksByBenefitAndCachesWholeDatasets) {
  std::vector<QuiverCandidate> candidates{
      {0, GB(143), 0.8}, {1, TB(1.3), 0.09}, {2, TB(20.9), 9.5e-5}};
  const auto alloc = QuiverAllocate(candidates, TB(1.5));
  EXPECT_EQ(alloc.at(0), GB(143));   // Best benefit, fits.
  EXPECT_EQ(alloc.at(1), TB(1.3));   // Next, fits in the remainder.
  EXPECT_EQ(alloc.count(2), 0u);     // 20.9 TB never fits.
}

TEST(Quiver, SkipsDatasetThatDoesNotFitWhole) {
  // §7.1.1: with 2 TB, Quiver caches one 1.3 TB dataset and wastes the
  // remaining 0.7 TB rather than partially caching the next one.
  std::vector<QuiverCandidate> candidates{{0, TB(1.3), 0.5}, {1, TB(1.3), 0.4}};
  const auto alloc = QuiverAllocate(candidates, TB(2.0));
  EXPECT_EQ(alloc.at(0), TB(1.3));
  EXPECT_EQ(alloc.count(1), 0u);
  Bytes total = 0;
  for (const auto& [id, b] : alloc) {
    total += b;
  }
  EXPECT_EQ(total, TB(1.3));  // 0.7 TB wasted.
}

TEST(Quiver, NoisyRankingCanMisorder) {
  // With close benefits and noisy measurements the ranking can invert — the
  // instability the paper attributes Quiver's wrong evictions to.
  OnlineBenefitProfiler profiler(0.25, 3);
  int inversions = 0;
  for (int i = 0; i < 1000; ++i) {
    const double a = profiler.MeasureBenefit(0.50);
    const double b = profiler.MeasureBenefit(0.45);
    inversions += b > a ? 1 : 0;
  }
  EXPECT_GT(inversions, 100);
  EXPECT_LT(inversions, 900);
}

// ----------------------------------------------------------------- CoorDL --

TEST(CoorDl, StaticPartitionByGpuShare) {
  const ModelZoo zoo;
  DatasetCatalog catalog;
  const DatasetId web = catalog.Add("WebSearch", TB(20.9), MB(64));
  const DatasetId img = catalog.Add("img", TB(1.3), MB(64));
  const JobSpec bert = MakeJob(0, zoo, "BERT", 4, web, Hours(1), 0);
  const JobSpec resnet = MakeJob(1, zoo, "ResNet-50", 1, img, Hours(1), 0);
  // §7.1.1: in the 2 TB / 8 GPU micro-benchmark CoorDL hands the 4-GPU BERT
  // job half the pool.
  EXPECT_EQ(CoorDlStaticCache(bert, TB(2), 8), TB(1));
  EXPECT_EQ(CoorDlStaticCache(resnet, TB(2), 8), GB(250));
}

}  // namespace
}  // namespace silod
