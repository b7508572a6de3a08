// Unit tests for src/storage: token bucket, max-min sharing / remote store,
// storage fabric (Fig. 3) and the in-memory remote store.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/storage/fabric.h"
#include "src/storage/inmem_remote.h"
#include "src/storage/remote_store.h"
#include "src/storage/token_bucket.h"

namespace silod {
namespace {

// ------------------------------------------------------------ TokenBucket --

TEST(TokenBucket, BurstAdmitsImmediately) {
  TokenBucket bucket(MBps(10), MB(5));
  EXPECT_DOUBLE_EQ(bucket.TimeToAdmit(MB(5), 0.0), 0.0);
}

TEST(TokenBucket, RefillDelaysOversizeRequests) {
  TokenBucket bucket(MBps(10), MB(5));
  bucket.Consume(MB(5), 0.0);  // Drain the burst.
  // 2 MB needs 0.2 s of refill at 10 MB/s.
  EXPECT_NEAR(bucket.TimeToAdmit(MB(2), 0.0), 0.2, 1e-9);
}

TEST(TokenBucket, SustainedRateConverges) {
  TokenBucket bucket(MBps(10), MB(1));
  Seconds t = 0;
  const int kTransfers = 100;
  for (int i = 0; i < kTransfers; ++i) {
    t = bucket.TimeToAdmit(MB(1), t);
    bucket.Consume(MB(1), t);
  }
  // 100 MB at 10 MB/s ~ 10 s (minus the initial burst).
  EXPECT_NEAR(t, (kTransfers - 1) * 0.1, 0.2);
}

TEST(TokenBucket, SetRateTakesEffect) {
  TokenBucket bucket(MBps(10), MB(1));
  bucket.Consume(MB(1), 0.0);
  bucket.SetRate(MBps(100), 0.0);
  EXPECT_NEAR(bucket.TimeToAdmit(MB(1), 0.0), 0.01, 1e-9);
}

TEST(TokenBucket, TokensNeverExceedBurst) {
  TokenBucket bucket(MBps(10), MB(2));
  EXPECT_DOUBLE_EQ(bucket.TokensAt(100.0), static_cast<double>(MB(2)));
}

TEST(TokenBucket, UnlimitedRateAlwaysAdmits) {
  TokenBucket bucket(kUnlimitedRate, MB(1));
  bucket.Consume(MB(100), 0.0);
  EXPECT_DOUBLE_EQ(bucket.TimeToAdmit(MB(100), 0.0), 0.0);
}

// A scheduler tick re-rates the bucket while a loader holds a reservation at
// a future admit time (the RtCluster pattern: Consume at TimeToAdmit moves
// the bucket clock ahead of the wall clock).  The rate change must apply from
// the reservation point — crediting the in-flight interval at the new rate
// would mint tokens the old rate never granted.
TEST(TokenBucket, SetRateDuringInFlightReservation) {
  TokenBucket bucket(MBps(10), MB(1));
  const Seconds admit = bucket.TimeToAdmit(MB(2), 0.0);
  EXPECT_NEAR(admit, 0.1, 1e-9);  // 1 MB burst + 1 MB refill at 10 MB/s.
  bucket.Consume(MB(2), admit);   // Bucket clock now at 0.1, zero tokens.

  bucket.SetRate(MBps(20), /*now=*/0.05);  // Tick happened mid-reservation.
  EXPECT_DOUBLE_EQ(bucket.TokensAt(0.1), 0.0);  // No retroactive credit.
  // Accrual resumes from the reservation point at the new rate.
  EXPECT_NEAR(bucket.TimeToAdmit(MB(1), 0.1), 0.15, 1e-9);
}

TEST(TokenBucket, SetRateAccruesElapsedTimeAtOldRate) {
  TokenBucket bucket(MBps(10), MB(1));
  bucket.Consume(MB(1), 0.0);  // Drain; no reservation beyond t=0.
  bucket.SetRate(MBps(20), 0.05);
  // [0, 0.05) accrued at 10 MB/s = 0.5 MB; then 20 MB/s going forward.
  EXPECT_NEAR(bucket.TokensAt(0.05), static_cast<double>(MB(1)) / 2, 1.0);
  EXPECT_NEAR(bucket.TokensAt(0.06), 0.7 * static_cast<double>(MB(1)), 1.0);
}

// ------------------------------------------------------------ MaxMinShare --

// MaxMinShare's rates in a fresh vector; an empty `caps` caps no flow.
std::vector<BytesPerSec> MaxMinRates(const std::vector<BytesPerSec>& demands,
                                     const std::vector<BytesPerSec>& caps, BytesPerSec capacity) {
  std::vector<BytesPerSec> sorted;
  std::vector<BytesPerSec> rates;
  MaxMinShare(demands, caps, capacity, &sorted, &rates);
  return rates;
}
std::vector<BytesPerSec> MaxMinRates(const std::vector<BytesPerSec>& demands,
                                     BytesPerSec capacity) {
  return MaxMinRates(demands, {}, capacity);
}

TEST(MaxMinShare, UnderloadedGrantsDemands) {
  const auto rates = MaxMinRates({MBps(10), MBps(20)}, MBps(100));
  EXPECT_DOUBLE_EQ(rates[0], MBps(10));
  EXPECT_DOUBLE_EQ(rates[1], MBps(20));
}

TEST(MaxMinShare, OverloadedSplitsEvenly) {
  const auto rates = MaxMinRates({MBps(100), MBps(100)}, MBps(100));
  EXPECT_DOUBLE_EQ(rates[0], MBps(50));
  EXPECT_DOUBLE_EQ(rates[1], MBps(50));
}

TEST(MaxMinShare, SmallFlowsProtected) {
  // Classic max-min: {2, 8, 10} into 12 -> {2, 5, 5}.
  const auto rates = MaxMinRates({2, 8, 10}, 12);
  EXPECT_DOUBLE_EQ(rates[0], 2);
  EXPECT_DOUBLE_EQ(rates[1], 5);
  EXPECT_DOUBLE_EQ(rates[2], 5);
}

TEST(MaxMinShare, CapsBind) {
  const auto rates = MaxMinRates({100, 100}, {30, kUnlimitedRate}, 100);
  EXPECT_DOUBLE_EQ(rates[0], 30);
  EXPECT_DOUBLE_EQ(rates[1], 70);
}

TEST(MaxMinShare, InfiniteDemandsShareEqually) {
  const auto rates =
      MaxMinRates({kUnlimitedRate, kUnlimitedRate, kUnlimitedRate}, 90);
  for (double r : rates) {
    EXPECT_DOUBLE_EQ(r, 30);
  }
}

TEST(MaxMinShare, ZeroDemandGetsZero) {
  const auto rates = MaxMinRates({0, 50}, 100);
  EXPECT_DOUBLE_EQ(rates[0], 0);
  EXPECT_DOUBLE_EQ(rates[1], 50);
}

TEST(MaxMinShare, ConservationProperty) {
  // Property sweep: never exceed capacity; never exceed demand or cap.
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.NextBelow(10);
    std::vector<BytesPerSec> demands(n);
    std::vector<BytesPerSec> caps(n);
    for (std::size_t i = 0; i < n; ++i) {
      demands[i] = rng.Uniform(0, 100);
      caps[i] = rng.NextDouble() < 0.3 ? kUnlimitedRate : rng.Uniform(0, 50);
    }
    const double capacity = rng.Uniform(1, 200);
    const auto rates = MaxMinRates(demands, caps, capacity);
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(rates[i], demands[i] + 1e-9);
      EXPECT_LE(rates[i], caps[i] + 1e-9);
      total += rates[i];
    }
    EXPECT_LE(total, capacity + 1e-6);
    // Work conservation: if any flow is unsatisfied, capacity is exhausted.
    bool unsatisfied = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (rates[i] + 1e-9 < std::min(demands[i], caps[i])) {
        unsatisfied = true;
      }
    }
    if (unsatisfied) {
      EXPECT_NEAR(total, capacity, 1e-6);
    }
  }
}

// The progressive-filling loop as it stood before WaterLevel was split out,
// kept verbatim as the oracle of the lemma below.
std::vector<BytesPerSec> ReferenceMaxMinShare(const std::vector<BytesPerSec>& demands,
                                              const std::vector<BytesPerSec>& caps,
                                              BytesPerSec capacity) {
  const std::size_t n = demands.size();
  std::vector<BytesPerSec> rates(n, 0.0);
  std::vector<double> want(n);
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = std::min(demands[i], caps[i]);
  }
  double remaining = capacity;
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < n; ++i) {
    if (want[i] > 0) {
      active.push_back(i);
    }
  }
  std::sort(active.begin(), active.end(),
            [&](std::size_t a, std::size_t b) { return want[a] < want[b]; });
  std::size_t idx = 0;
  double level = 0.0;
  while (idx < active.size() && remaining > 0) {
    const std::size_t remaining_flows = active.size() - idx;
    const double next = want[active[idx]];
    const double step = next - level;
    const double fill = remaining / static_cast<double>(remaining_flows);
    if (std::isinf(next) || fill < step) {
      level += fill;
      remaining = 0;
      break;
    }
    level = next;
    remaining -= step * static_cast<double>(remaining_flows);
    while (idx < active.size() && want[active[idx]] <= level) {
      rates[active[idx]] = want[active[idx]];
      ++idx;
    }
  }
  for (std::size_t k = idx; k < active.size(); ++k) {
    rates[active[k]] = level;
  }
  return rates;
}

// The lemma the fine engine's incremental recompute rests on: every flow's
// max-min rate is min(want, L) for the one water level L of the sorted
// wants, bit for bit.  Seeded cases mix ties, zero wants, unlimited demands
// and caps, capacities of 0 and infinity, and capacities within 4 ulps of
// the finite wants' sum (where SiloD's throttles, which hand out all of the
// egress, put the fine engine most of the time).
TEST(MaxMinShare, RateIsWantCappedAtTheWaterLevel) {
  Rng rng(2027);
  int near_sum_cases = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t n = 1 + rng.NextBelow(trial % 4 == 0 ? 64 : 8);
    // A few shared values, so ties are common.
    const BytesPerSec tie_values[] = {rng.Uniform(0, 100), rng.Uniform(0, 100),
                                      std::floor(rng.Uniform(1, 20))};
    const auto draw = [&]() -> BytesPerSec {
      const std::uint64_t pick = rng.NextBelow(10);
      if (pick == 0) {
        return 0.0;
      }
      if (pick == 1) {
        return kUnlimitedRate;
      }
      if (pick < 6) {
        return tie_values[rng.NextBelow(3)];
      }
      return rng.Uniform(0, 100);
    };
    std::vector<BytesPerSec> demands(n);
    std::vector<BytesPerSec> caps(n);
    std::vector<BytesPerSec> wants(n);
    double finite_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      demands[i] = draw();
      caps[i] = draw();
      wants[i] = std::min(demands[i], caps[i]);
      if (std::isfinite(wants[i])) {
        finite_sum += wants[i];
      }
    }
    std::vector<double> capacities;
    switch (trial % 4) {
      case 0:
        capacities = {0.0, kUnlimitedRate};
        break;
      case 1:
        capacities = {rng.Uniform(0, 400)};
        break;
      default: {
        // The finite wants' sum and every capacity within 4 ulps of it.
        double below = finite_sum;
        for (int u = 0; u < 4; ++u) {
          below = std::nextafter(below, 0.0);
        }
        for (double c = below; capacities.size() < 9; c = std::nextafter(c, kUnlimitedRate)) {
          capacities.push_back(c);
        }
        near_sum_cases += finite_sum > 0;
        break;
      }
    }

    std::vector<BytesPerSec> sorted = wants;
    std::sort(sorted.begin(), sorted.end());
    for (const double capacity : capacities) {
      const std::vector<BytesPerSec> oracle = ReferenceMaxMinShare(demands, caps, capacity);
      const BytesPerSec level = WaterLevel(sorted, capacity);
      const std::vector<BytesPerSec> rates = MaxMinRates(demands, caps, capacity);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(oracle[i]),
                  std::bit_cast<std::uint64_t>(std::min(wants[i], level)))
            << "trial " << trial << " flow " << i << ": oracle " << oracle[i] << ", want "
            << wants[i] << ", level " << level << ", capacity " << capacity;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(oracle[i]),
                  std::bit_cast<std::uint64_t>(rates[i]))
            << "trial " << trial << " flow " << i << ", capacity " << capacity;
      }
    }
  }
  EXPECT_GT(near_sum_cases, 5000);
}

// ------------------------------------------------------------ RemoteStore --

TEST(RemoteStore, ThrottlesApply) {
  RemoteStore store(MBps(100));
  store.SetJobThrottle(0, MBps(10));
  EXPECT_EQ(store.JobThrottle(0), MBps(10));
}

TEST(RemoteStore, ClearThrottleRestoresUnlimited) {
  RemoteStore store(MBps(100));
  store.SetJobThrottle(3, MBps(1));
  store.ClearJobThrottle(3);
  EXPECT_TRUE(std::isinf(store.JobThrottle(3)));
}

// ---------------------------------------------------------- StorageFabric --

TEST(StorageFabric, SingleServerIsDiskBound) {
  StorageFabric fabric(FabricConfig{});
  EXPECT_DOUBLE_EQ(fabric.PerServerCacheReadRate(1), GBps(3.2));
}

TEST(StorageFabric, Fig3NearLinearScaling) {
  // Fig. 3: 8-A100 jobs demand 1923 MB/s per server; with 50 servers the
  // cluster still serves within ~10% of the linear-scaling reference.
  StorageFabric fabric(FabricConfig{});
  const BytesPerSec demand = MBps(1923);
  for (int n : {1, 10, 20, 30, 40, 50}) {
    const BytesPerSec cluster = fabric.ClusterCacheThroughput(n, demand);
    const BytesPerSec linear = fabric.LocalOnlyThroughput(n, demand);
    EXPECT_GE(cluster, 0.9 * linear) << n << " servers";
    EXPECT_LE(cluster, linear + 1.0);
  }
}

TEST(StorageFabric, PeerRateNeverAboveLocal) {
  StorageFabric fabric(FabricConfig{});
  EXPECT_LE(fabric.PerServerCacheReadRate(50), fabric.PerServerCacheReadRate(1));
}

TEST(StorageFabric, SlowNicBindsPeerReads) {
  // With a 10 GbE storage fabric the NIC, not the disk, bounds peer reads.
  FabricConfig config;
  config.nic_bw = Gbps(10);
  StorageFabric fabric(config);
  EXPECT_LT(fabric.PerServerCacheReadRate(50), fabric.PerServerCacheReadRate(1));
  EXPECT_NEAR(fabric.PerServerCacheReadRate(50),
              Gbps(10) / ((49.0 / 50.0) * 1.04), 1.0);
}

// --------------------------------------------------------- InMemRemoteStore --

TEST(InMemRemote, PayloadChecksumsMatch) {
  InMemRemoteStore store(GBps(10), MB(64));
  const Dataset d = MakeDataset(0, "x", MB(2), KB(512));
  store.RegisterDataset(d);
  Bytes served = 0;
  for (std::int64_t b = 0; b < d.num_blocks; ++b) {
    const auto data = store.TryReadBlock(0, b);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(data->size(), static_cast<std::size_t>(d.BlockBytes(b)));
    EXPECT_EQ(InMemRemoteStore::Checksum(*data),
              InMemRemoteStore::ExpectedChecksum(0, b, d.BlockBytes(b)));
    served += static_cast<Bytes>(data->size());
  }
  EXPECT_EQ(served, d.size);
}

TEST(InMemRemote, DistinctBlocksDistinctPayloads) {
  InMemRemoteStore store(GBps(10), MB(64));
  const Dataset d = MakeDataset(1, "x", MB(1), KB(256));
  store.RegisterDataset(d);
  const auto first = store.TryReadBlock(1, 0);
  const auto second = store.TryReadBlock(1, 1);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(InMemRemoteStore::Checksum(*first), InMemRemoteStore::Checksum(*second));
}

TEST(InMemRemote, EgressThrottleSlowsReads) {
  // 4 MB at 8 MB/s with a 1 MB burst -> at least ~0.3 s.
  InMemRemoteStore store(MBps(8), MB(1));
  const Dataset d = MakeDataset(0, "x", MB(4), MB(1));
  store.RegisterDataset(d);
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t b = 0; b < d.num_blocks; ++b) {
    EXPECT_TRUE(store.TryReadBlock(0, b).ok());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(elapsed, 0.3);
}

}  // namespace
}  // namespace silod
