// Tests for the fault-injection subsystem (src/fault) and its consumers:
// plan parsing/generation, the injector cursor, the cache/storage fault
// mechanics, recovery fixpoints, and the paper's §6 claim that failures under
// both simulation engines cost performance but never correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/cache_manager.h"
#include "src/common/digest.h"
#include "src/common/topology.h"
#include "src/common/units.h"
#include "src/core/recovery.h"
#include "src/core/system.h"
#include "src/core/data_manager.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/fault/restart_cost.h"
#include "src/storage/inmem_remote.h"

namespace silod {
namespace {

// ------------------------------------------------------------- FaultPlan --

TEST(FaultPlan, ParseExpandsDurationsIntoPairedEvents) {
  const Result<FaultPlan> plan = FaultPlan::Parse(
      "server-crash t=600 server=2 down=900; "
      "degrade t=100 factor=0.25 err=0.1 for=50; "
      "worker-crash t=10 job=3; "
      "dm-restart t=40");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events.size(), 7u);  // Each duration adds its closing event.

  // Sorted by time: worker-crash(10), dm(40), worker-restart(70, default 60s
  // delay), degrade(100), degrade-end(150), crash(600), recover(1500).
  EXPECT_EQ(plan->events[0].kind, FaultKind::kWorkerCrash);
  EXPECT_EQ(plan->events[0].target, 3);
  EXPECT_EQ(plan->events[1].kind, FaultKind::kDataManagerRestart);
  EXPECT_EQ(plan->events[2].kind, FaultKind::kWorkerRestart);
  EXPECT_DOUBLE_EQ(plan->events[2].time, 70.0);
  EXPECT_EQ(plan->events[3].kind, FaultKind::kRemoteDegrade);
  EXPECT_DOUBLE_EQ(plan->events[3].severity, 0.25);
  EXPECT_DOUBLE_EQ(plan->events[3].error_rate, 0.1);
  EXPECT_EQ(plan->events[4].kind, FaultKind::kRemoteDegrade);
  EXPECT_DOUBLE_EQ(plan->events[4].severity, 1.0);  // Window closes.
  EXPECT_DOUBLE_EQ(plan->events[4].error_rate, 0.0);
  EXPECT_EQ(plan->events[5].kind, FaultKind::kCacheServerCrash);
  EXPECT_EQ(plan->events[5].target, 2);
  EXPECT_EQ(plan->events[6].kind, FaultKind::kCacheServerRecover);
  EXPECT_DOUBLE_EQ(plan->events[6].time, 1500.0);
}

TEST(FaultPlan, SpecRoundTripIsIdentity) {
  const Result<FaultPlan> plan = FaultPlan::Parse(
      "worker-crash t=5 job=1 restart=0; degrade t=20 factor=0.5; "
      "server-recover t=30 server=0; dm-restart t=45");
  ASSERT_TRUE(plan.ok());
  const Result<FaultPlan> reparsed = FaultPlan::Parse(plan->ToSpec());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->events, plan->events);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  const struct {
    const char* spec;
    const char* why;
  } kBad[] = {
      {"explode t=5", "unknown kind"},
      {"degrade factor=0.5", "missing t"},
      {"server-crash t=5", "missing server"},
      {"worker-crash t=5", "missing job"},
      {"degrade t=5 factor=0", "factor below (0,1]"},
      {"degrade t=5 factor=1.5", "factor above (0,1]"},
      {"degrade t=5 err=1", "err outside [0,1)"},
      {"degrade t=5 err=-0.1", "negative err"},
      {"dm-restart t=abc", "non-numeric value"},
      {"dm-restart time=5", "unknown key"},
      {"dm-restart t", "token without ="},
      {"server-crash t=5 server=1.7", "fractional server id"},
      {"worker-crash t=5 job=2.9", "fractional job id"},
      {"server-crash t=5 server=1x", "trailing junk on server id"},
      {"dm-restart t=nan", "non-finite time"},
      {"degrade t=5 factor=inf", "non-finite factor"},
  };
  for (const auto& c : kBad) {
    EXPECT_FALSE(FaultPlan::Parse(c.spec).ok()) << c.why << ": " << c.spec;
  }
  // Empty and whitespace-only specs are valid empty plans.
  EXPECT_TRUE(FaultPlan::Parse("").ok());
  EXPECT_TRUE(FaultPlan::Parse(" ; ; ").ok());
}

TEST(FaultPlan, ToSpecParsesBackToTheGeneratedPlan) {
  FaultChurnOptions options;
  options.seed = 7;
  options.num_servers = 4;
  options.num_jobs = 10;
  options.server_crashes_per_hour = 2;
  options.worker_crashes_per_hour = 1;
  options.degrade_windows_per_hour = 1;
  const FaultPlan plan = GenerateFaultPlan(options);
  ASSERT_GT(plan.events.size(), 100u);
  const Result<FaultPlan> reparsed = FaultPlan::Parse(plan.ToSpec());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->events, plan.events);
}

TEST(FaultPlan, GeneratedChurnIsDeterministicInSeed) {
  FaultChurnOptions options;
  options.horizon = Hours(6);
  options.server_crashes_per_hour = 2;
  options.worker_crashes_per_hour = 3;
  options.degrade_windows_per_hour = 1;
  options.dm_restarts_per_hour = 0.5;
  options.num_servers = 4;
  options.num_jobs = 10;
  options.seed = 42;

  const FaultPlan a = GenerateFaultPlan(options);
  const FaultPlan b = GenerateFaultPlan(options);
  EXPECT_EQ(a.events, b.events);
  EXPECT_FALSE(a.empty());

  options.seed = 43;
  const FaultPlan c = GenerateFaultPlan(options);
  EXPECT_NE(a.events, c.events);

  // Events are sorted, targets in range, every crash has its paired closer.
  int opens = 0;
  int closes = 0;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(a.events[i - 1].time, a.events[i].time);
    }
    const FaultEvent& e = a.events[i];
    switch (e.kind) {
      case FaultKind::kCacheServerCrash:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, options.num_servers);
        ++opens;
        break;
      case FaultKind::kWorkerCrash:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, options.num_jobs);
        ++opens;
        break;
      case FaultKind::kCacheServerRecover:
      case FaultKind::kWorkerRestart:
        ++closes;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(opens, closes);
}

TEST(FaultPlan, RaisingOneRateDoesNotPerturbOtherStreams) {
  FaultChurnOptions options;
  options.horizon = Hours(6);
  options.server_crashes_per_hour = 2;
  options.seed = 7;
  const FaultPlan base = GenerateFaultPlan(options);

  options.dm_restarts_per_hour = 3;
  const FaultPlan with_dm = GenerateFaultPlan(options);

  auto server_times = [](const FaultPlan& plan) {
    std::vector<Seconds> times;
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kCacheServerCrash) {
        times.push_back(e.time);
      }
    }
    return times;
  };
  EXPECT_EQ(server_times(base), server_times(with_dm));
}

// A churn plan the generator could not finish is refused up front: a NaN,
// negative or infinite rate (per category or per zone) or horizon, and rates
// whose expected arrivals pass the cap.  At 1e300 crashes/hour the gap drawn
// between arrivals no longer advances `t`, so the generator used to spin.
TEST(FaultPlan, ChurnOptionsRejectRatesNoPlanCanBeDrawnFrom) {
  FaultChurnOptions ok;
  ok.horizon = Hours(24);
  ok.server_crashes_per_hour = 4;
  ok.zones.push_back(ZoneChurn{});
  ok.zones.back().zone = FaultZone{"rack0", 0, 1};
  ok.zones.back().crashes_per_hour = 1;
  EXPECT_TRUE(ValidateFaultChurnOptions(ok).ok());
  EXPECT_TRUE(ValidateFaultChurnOptions(FaultChurnOptions{}).ok());

  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<const char*, FaultChurnOptions>> bad;
  for (const double rate : {kNan, kInf, -1.0, 1e300}) {
    FaultChurnOptions o = ok;
    o.worker_crashes_per_hour = rate;
    bad.emplace_back("worker rate", o);
    o = ok;
    o.zones.back().crashes_per_hour = rate;
    bad.emplace_back("zone rate", o);
  }
  for (const Seconds horizon : {kNan, kInf, -1.0}) {
    FaultChurnOptions o = ok;
    o.horizon = horizon;
    bad.emplace_back("horizon", o);
  }
  FaultChurnOptions dense = ok;  // Each rate fine alone; together past the cap.
  dense.server_crashes_per_hour = kMaxExpectedFaultEvents / 24 * 0.6;
  dense.dm_restarts_per_hour = kMaxExpectedFaultEvents / 24 * 0.6;
  bad.emplace_back("summed rates", dense);
  for (const auto& [what, options] : bad) {
    const Status st = ValidateFaultChurnOptions(options);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  }
}

// --------------------------------------------------- Failure domains (§6) --

TEST(FaultPlan, ZoneCrashExpandsToStaggeredPrimitives) {
  const Result<FaultPlan> plan = FaultPlan::Parse(
      "zone name=rackA servers=2-4; "
      "zone-crash t=100 zone=rackA down=60 stagger=10; "
      "degrade anchor=rackA t=5 factor=0.5 for=30");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events.size(), 8u);

  // The whole domain goes down at one timestamp.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plan->events[i].kind, FaultKind::kCacheServerCrash);
    EXPECT_DOUBLE_EQ(plan->events[i].time, 100.0);
    EXPECT_EQ(plan->events[i].target, 2 + i);
  }
  // Recoveries stagger per member: 160, 170, 180; the anchored degrade opens
  // at first-recovery + 5 = 165 and closes 30 s later.
  EXPECT_EQ(plan->events[3].kind, FaultKind::kCacheServerRecover);
  EXPECT_DOUBLE_EQ(plan->events[3].time, 160.0);
  EXPECT_EQ(plan->events[3].target, 2);
  EXPECT_EQ(plan->events[4].kind, FaultKind::kRemoteDegrade);
  EXPECT_DOUBLE_EQ(plan->events[4].time, 165.0);
  EXPECT_DOUBLE_EQ(plan->events[4].severity, 0.5);
  EXPECT_EQ(plan->events[5].kind, FaultKind::kCacheServerRecover);
  EXPECT_DOUBLE_EQ(plan->events[5].time, 170.0);
  EXPECT_EQ(plan->events[6].kind, FaultKind::kCacheServerRecover);
  EXPECT_DOUBLE_EQ(plan->events[6].time, 180.0);
  EXPECT_EQ(plan->events[7].kind, FaultKind::kRemoteDegrade);
  EXPECT_DOUBLE_EQ(plan->events[7].time, 195.0);
  EXPECT_DOUBLE_EQ(plan->events[7].severity, 1.0);

  // Zones are parse-time sugar: the expanded plan contains only primitive
  // events, so the spec round-trip stays the identity.
  const Result<FaultPlan> reparsed = FaultPlan::Parse(plan->ToSpec());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->events, plan->events);
}

TEST(FaultPlan, ZonalParseRejectsMalformedSpecs) {
  const struct {
    const char* spec;
    const char* why;
  } kBad[] = {
      {"zone-crash t=5 zone=x", "undeclared zone"},
      {"zone name=a", "zone missing servers"},
      {"zone servers=0-1", "zone missing name"},
      {"zone name=a servers=0-1; zone name=a servers=2-3", "duplicate zone"},
      {"zone name=a servers=3-1", "inverted range"},
      {"zone name=a servers=0", "not a range"},
      {"zone name=a servers=0-1; zone-crash zone=a", "zone-crash missing t"},
      {"zone name=a servers=0-1; degrade anchor=a factor=0.5",
       "anchor without a prior zone-crash"},
      {"zone name=a servers=0-1; zone-crash t=5 zone=a; degrade anchor=a factor=0.5",
       "anchor without down> 0 (no recovery instant)"},
  };
  for (const auto& c : kBad) {
    EXPECT_FALSE(FaultPlan::Parse(c.spec).ok()) << c.why << ": " << c.spec;
  }
  // A bare zone declaration is a valid (empty) plan.
  EXPECT_TRUE(FaultPlan::Parse("zone name=a servers=0-1").ok());
}

TEST(FaultPlan, ZoneChurnStreamsAreIsolated) {
  FaultChurnOptions options;
  options.horizon = Hours(12);
  options.num_servers = 8;
  options.seed = 3;
  ZoneChurn a;
  a.zone = FaultZone{"a", 0, 1};
  a.crashes_per_hour = 2;
  ZoneChurn b;
  b.zone = FaultZone{"b", 2, 3};
  b.crashes_per_hour = 2;
  options.zones = {a, b};
  const FaultPlan base = GenerateFaultPlan(options);
  EXPECT_FALSE(base.empty());

  auto crash_times = [](const FaultPlan& plan, int lo, int hi) {
    std::vector<Seconds> times;
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kCacheServerCrash && e.target >= lo && e.target <= hi) {
        times.push_back(e.time);
      }
    }
    return times;
  };

  // Zone crashes are correlated: both members go down at the same instant.
  const std::vector<Seconds> a_times = crash_times(base, 0, 1);
  ASSERT_FALSE(a_times.empty());
  ASSERT_EQ(a_times.size() % 2, 0u);
  for (std::size_t i = 0; i < a_times.size(); i += 2) {
    EXPECT_DOUBLE_EQ(a_times[i], a_times[i + 1]);
  }

  // Raising zone b's rate leaves zone a's event times untouched.
  options.zones[1].crashes_per_hour = 6;
  const FaultPlan more_b = GenerateFaultPlan(options);
  EXPECT_EQ(crash_times(base, 0, 1), crash_times(more_b, 0, 1));
  EXPECT_NE(crash_times(base, 2, 3), crash_times(more_b, 2, 3));

  // Replays are bit-deterministic.
  const FaultPlan replay = GenerateFaultPlan(options);
  EXPECT_EQ(more_b.events, replay.events);
}

TEST(FaultPlan, AddingZonesDoesNotPerturbIndependentStreams) {
  FaultChurnOptions options;
  options.horizon = Hours(12);
  options.server_crashes_per_hour = 2;
  options.worker_crashes_per_hour = 2;
  options.num_servers = 4;
  options.num_jobs = 8;
  options.seed = 7;
  const FaultPlan base = GenerateFaultPlan(options);

  // Zone targets live outside the independent stream's 0..3 range, so the
  // two sources are distinguishable by target.
  ZoneChurn zone;
  zone.zone = FaultZone{"annex", 10, 11};
  zone.crashes_per_hour = 4;
  options.zones.push_back(zone);
  const FaultPlan with_zone = GenerateFaultPlan(options);

  auto independent_crashes = [](const FaultPlan& plan) {
    std::vector<std::pair<Seconds, int>> events;
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kCacheServerCrash && e.target < 4) {
        events.emplace_back(e.time, e.target);
      }
    }
    return events;
  };
  EXPECT_EQ(independent_crashes(base), independent_crashes(with_zone));
  EXPECT_GT(with_zone.events.size(), base.events.size());
}

TEST(FaultPlan, ParseZoneChurnSpecReadsFieldsAndDefaults) {
  const Result<std::vector<ZoneChurn>> zones = ParseZoneChurnSpec(
      "zone=rack0:servers=0-3:crashes-per-hour=1.5:down=120:stagger=15:"
      "degrade-factor=0.5:degrade-err=0.05:degrade-for=300; zone=rack1:servers=4-7");
  ASSERT_TRUE(zones.ok()) << zones.status().ToString();
  ASSERT_EQ(zones->size(), 2u);
  EXPECT_EQ((*zones)[0].zone, (FaultZone{"rack0", 0, 3}));
  EXPECT_DOUBLE_EQ((*zones)[0].crashes_per_hour, 1.5);
  EXPECT_DOUBLE_EQ((*zones)[0].downtime, 120.0);
  EXPECT_DOUBLE_EQ((*zones)[0].recovery_stagger, 15.0);
  EXPECT_DOUBLE_EQ((*zones)[0].recovery_degrade_factor, 0.5);
  EXPECT_DOUBLE_EQ((*zones)[0].recovery_degrade_error_rate, 0.05);
  EXPECT_DOUBLE_EQ((*zones)[0].recovery_degrade_duration, 300.0);
  EXPECT_EQ((*zones)[1].zone, (FaultZone{"rack1", 4, 7}));
  EXPECT_DOUBLE_EQ((*zones)[1].crashes_per_hour, 0.0);
  EXPECT_DOUBLE_EQ((*zones)[1].recovery_degrade_factor, 1.0);

  EXPECT_TRUE(ParseZoneChurnSpec("")->empty());
  EXPECT_FALSE(ParseZoneChurnSpec("servers=0-3").ok());
  EXPECT_FALSE(ParseZoneChurnSpec("zone=a:servers=0-3:bogus=1").ok());
  EXPECT_FALSE(ParseZoneChurnSpec("zone=a:servers=3-1").ok());
  EXPECT_FALSE(ParseZoneChurnSpec("zone=a:servers=0-3:degrade-factor=2").ok());
}

// ------------------------------------------------------------ RestartCost --

TEST(RestartCostSpec, ParseToSpecRoundTrip) {
  for (const char* spec :
       {"checkpoint-everything", "lose-partial-epoch", "checkpoint-interval:12"}) {
    const Result<RestartCost> cost = RestartCost::Parse(spec);
    ASSERT_TRUE(cost.ok()) << spec;
    EXPECT_EQ(cost->ToSpec(), spec);
    EXPECT_EQ(*RestartCost::Parse(cost->ToSpec()), *cost);
  }
  EXPECT_EQ(RestartCost::Parse("")->policy, RestartCostPolicy::kCheckpointEverything);
  EXPECT_EQ(RestartCost::Parse("checkpoint-interval:12")->interval_blocks, 12);
  EXPECT_FALSE(RestartCost::Parse("lose-everything").ok());
  EXPECT_FALSE(RestartCost::Parse("checkpoint-interval:0").ok());
  EXPECT_FALSE(RestartCost::Parse("checkpoint-interval:-3").ok());
  EXPECT_FALSE(RestartCost::Parse("checkpoint-interval:abc").ok());
}

// --------------------------------------------------------- FaultInjector --

TEST(FaultInjector, CursorDrainsInTimeOrder) {
  const Result<FaultPlan> plan =
      FaultPlan::Parse("dm-restart t=10; dm-restart t=20; dm-restart t=30");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan);

  EXPECT_FALSE(injector.exhausted());
  EXPECT_DOUBLE_EQ(injector.NextTime(), 10.0);

  std::vector<FaultEvent> due;
  injector.PopDue(5.0, &due);
  EXPECT_TRUE(due.empty());

  injector.PopDue(20.0, &due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_DOUBLE_EQ(due[0].time, 10.0);
  EXPECT_DOUBLE_EQ(due[1].time, 20.0);
  EXPECT_EQ(injector.injected(), 2);
  EXPECT_DOUBLE_EQ(injector.NextTime(), 30.0);

  due.clear();
  injector.PopDue(kInfiniteTime, &due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_TRUE(injector.exhausted());
  EXPECT_EQ(injector.NextTime(), kInfiniteTime);
}

TEST(FaultInjector, EmptyPlanIsExhaustedFromBirth) {
  FaultInjector injector(FaultPlan{});
  EXPECT_TRUE(injector.exhausted());
  EXPECT_EQ(injector.NextTime(), kInfiniteTime);
}

// ---------------------------------------------- CacheManager fault hooks --

TEST(CacheManagerFaults, EvictRandomFractionDropsAboutThatShare) {
  DatasetCatalog catalog;
  const DatasetId id = catalog.Add("d", MB(100), MB(1));  // 100 blocks.
  const Dataset& d = catalog.Get(id);
  CacheManager cache(MB(100));
  ASSERT_TRUE(cache.AllocateCacheSize(d, MB(100)).ok());
  for (std::int64_t b = 0; b < 100; ++b) {
    cache.AccessBlock(d, b);
  }
  ASSERT_EQ(cache.CachedBytes(id), MB(100));

  const std::int64_t evicted = cache.EvictRandomFraction(0.25);
  EXPECT_EQ(evicted, 25);
  EXPECT_EQ(cache.CachedBytes(id), MB(75));
  EXPECT_EQ(cache.CachedBlocks(id).size(), 75u);

  EXPECT_EQ(cache.EvictRandomFraction(0.0), 0);
  EXPECT_EQ(cache.EvictRandomFraction(1.0), 75);
  EXPECT_EQ(cache.CachedBytes(id), 0);
}

TEST(CacheManagerFaults, SetTotalCapacityAllowsTransientOverCommit) {
  DatasetCatalog catalog;
  const DatasetId id = catalog.Add("d", MB(100), MB(1));
  const Dataset& d = catalog.Get(id);
  CacheManager cache(MB(100));
  ASSERT_TRUE(cache.AllocateCacheSize(d, MB(80)).ok());

  cache.SetTotalCapacity(MB(50));  // Pool shrinks under the live allocation.
  EXPECT_EQ(cache.total_capacity(), MB(50));
  EXPECT_EQ(cache.total_allocated(), MB(80));  // Transiently over-committed.

  // New allocations must fit the reduced pool once the old one shrinks.
  EXPECT_TRUE(cache.AllocateCacheSize(d, MB(30)).ok());
  EXPECT_FALSE(cache.AllocateCacheSize(d, MB(60)).ok());
}

// Regression: with the pool over-committed after a crash, a shrink that does
// not yet reach the new capacity must still be accepted — the next plan's
// shrinks are what drain the over-commit, so rejecting them wedges the pool
// over capacity forever (seen as a fatal "cache pool over-committed" in the
// fine engine when a crash hit a full multi-dataset pool).
TEST(CacheManagerFaults, ShrinkIsLegalWhileOverCommitted) {
  DatasetCatalog catalog;
  const DatasetId a = catalog.Add("a", MB(100), MB(1));
  const DatasetId b = catalog.Add("b", MB(100), MB(1));
  CacheManager cache(MB(160));
  ASSERT_TRUE(cache.AllocateCacheSize(catalog.Get(a), MB(80)).ok());
  ASSERT_TRUE(cache.AllocateCacheSize(catalog.Get(b), MB(80)).ok());

  cache.SetTotalCapacity(MB(120));  // A crash takes a quarter of the pool.

  // 80 -> 70 still leaves 150 > 120 allocated, but it must succeed.
  EXPECT_TRUE(cache.AllocateCacheSize(catalog.Get(a), MB(70)).ok());
  EXPECT_TRUE(cache.AllocateCacheSize(catalog.Get(b), MB(50)).ok());
  EXPECT_EQ(cache.total_allocated(), MB(120));
  // Grows are still gated on the shrunken capacity.
  EXPECT_FALSE(cache.AllocateCacheSize(catalog.Get(a), MB(80)).ok());
}

// ----------------------------------------------- InMemRemoteStore faults --

TEST(RemoteStoreFaults, TransientErrorsSurfaceThroughTryReadBlock) {
  DatasetCatalog catalog;
  const DatasetId id = catalog.Add("d", MB(4), KB(64));
  InMemRemoteStore store(GBps(100), MB(64));  // Fast enough to never sleep.
  store.RegisterDataset(catalog.Get(id));

  store.SetFault(/*rate_factor=*/1.0, /*error_rate=*/0.5);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    const auto result = store.TryReadBlock(id, i % 8);
    if (!result.ok()) {
      ++failures;
    } else {
      EXPECT_EQ(InMemRemoteStore::Checksum(*result),
                InMemRemoteStore::ExpectedChecksum(id, i % 8, KB(64)));
    }
  }
  EXPECT_GT(failures, 50);  // ~100 expected; 50 is > 12 sigma slack.
  EXPECT_LT(failures, 150);
  EXPECT_EQ(store.transient_errors(), failures);

  store.ClearFault();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(store.TryReadBlock(id, i % 8).ok());
  }
  EXPECT_EQ(store.transient_errors(), failures);  // No new errors.

  // Retrying through the errors reaches a read that delivers the payload.
  store.SetFault(1.0, 0.5);
  Result<std::vector<std::uint8_t>> data = store.TryReadBlock(id, 0);
  for (int attempt = 1; !data.ok(); ++attempt) {
    ASSERT_LT(attempt, 64) << "no success at error rate 0.5";
    data = store.TryReadBlock(id, 0);
  }
  EXPECT_EQ(InMemRemoteStore::Checksum(*data),
            InMemRemoteStore::ExpectedChecksum(id, 0, KB(64)));
}

// -------------------------------------------------- Recovery under churn --

TEST(RecoveryFaults, CacheSnapshotRestoreIsAFixpoint) {
  DatasetCatalog catalog;
  const DatasetId a = catalog.Add("a", MB(64), MB(1));
  const DatasetId b = catalog.Add("b", MB(64), MB(1));
  CacheManager cache(MB(96));
  ASSERT_TRUE(cache.AllocateCacheSize(catalog.Get(a), MB(48)).ok());
  ASSERT_TRUE(cache.AllocateCacheSize(catalog.Get(b), MB(32)).ok());
  for (std::int64_t blk = 0; blk < 40; ++blk) {
    cache.AccessBlock(catalog.Get(a), blk);
    cache.AccessBlock(catalog.Get(b), blk);
  }

  const DataManagerSnapshot snapshot = CaptureCacheSnapshot(cache, catalog);
  CacheManager restored(MB(96));
  ASSERT_TRUE(RestoreCacheManager(snapshot, catalog, &restored).ok());
  EXPECT_EQ(restored.Allocation(a), MB(48));
  EXPECT_EQ(restored.Allocation(b), MB(32));
  EXPECT_EQ(restored.CachedBlocks(a), cache.CachedBlocks(a));
  EXPECT_EQ(restored.CachedBlocks(b), cache.CachedBlocks(b));
  // The restored manager snapshots identically, including via text.
  EXPECT_EQ(CaptureCacheSnapshot(restored, catalog), snapshot);
  const Result<DataManagerSnapshot> parsed =
      SnapshotFromText(SnapshotToText(snapshot), &catalog);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, snapshot);
}

// --------------------------------------------------- Engines under churn --

Trace ChurnTrace(int num_jobs) {
  TraceOptions options;
  options.num_jobs = num_jobs;
  options.mean_interarrival = Minutes(3);
  options.median_duration = Minutes(20);
  options.max_duration = Hours(2);
  options.seed = 91;
  options.block_size = MB(256);  // Keeps the fine engine fast.
  return TraceGenerator(options).Generate();
}

SimConfig ChurnCluster() {
  SimConfig config;
  config.resources.total_gpus = 16;
  config.resources.total_cache = GB(400);
  config.resources.remote_io = MBps(300);
  config.resources.num_servers = 4;
  config.reschedule_period = Minutes(5);
  return config;
}

FaultPlan HeavyChurn(int num_jobs) {
  FaultChurnOptions options;
  options.horizon = Hours(12);
  options.server_crashes_per_hour = 4;
  options.worker_crashes_per_hour = 4;
  options.degrade_windows_per_hour = 2;
  options.dm_restarts_per_hour = 1;
  options.mean_server_downtime = Minutes(10);
  options.worker_restart_delay = Minutes(3);
  options.degrade_factor = 0.3;
  options.degrade_error_rate = 0.2;
  options.num_servers = 4;
  options.num_jobs = num_jobs;
  options.seed = 5;
  return GenerateFaultPlan(options);
}

// §6's headline: under an adversarial seeded schedule of every fault kind,
// every job still completes on both engines, and the fine engine's per-block
// accounting stays exact (each consumed block is exactly one hit or miss).
TEST(EngineFaults, EveryJobCompletesUnderHeavyChurnOnBothEngines) {
  const int kJobs = 12;
  const Trace trace = ChurnTrace(kJobs);
  std::int64_t total_blocks = 0;
  for (const JobSpec& spec : trace.jobs) {
    const Dataset& d = trace.catalog.Get(spec.dataset);
    total_blocks +=
        std::max<std::int64_t>(1, (spec.total_bytes + d.block_size / 2) / d.block_size);
  }

  for (const EngineKind engine : {EngineKind::kFine, EngineKind::kFlow}) {
    for (const CacheSystem cache : {CacheSystem::kSiloD, CacheSystem::kCoorDl}) {
      ExperimentConfig config;
      config.policy = PolicyName(SchedulerKind::kFifo, cache);
      config.sim = ChurnCluster();
      config.sim.faults = HeavyChurn(kJobs);
      config.engine = engine;
      const SimResult result = RunExperiment(trace, config);

      ASSERT_EQ(result.jobs.size(), trace.jobs.size());
      for (const JobResult& j : result.jobs) {
        EXPECT_GE(j.first_start_time, 0) << "job " << j.id;
        EXPECT_GT(j.finish_time, j.first_start_time) << "job " << j.id;
      }
      EXPECT_GT(result.faults.server_crashes, 0);
      EXPECT_GT(result.faults.worker_crashes, 0);
      EXPECT_GT(result.faults.degrade_windows, 0);
      EXPECT_GT(result.faults.dm_restarts, 0);
      if (engine == EngineKind::kFine) {
        EXPECT_EQ(result.steps.miss_completions + result.steps.hit_completions,
                  static_cast<std::uint64_t>(total_blocks))
            << CacheSystemName(cache);
        EXPECT_GT(result.faults.blocks_lost, 0);
      }
      for (const FaultStats::Window& w : result.faults.windows) {
        EXPECT_GT(w.end, w.start);
        EXPECT_GE(w.avg_throughput, 0);
      }
    }
  }
}

TEST(EngineFaults, ChurnRunsAreDeterministic) {
  const Trace trace = ChurnTrace(8);
  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = ChurnCluster();
  config.sim.faults = HeavyChurn(8);
  config.engine = EngineKind::kFine;
  const SimResult a = RunExperiment(trace, config);
  const SimResult b = RunExperiment(trace, config);
  EXPECT_TRUE(PhysicallyIdentical(a, b));
}

// A finished CoorDL job's private cache goes with it: a server crash after
// the only arrived job has finished finds nothing to shed.  (A second job
// arrives after the crash, so the run is still going when it fires.)
TEST(EngineFaults, FinishedCoorDlJobHoldsNoCache) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("d", GB(4), MB(256));
  for (int i = 0; i < 2; ++i) {
    JobSpec job = MakeJob(i, zoo, "ResNet-50", 1, d, 1.0, /*submit_time=*/i * 7200.0);
    job.total_bytes = 2 * GB(4);
    trace.jobs.push_back(job);
  }

  ExperimentConfig config;
  config.policy = "fifo+coordl";
  config.engine = EngineKind::kFine;
  config.sim.resources.total_gpus = 4;
  config.sim.resources.total_cache = GB(8);
  config.sim.resources.remote_io = MBps(100);
  config.sim.resources.num_servers = 2;
  const Result<FaultPlan> plan = FaultPlan::Parse("server-crash t=3600 server=0 down=60");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  config.sim.faults = *plan;
  const SimResult result = RunExperiment(trace, config);

  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_LT(result.jobs[0].finish_time, 3600);
  EXPECT_EQ(result.faults.server_crashes, 1);
  EXPECT_EQ(result.faults.blocks_lost, 0);
  EXPECT_EQ(result.faults.bytes_lost, 0);
}

// A single remote-bound job: a degrade window must slow it down, and the
// effect must be visible on both engines.
TEST(EngineFaults, DegradeWindowSlowsRemoteBoundJob) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("d", GB(4), MB(256));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = 2 * GB(4);
  trace.jobs.push_back(job);

  SimConfig sim;
  sim.resources.total_gpus = 4;
  sim.resources.total_cache = 0;  // Every read is remote.
  sim.resources.remote_io = MBps(100);
  sim.resources.num_servers = 1;

  for (const EngineKind engine : {EngineKind::kFine, EngineKind::kFlow}) {
    ExperimentConfig config;
    config.policy = "fifo+silod";
    config.sim = sim;
    config.engine = engine;
    const SimResult baseline = RunExperiment(trace, config);

    const Result<FaultPlan> plan = FaultPlan::Parse("degrade t=5 factor=0.25 for=40");
    ASSERT_TRUE(plan.ok());
    config.sim.faults = *plan;
    const SimResult degraded = RunExperiment(trace, config);

    // 40 s at quarter rate costs ~30 s of transfer time; allow engine slack.
    EXPECT_GT(degraded.jobs[0].finish_time, baseline.jobs[0].finish_time + 15)
        << (engine == EngineKind::kFine ? "fine" : "flow");
    ASSERT_EQ(degraded.faults.windows.size(), 1u);
    EXPECT_LT(degraded.faults.windows[0].avg_throughput,
              baseline.total_throughput.TimeAverage(5, 45) + 1.0);
  }
}

TEST(EngineFaults, WorkerCrashDelaysThatJobOnly) {
  const ModelZoo zoo;
  Trace trace;
  for (int i = 0; i < 2; ++i) {
    const DatasetId d = trace.catalog.Add("d" + std::to_string(i), GB(2), MB(256));
    JobSpec job = MakeJob(static_cast<JobId>(i), zoo, "ResNet-50", 1, d, 1.0, 0);
    job.total_bytes = 2 * GB(2);
    trace.jobs.push_back(job);
  }
  SimConfig sim;
  sim.resources.total_gpus = 4;
  sim.resources.total_cache = GB(8);
  sim.resources.remote_io = MBps(400);
  sim.resources.num_servers = 1;
  sim.reschedule_period = 10;

  ExperimentConfig config;
  config.policy = "fifo+silod";
  config.sim = sim;
  config.engine = EngineKind::kFine;
  const SimResult baseline = RunExperiment(trace, config);

  const Result<FaultPlan> plan = FaultPlan::Parse("worker-crash t=10 job=0 restart=120");
  ASSERT_TRUE(plan.ok());
  config.sim.faults = *plan;
  const SimResult faulted = RunExperiment(trace, config);

  EXPECT_EQ(faulted.faults.worker_crashes, 1);
  EXPECT_EQ(faulted.faults.worker_restarts, 1);
  // The crashed job pays roughly the outage; its peer is unaffected (same
  // dataset sizes but disjoint datasets and ample egress).
  EXPECT_GT(faulted.jobs[0].finish_time, baseline.jobs[0].finish_time + 60);
  EXPECT_NEAR(faulted.jobs[1].finish_time, baseline.jobs[1].finish_time,
              0.25 * baseline.jobs[1].finish_time + 30);
}

// ----------------------------------------- RestartCost accounting (§6) --

// Fine engine: under every policy, per-block accounting stays exact — each
// consumed block is exactly one hit or miss, and policy-mandated re-reads are
// charged to FaultStats::blocks_refetched, never silently absorbed.
TEST(EngineFaults, FineEngineBlockAccountingIsExactUnderEveryRestartPolicy) {
  const int kJobs = 10;
  const Trace trace = ChurnTrace(kJobs);
  std::int64_t total_blocks = 0;
  for (const JobSpec& spec : trace.jobs) {
    const Dataset& d = trace.catalog.Get(spec.dataset);
    total_blocks +=
        std::max<std::int64_t>(1, (spec.total_bytes + d.block_size / 2) / d.block_size);
  }

  FaultChurnOptions churn;
  churn.horizon = Hours(12);
  churn.worker_crashes_per_hour = 6;
  churn.worker_restart_delay = Minutes(2);
  churn.num_jobs = kJobs;
  churn.seed = 5;

  for (const char* spec :
       {"checkpoint-everything", "lose-partial-epoch", "checkpoint-interval:7"}) {
    ExperimentConfig config;
    config.policy = "fifo+silod";
    config.sim = ChurnCluster();
    config.sim.faults = GenerateFaultPlan(churn);
    config.sim.restart_cost = *RestartCost::Parse(spec);
    config.engine = EngineKind::kFine;
    const SimResult result = RunExperiment(trace, config);

    ASSERT_EQ(result.jobs.size(), trace.jobs.size()) << spec;
    for (const JobResult& j : result.jobs) {
      EXPECT_GT(j.finish_time, 0) << spec << " job " << j.id;
    }
    EXPECT_GT(result.faults.worker_crashes, 0) << spec;
    EXPECT_EQ(result.steps.miss_completions + result.steps.hit_completions,
              static_cast<std::uint64_t>(total_blocks + result.faults.blocks_refetched))
        << spec;
    if (config.sim.restart_cost.policy == RestartCostPolicy::kCheckpointEverything) {
      EXPECT_EQ(result.faults.blocks_refetched, 0) << spec;
      EXPECT_DOUBLE_EQ(result.faults.compute_lost, 0) << spec;
    } else {
      EXPECT_GT(result.faults.blocks_refetched, 0) << spec;
    }
  }
}

// Flow engine: a remote-bound job re-fetches exactly the bytes its policy
// discards, so the finish-time delta against the checkpoint-everything run is
// bytes_refetched / link rate (resume penalty zeroed to keep the identity
// byte-exact).
TEST(EngineFaults, FlowEngineChargesExactlyTheRefetchedBytes) {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d = trace.catalog.Add("d", GB(4), MB(256));
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  job.total_bytes = 2 * GB(4);
  trace.jobs.push_back(job);

  SimConfig sim;
  sim.resources.total_gpus = 4;
  sim.resources.total_cache = 0;  // Every read is remote: rate is the link rate.
  sim.resources.remote_io = MBps(100);
  sim.resources.num_servers = 1;
  sim.preempt_resume_penalty = 0;
  const Result<FaultPlan> plan = FaultPlan::Parse("worker-crash t=50 job=0 restart=40");
  ASSERT_TRUE(plan.ok());
  sim.faults = *plan;

  auto run = [&](const char* spec) {
    ExperimentConfig config;
    config.policy = "fifo+silod";
    config.sim = sim;
    config.sim.restart_cost = *RestartCost::Parse(spec);
    config.engine = EngineKind::kFlow;
    return RunExperiment(trace, config);
  };

  const SimResult checkpointed = run("checkpoint-everything");
  EXPECT_DOUBLE_EQ(checkpointed.faults.bytes_refetched, 0);
  ASSERT_GT(checkpointed.jobs[0].finish_time, 0);

  // At the crash the job has read ~50 s * 100 MB/s ≈ 4.88 GB: past the first
  // 4 GB epoch boundary, and not on a 1 GB (4-block) checkpoint boundary.
  for (const char* spec : {"lose-partial-epoch", "checkpoint-interval:4"}) {
    const SimResult lossy = run(spec);
    EXPECT_EQ(lossy.faults.worker_crashes, 1) << spec;
    EXPECT_GT(lossy.faults.bytes_refetched, 0) << spec;
    EXPECT_GT(lossy.faults.compute_lost, 0) << spec;
    EXPECT_NEAR(lossy.jobs[0].finish_time - checkpointed.jobs[0].finish_time,
                lossy.faults.bytes_refetched / MBps(100), 0.5)
        << spec;
  }
}

// A zonal plan replays bit-identically on both engines, and the correlated
// crash costs performance, never correctness.
TEST(EngineFaults, ZonalChurnIsDeterministicOnBothEngines) {
  const Trace trace = ChurnTrace(8);
  FaultChurnOptions churn;
  churn.horizon = Hours(12);
  churn.num_jobs = 8;
  churn.seed = 17;
  ZoneChurn zone;
  zone.zone = FaultZone{"rack0", 0, 1};
  zone.crashes_per_hour = 2;
  zone.downtime = Minutes(10);
  zone.recovery_stagger = 30;
  zone.recovery_degrade_factor = 0.5;
  zone.recovery_degrade_duration = Minutes(5);
  churn.zones.push_back(zone);

  for (const EngineKind engine : {EngineKind::kFine, EngineKind::kFlow}) {
    ExperimentConfig config;
    config.policy = "fifo+silod";
    config.sim = ChurnCluster();
    config.sim.faults = GenerateFaultPlan(churn);
    config.engine = engine;
    const SimResult a = RunExperiment(trace, config);
    const SimResult b = RunExperiment(trace, config);
    EXPECT_TRUE(PhysicallyIdentical(a, b))
        << (engine == EngineKind::kFine ? "fine" : "flow");
    ASSERT_EQ(a.jobs.size(), trace.jobs.size());
    for (const JobResult& j : a.jobs) {
      EXPECT_GT(j.finish_time, 0) << "job " << j.id;
    }
    EXPECT_GT(a.faults.server_crashes, 0);
    // Recovery-anchored degrade windows are in the plan (the engines only
    // observe the ones that open before the last job drains).
    int anchored_degrades = 0;
    for (const FaultEvent& e : config.sim.faults.events) {
      anchored_degrades += e.kind == FaultKind::kRemoteDegrade && e.severity < 1.0;
    }
    EXPECT_GT(anchored_degrades, 0);
  }
}

// Pins both engines' fault paths bit-for-bit: every engine × cache model ×
// placement × restart policy under HeavyChurn plus one zonal churn (so Data
// Manager restarts and recovery-anchored degrade windows run too).  Any
// change to crash charging, eviction, restart cost or window accounting
// moves a digest.
TEST(EngineFaults, ChurnResultsMatchPinnedDigests) {
  // [engine: fine, flow][cache: SiloD, CoorDL, Alluxio][placement: oblivious,
  // zoned][restart cost: checkpoint-everything, lose-partial-epoch, interval:7]
  const std::uint64_t kPinned[2][3][2][3] = {
      {{{0x4fb4003f0c3c1820ULL, 0x209fcbdae242fa53ULL, 0x249163bd16437967ULL},
        {0xd3351a9b2af9986dULL, 0x10cc9a8f9ae9edbaULL, 0x365aaafe84d113aULL}},
       {{0xec399fa4bf582f71ULL, 0x4dddf17dbf5dd3a5ULL, 0x73caf08dbeec37afULL},
        {0x170f4c2629b46e12ULL, 0x4a5a248d2eb049dfULL, 0xe129c258b532ef71ULL}},
       {{0xfd0544c0c4cafb32ULL, 0x9cc41398dc1d41a3ULL, 0xa934fc0714456b6fULL},
        {0xb82820cc14b411b6ULL, 0x2679212f63ac367dULL, 0x61289c80939a4d1cULL}}},
      {{{0x500d185fc417912dULL, 0x6dbbae8830b539d4ULL, 0x2e4031b436f03342ULL},
        {0x279424116e02404fULL, 0xa9d4d5fc68a07e9ULL, 0xe21b06fa889957ffULL}},
       {{0x4c964d25e1b7a4f7ULL, 0xd7a4d6513f2ba1adULL, 0xbe5bd127b8f55555ULL},
        {0x65f958b4eee956c9ULL, 0x30b5f79199b22ebbULL, 0x9be2e009b94bc5a8ULL}},
       {{0x1a38b3bf1948d774ULL, 0x54ff0ecfa7ef6fdaULL, 0x20620401e9e9006eULL},
        {0x1a38b3bf1948d774ULL, 0x54ff0ecfa7ef6fdaULL, 0x20620401e9e9006eULL}}},
  };
  // Longer jobs than ChurnTrace's, so the run spans hours of the plan and
  // worker crashes land on running jobs under every restart policy.
  const int kJobs = 16;
  TraceOptions options;
  options.num_jobs = kJobs;
  options.mean_interarrival = Minutes(3);
  options.median_duration = Hours(1);
  options.max_duration = Hours(3);
  options.seed = 91;
  options.block_size = MB(256);
  const Trace trace = TraceGenerator(options).Generate();
  FaultPlan plan = HeavyChurn(kJobs);
  FaultChurnOptions zonal;
  zonal.horizon = Hours(12);
  zonal.num_jobs = kJobs;
  zonal.seed = 23;
  ZoneChurn zone;
  zone.zone = FaultZone{"rack0", 0, 1};
  zone.crashes_per_hour = 1;
  zone.downtime = Minutes(10);
  zone.recovery_stagger = 30;
  zone.recovery_degrade_factor = 0.5;
  zone.recovery_degrade_duration = Minutes(5);
  zonal.zones.push_back(zone);
  for (const FaultEvent& e : GenerateFaultPlan(zonal).events) {
    plan.events.push_back(e);  // The injector sorts the merged plan.
  }
  // Servers 2 and 3 stay uncovered: Cover() makes them singleton zones.
  const Result<ClusterTopology> zoned = ClusterTopology::Parse("rack0=0-1;loss-bound=0.4");
  ASSERT_TRUE(zoned.ok()) << zoned.status().ToString();

  const EngineKind kEngines[] = {EngineKind::kFine, EngineKind::kFlow};
  const CacheSystem kCaches[] = {CacheSystem::kSiloD, CacheSystem::kCoorDl,
                                 CacheSystem::kAlluxio};
  const char* kPolicies[] = {"checkpoint-everything", "lose-partial-epoch",
                             "checkpoint-interval:7"};
  bool zone_losses = false;
  for (int e = 0; e < 2; ++e) {
    for (int c = 0; c < 3; ++c) {
      for (int z = 0; z < 2; ++z) {
        for (int p = 0; p < 3; ++p) {
          ExperimentConfig config;
          config.policy = PolicyName(SchedulerKind::kFifo, kCaches[c]);
          config.sim = ChurnCluster();
          config.sim.faults = plan;
          config.sim.restart_cost = *RestartCost::Parse(kPolicies[p]);
          if (z == 1) {
            config.sim.topology = *zoned;
          }
          config.engine = kEngines[e];
          const SimResult result = RunExperiment(trace, config);
          const std::uint64_t digest = ResultDigest(result);
          EXPECT_EQ(digest, kPinned[e][c][z][p])
              << (e == 0 ? "fine " : "flow ") << CacheSystemName(kCaches[c])
              << (z == 0 ? " oblivious " : " zoned ") << kPolicies[p] << ": 0x"
              << FormatDigest(digest);
          EXPECT_GT(result.faults.dm_restarts, 0);
          if (p > 0) {  // The fixture must keep reaching the restart-cost paths.
            EXPECT_GT(static_cast<double>(result.faults.blocks_refetched) +
                          result.faults.bytes_refetched,
                      0);
          }
          zone_losses = zone_losses || !result.faults.blocks_lost_by_zone.empty();
        }
      }
    }
  }
  EXPECT_TRUE(zone_losses);
}

// ------------------------------------------- Sharded DataManager faults --

TEST(DataManagerShards, CrashDropsOnlyThatShardAndRecoveryRefills) {
  DatasetCatalog catalog;
  const DatasetId id = catalog.Add("d", MB(200), MB(1));  // 200 blocks.
  const Dataset& d = catalog.Get(id);
  DataManager manager(MB(400), MBps(100), /*seed=*/7, /*num_shards=*/4);
  ASSERT_EQ(manager.num_shards(), 4);
  // Every shard gets an equal MB(100) quota share: ample for all 200 blocks.
  ASSERT_TRUE(manager.AllocateCacheSize(d, MB(400)).ok());
  for (std::int64_t b = 0; b < 200; ++b) {
    manager.AccessBlock(d, b);
  }
  ASSERT_EQ(manager.CachedBytes(id), MB(200));
  EXPECT_EQ(manager.CachedBlocks(id).size(), 200u);

  const std::int64_t lost = manager.CrashShard(1);
  ASSERT_GT(lost, 0);
  ASSERT_LT(lost, 200);
  EXPECT_FALSE(manager.shard_alive(1));
  EXPECT_TRUE(manager.shard_alive(0));
  EXPECT_EQ(manager.CachedBytes(id), MB(200) - lost * MB(1));

  // A dead shard misses and admits nothing; survivors keep their residents.
  for (std::int64_t b = 0; b < 200; ++b) {
    manager.AccessBlock(d, b);
  }
  EXPECT_EQ(manager.CachedBytes(id), MB(200) - lost * MB(1));

  // Crashing again, or out-of-range shards, is a counted no-op.
  EXPECT_EQ(manager.CrashShard(1), 0);
  EXPECT_EQ(manager.CrashShard(-1), 0);
  EXPECT_EQ(manager.CrashShard(4), 0);
  EXPECT_FALSE(manager.shard_alive(-1));
  EXPECT_FALSE(manager.shard_alive(4));

  // Recovery rejoins empty; the normal miss path restores the footprint.
  manager.RecoverShard(1);
  EXPECT_TRUE(manager.shard_alive(1));
  EXPECT_EQ(manager.CachedBytes(id), MB(200) - lost * MB(1));
  for (std::int64_t b = 0; b < 200; ++b) {
    manager.AccessBlock(d, b);
  }
  EXPECT_EQ(manager.CachedBytes(id), MB(200));
}

TEST(DataManagerShards, RestoreDropsBlocksRoutedToDeadShards) {
  DatasetCatalog catalog;
  const DatasetId id = catalog.Add("d", MB(200), MB(1));
  const Dataset& d = catalog.Get(id);
  DataManager filled(MB(400), MBps(100), /*seed=*/7, /*num_shards=*/4);
  ASSERT_TRUE(filled.AllocateCacheSize(d, MB(400)).ok());
  for (std::int64_t b = 0; b < 200; ++b) {
    filled.AccessBlock(d, b);
  }
  const std::vector<std::int64_t> all = filled.CachedBlocks(id);
  ASSERT_EQ(all.size(), 200u);
  // Placement is deterministic in the seed, so this count is what a fresh
  // manager must drop when the same shard is dead at restore time.
  const std::int64_t on_shard2 = filled.CrashShard(2);
  ASSERT_GT(on_shard2, 0);

  DataManager fresh(MB(400), MBps(100), /*seed=*/7, /*num_shards=*/4);
  ASSERT_TRUE(fresh.AllocateCacheSize(d, MB(400)).ok());
  fresh.CrashShard(2);
  ASSERT_TRUE(fresh.RestoreCachedBlocks(d, all).ok());
  EXPECT_EQ(static_cast<std::int64_t>(fresh.CachedBlocks(id).size()),
            200 - on_shard2);
  for (const std::int64_t b : fresh.CachedBlocks(id)) {
    EXPECT_TRUE(fresh.IsCached(d, b));
  }

  // After recovery the dropped blocks refill through the miss path.
  fresh.RecoverShard(2);
  for (std::int64_t b = 0; b < 200; ++b) {
    fresh.AccessBlock(d, b);
  }
  EXPECT_EQ(fresh.CachedBlocks(id), all);
}

TEST(DataManagerShards, SingleShardKeepsTheHistoricalFacade) {
  DatasetCatalog catalog;
  const DatasetId id = catalog.Add("d", MB(10), MB(1));
  const Dataset& d = catalog.Get(id);
  DataManager manager(MB(10), MBps(100));
  EXPECT_EQ(manager.num_shards(), 1);
  ASSERT_TRUE(manager.AllocateCacheSize(d, MB(10)).ok());
  manager.AccessBlock(d, 3);
  // cache() stays valid with one shard and sees the routed admissions.
  EXPECT_TRUE(manager.cache().IsCached(id, 3));
  EXPECT_EQ(manager.cache().CachedBytes(id), manager.CachedBytes(id));
}

}  // namespace
}  // namespace silod
