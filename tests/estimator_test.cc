// Unit and property tests for src/estimator: the IOPerf closed form (Eq. 2-5),
// the SiloD-enhanced throughput of Algorithm 1, and Quiver's online profiler.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/units.h"
#include "src/estimator/ioperf.h"
#include "src/estimator/profiler.h"

namespace silod {
namespace {

// ----------------------------------------------------------------- IOPerf --

TEST(IoPerf, Eq2RemoteDemand) {
  // b = f (1 - c/d): 114 MB/s with half the dataset cached needs 57 MB/s.
  EXPECT_DOUBLE_EQ(RemoteIoDemand(MBps(114), GB(71.5), GB(143)), MBps(57));
  EXPECT_DOUBLE_EQ(RemoteIoDemand(MBps(114), 0, GB(143)), MBps(114));
  EXPECT_DOUBLE_EQ(RemoteIoDemand(MBps(114), GB(143), GB(143)), 0);
  EXPECT_DOUBLE_EQ(RemoteIoDemand(MBps(114), GB(200), GB(143)), 0);  // Over-cached.
}

TEST(IoPerf, Eq3IoThroughput) {
  // f = b / (1 - c/d).
  EXPECT_DOUBLE_EQ(IoThroughput(MBps(57), GB(71.5), GB(143)), MBps(114));
  EXPECT_DOUBLE_EQ(IoThroughput(MBps(57), 0, GB(143)), MBps(57));
  EXPECT_TRUE(std::isinf(IoThroughput(MBps(1), GB(143), GB(143))));
}

TEST(IoPerf, Eq4EndToEnd) {
  // min(f*, b/(1-c/d)).
  EXPECT_DOUBLE_EQ(SiloDPerfThroughput(MBps(114), MBps(57), GB(71.5), GB(143)), MBps(114));
  EXPECT_DOUBLE_EQ(SiloDPerfThroughput(MBps(114), MBps(30), GB(71.5), GB(143)), MBps(60));
  EXPECT_DOUBLE_EQ(SiloDPerfThroughput(MBps(114), 0, GB(143), GB(143)), MBps(114));
  EXPECT_DOUBLE_EQ(SiloDPerfThroughput(MBps(114), 0, 0, GB(143)), 0);
  EXPECT_DOUBLE_EQ(SiloDPerfThroughput(MBps(114), MBps(30), 0, GB(143)), MBps(30));
  // Algorithm 1's min() never exceeds the compute-only estimate f*.
  for (double io : {0.0, 20.0, 60.0, 200.0}) {
    for (double cache : {0.0, 50.0, 143.0}) {
      EXPECT_LE(SiloDPerfThroughput(MBps(114), MBps(io), GB(cache), GB(143)), MBps(114));
    }
  }
}

TEST(IoPerf, Eq3Eq2AreInverses) {
  for (double cache_gb : {0.0, 10.0, 50.0, 100.0}) {
    const Bytes c = GB(cache_gb);
    const BytesPerSec f = MBps(80);
    const BytesPerSec b = RemoteIoDemand(f, c, GB(143));
    EXPECT_NEAR(IoThroughput(b, c, GB(143)), f, 1e-6);
  }
}

TEST(IoPerf, Eq5CacheEfficiency) {
  // ResNet-50 / ImageNet-1k: 114/143 ~ 0.8 MB/s/GB (the Fig. 6 headline).
  EXPECT_NEAR(CacheEfficiencyMBpsPerGB(MBps(114), GB(143)), 0.797, 0.001);
  // BERT / WebSearch: 2 MB/s over 20.9 TB ~ 9.5e-5.
  EXPECT_NEAR(CacheEfficiencyMBpsPerGB(MBps(2), TB(20.9)), 9.5e-5, 2e-6);
}

TEST(IoPerf, CacheEfficiencyIsDerivativeOfDemand) {
  // Eq. 5 is -db/dc at f = f*: check by finite differences.
  const BytesPerSec f = MBps(114);
  const Bytes d = GB(143);
  const Bytes dc = MB(100);
  const double numeric =
      (RemoteIoDemand(f, GB(10), d) - RemoteIoDemand(f, GB(10) + dc, d)) /
      static_cast<double>(dc);
  EXPECT_NEAR(numeric, CacheEfficiency(f, d), 1e-12);
}

TEST(IoPerf, RequiredRemoteIoInvertsThroughput) {
  const BytesPerSec target = MBps(90);
  const Bytes c = GB(40);
  const Bytes d = GB(143);
  const BytesPerSec b = RequiredRemoteIo(target, c, d);
  EXPECT_NEAR(SiloDPerfThroughput(MBps(114), b, c, d), target, 1e-6);
}

TEST(IoPerf, MonotoneInCacheAndIo) {
  // SiloDPerf is nondecreasing in both storage dimensions.
  const BytesPerSec f = MBps(114);
  const Bytes d = GB(143);
  double prev = -1;
  for (int g = 0; g <= 143; g += 13) {
    const double v = SiloDPerfThroughput(f, MBps(20), GB(g), d);
    EXPECT_GE(v, prev);
    prev = v;
  }
  prev = -1;
  for (int io = 0; io <= 120; io += 10) {
    const double v = SiloDPerfThroughput(f, MBps(io), GB(40), d);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(IoPerf, SpeedOverloadsSubstituteEffectiveIdeal) {
  // The heterogeneous forms are Eq. 2-5 with f* -> s * f*: each speed overload
  // must agree exactly with the uniform form at the scaled ideal, and speed 1.0
  // must be a bit-for-bit no-op (the uniform-fleet identity the engines rely
  // on).
  const BytesPerSec f = MBps(114);
  const Bytes d = GB(143);
  for (double s : {0.25, 0.45, 1.0, 2.5}) {
    EXPECT_EQ(EffectiveIdeal(f, s), f * s);
    EXPECT_EQ(RemoteIoDemand(f, s, GB(40), d), RemoteIoDemand(f * s, GB(40), d));
    EXPECT_EQ(SiloDPerfThroughput(f, s, MBps(30), GB(40), d),
              SiloDPerfThroughput(f * s, MBps(30), GB(40), d));
    EXPECT_EQ(CacheEfficiency(f, s, d), CacheEfficiency(f * s, d));
  }
  EXPECT_EQ(EffectiveIdeal(f, 1.0), f);
  EXPECT_EQ(SiloDPerfThroughput(f, 1.0, MBps(30), GB(40), d),
            SiloDPerfThroughput(f, MBps(30), GB(40), d));
}

TEST(IoPerf, ThroughputMonotoneInSpeed) {
  // A faster GPU never slows a job down; once remote IO is the bottleneck the
  // throughput saturates there instead of growing past it.
  const BytesPerSec f = MBps(114);
  const Bytes d = GB(143);
  double prev = -1;
  for (double s = 0.1; s <= 3.0; s += 0.1) {
    const double v = SiloDPerfThroughput(f, s, MBps(30), GB(40), d);
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Zero cache: the ceiling is exactly the egress grant, whatever the speed.
  EXPECT_DOUBLE_EQ(SiloDPerfThroughput(f, 100.0, MBps(30), 0, d), MBps(30));
}

// -------------------------------------------------------------- Profilers --

TEST(OnlineBenefitProfiler, NoisyPerMeasurement) {
  OnlineBenefitProfiler profiler(0.25, 5);
  double lo = 1e18;
  double hi = 0;
  for (int i = 0; i < 1000; ++i) {
    const double m = profiler.MeasureBenefit(1.0);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
    EXPECT_GE(m, 0.75 - 1e-9);
    EXPECT_LE(m, 1.25 + 1e-9);
  }
  EXPECT_LT(lo, 0.80);  // Noise actually spans the band.
  EXPECT_GT(hi, 1.20);
}

}  // namespace
}  // namespace silod
