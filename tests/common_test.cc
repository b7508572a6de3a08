// Unit tests for src/common: units, RNG, status, stats, digest, table,
// text codec (JSON included, with the run-report layout it pins), flags,
// backoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <string_view>

#include "src/common/backoff.h"
#include "src/common/digest.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/text_codec.h"
#include "src/common/topology.h"
#include "src/common/units.h"
#include "src/sim/metrics.h"

namespace silod {
namespace {

// ------------------------------------------------------------------ Units --

TEST(Units, DecimalConstructors) {
  EXPECT_EQ(MB(1), 1'000'000);
  EXPECT_EQ(GB(143), 143'000'000'000LL);
  EXPECT_EQ(TB(1.36), 1'360'000'000'000LL);
  EXPECT_DOUBLE_EQ(ToGB(GB(660)), 660.0);
  EXPECT_DOUBLE_EQ(ToMBps(MBps(114)), 114.0);
}

TEST(Units, GbpsIsBits) {
  // 1.6 Gbps = 200 MB/s (Table 5's micro-benchmark limit).
  EXPECT_DOUBLE_EQ(ToMBps(Gbps(1.6)), 200.0);
  EXPECT_DOUBLE_EQ(ToGbps(Gbps(120)), 120.0);
}

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(Minutes(10), 600.0);
  EXPECT_DOUBLE_EQ(Hours(2), 7200.0);
  EXPECT_DOUBLE_EQ(Days(1), 86400.0);
  EXPECT_DOUBLE_EQ(ToMinutes(Minutes(37.5)), 37.5);
}

// -------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowIsUniformish) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.NextBelow(10)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.1);
  }
}

// The rejection loop NextBelow had before its one-division fast path:
// computes 2^64 mod n first, then redraws below it.  `draws` counts the
// NextU64 calls.
std::uint64_t TwoDivisionNextBelow(Rng& rng, std::uint64_t n, int* draws) {
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = rng.NextU64();
    ++*draws;
    if (r >= threshold) {
      return r % n;
    }
  }
}

TEST(Rng, NextBelowMatchesTwoDivisionLoop) {
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kTwo62 = std::uint64_t{1} << 62;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  // Small n, both sides of 2^32, and the n near 2^64 where a draw below n
  // is common and 2^64 mod n is large enough that rejection is frequent.
  const std::uint64_t fixed[] = {1,          2,          3,
                                 kTwo32 - 1, kTwo32 + 1, kTwo63,
                                 kTwo63 + 1, 3 * kTwo62, std::numeric_limits<std::uint64_t>::max()};
  int rejections = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng subject(seed);
    Rng oracle(seed);
    Rng sizes(seed + 1000);
    for (int i = 0; i < 4000; ++i) {
      // Every fixed n, then random n of every magnitude.
      const std::uint64_t n = i < 900 ? fixed[i % std::size(fixed)]
                                      : std::max<std::uint64_t>(
                                            1, sizes.NextU64() >> sizes.NextBelow(64));
      int draws = 0;
      const std::uint64_t want = TwoDivisionNextBelow(oracle, n, &draws);
      rejections += draws - 1;
      ASSERT_EQ(subject.NextBelow(n), want) << "seed " << seed << " n " << n;
      ASSERT_EQ(subject.state(), oracle.state()) << "seed " << seed << " n " << n;
    }
  }
  EXPECT_GT(rejections, 500);  // The redraw path ran, not only the fast path.
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    sum += rng.Exponential(0.5);
  }
  EXPECT_NEAR(sum / kDraws, 2.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) {
    stat.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 5.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(15);
  SampleSet set;
  for (int i = 0; i < 100000; ++i) {
    set.Add(rng.LogNormal(std::log(30.0), 1.6));
  }
  EXPECT_NEAR(set.Median(), 30.0, 1.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(19);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) {
    v[static_cast<std::size_t>(i)] = i;
  }
  rng.Shuffle(v);
  int fixed = 0;
  for (int i = 0; i < 100; ++i) {
    fixed += v[static_cast<std::size_t>(i)] == i ? 1 : 0;
  }
  EXPECT_LT(fixed, 10);  // Expected ~1 fixed point.
}

TEST(Rng, ForkIsIndependent) {
  Rng a(21);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// ----------------------------------------------------------------- Status --

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = Status::NotFound("dataset 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: dataset 7");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ Stats --

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
}

TEST(SampleSet, EmptyEdges) {
  SampleSet s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 0.0);
  EXPECT_TRUE(s.Cdf(10).empty());
}

TEST(SampleSet, SingleSampleAllPercentiles) {
  SampleSet s;
  s.Add(7.25);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(s.Percentile(p), 7.25);
  }
  const auto cdf = s.Cdf(3);
  ASSERT_EQ(cdf.size(), 3u);
  for (const auto& [value, frac] : cdf) {
    EXPECT_DOUBLE_EQ(value, 7.25);
    EXPECT_DOUBLE_EQ(frac, 1.0);
  }
}

TEST(SampleSet, DuplicateHeavyPercentiles) {
  // 90 copies of 5.0 plus a small tail; interpolation must stay on the
  // plateau for every percentile that lands inside it.
  SampleSet s;
  for (int i = 0; i < 90; ++i) {
    s.Add(5.0);
  }
  for (double x : {1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(60), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(93), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 11.0);
  // Unsorted insertion order must not leak into the CDF: it is sorted and
  // monotone even though the tail values straddle the plateau.
  const auto cdf = s.Cdf(25);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
}

TEST(SampleSet, ExtremePercentilesAreMinMax) {
  SampleSet s;
  for (double x : {9.0, -3.0, 4.5, 0.0, 2.25}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), -3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 9.0);
}

TEST(SampleSet, CdfMonotone) {
  SampleSet s;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    s.Add(rng.NextDouble());
  }
  const auto cdf = s.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TimeSeries, ValueAtPiecewiseConstant) {
  TimeSeries ts;
  ts.Record(0, 1.0);
  ts.Record(10, 3.0);
  ts.Record(20, 2.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(-1), 0.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(9.99), 1.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(10), 3.0);
  EXPECT_DOUBLE_EQ(ts.ValueAt(100), 2.0);
}

TEST(TimeSeries, TimeAverage) {
  TimeSeries ts;
  ts.Record(0, 1.0);
  ts.Record(10, 3.0);
  // [0,10): 1.0, [10,20): 3.0 -> average 2.0 over [0,20).
  EXPECT_DOUBLE_EQ(ts.TimeAverage(0, 20), 2.0);
  EXPECT_DOUBLE_EQ(ts.TimeAverage(10, 20), 3.0);
  EXPECT_DOUBLE_EQ(ts.TimeAverage(5, 15), 2.0);
}

TEST(TimeSeries, TimeAverageFromBeforeFirstPoint) {
  // Before the first recording the series reads 0, and that span must be
  // weighted into the average, not skipped.
  TimeSeries ts;
  ts.Record(10, 2.0);
  EXPECT_DOUBLE_EQ(ts.TimeAverage(0, 20), 1.0);   // [0,10): 0, [10,20): 2.
  EXPECT_DOUBLE_EQ(ts.TimeAverage(-10, 10), 0.0); // Entirely before.
  EXPECT_DOUBLE_EQ(ts.TimeAverage(5, 25), 1.5);   // [5,10): 0, [10,25): 2.
}

TEST(TimeSeries, RecordSameTimeOverwrites) {
  TimeSeries ts;
  ts.Record(5, 1.0);
  ts.Record(5, 2.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_DOUBLE_EQ(ts.ValueAt(5), 2.0);
}

TEST(TimeSeries, Downsample) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) {
    ts.Record(i, i);
  }
  const auto points = ts.Downsample(10);
  ASSERT_EQ(points.size(), 10u);
  EXPECT_DOUBLE_EQ(points.front().first, 0.0);
  EXPECT_DOUBLE_EQ(points.back().first, 999.0);
}

// ----------------------------------------------------------------- Digest --

// FNV-1a 64 known answers: the offset basis for no input, and the published
// test vectors for "a" and "foobar".
TEST(Digest, Fnv1aKnownAnswers) {
  const auto hash = [](std::string_view text) {
    Fnv1a64 h;
    h.Bytes(text.data(), text.size());
    return h.hash();
  };
  EXPECT_EQ(hash(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash("foobar"), 0x85944171f73967e8ULL);
}

// U64 and Double feed little-endian bytes, String a length prefix first.
TEST(Digest, TypedFeedsAreByteStreams) {
  const unsigned char le[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  Fnv1a64 raw;
  raw.Bytes(le, sizeof(le));
  Fnv1a64 u64;
  u64.U64(0x0102030405060708ULL);
  EXPECT_EQ(u64.hash(), raw.hash());

  Fnv1a64 dbl;
  dbl.Double(1.0);
  Fnv1a64 bits;
  bits.U64(0x3ff0000000000000ULL);
  EXPECT_EQ(dbl.hash(), bits.hash());
  Fnv1a64 negative_zero;
  negative_zero.Double(-0.0);
  Fnv1a64 zero;
  zero.Double(0.0);
  EXPECT_NE(negative_zero.hash(), zero.hash());

  Fnv1a64 str;
  str.String("ab");
  Fnv1a64 prefixed;
  prefixed.U64(2);
  prefixed.Bytes("ab", 2);
  EXPECT_EQ(str.hash(), prefixed.hash());
}

TEST(Digest, FormatIsSixteenHexDigits) {
  EXPECT_EQ(FormatDigest(1), "0000000000000001");
  EXPECT_EQ(FormatDigest(0xcbf29ce484222325ULL), "cbf29ce484222325");
}

// ---------------------------------------------------------------- Logging --

TEST(Logging, CheckFailureAborts) {
  EXPECT_DEATH({ SILOD_CHECK(1 == 2) << "impossible arithmetic"; }, "Check failed");
}

TEST(Logging, LevelsFilter) {
  const LogLevel saved = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(MinLogLevel(), LogLevel::kError);
  SILOD_LOG(Info) << "suppressed";  // Must not crash; output filtered.
  SetMinLogLevel(saved);
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "I");
  EXPECT_STREQ(LogLevelName(LogLevel::kFatal), "F");
}

// ------------------------------------------------------------------ Table --

TEST(Table, FmtFormats) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(42.0, 0), "42");
  EXPECT_EQ(FmtSci(0.000095, 1), "9.5e-05");
}

// --------------------------------------------------------------- Topology --

TEST(Topology, ParseToSpecRoundTrip) {
  const Result<ClusterTopology> parsed =
      ClusterTopology::Parse("rack0=0-3;rack1=4-7;loss-bound=0.25");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_zones(), 2);
  EXPECT_EQ(parsed->zones()[0].name, "rack0");
  EXPECT_EQ(parsed->zones()[1].first_server, 4);
  EXPECT_DOUBLE_EQ(parsed->loss_bound(), 0.25);

  const Result<ClusterTopology> again = ClusterTopology::Parse(parsed->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *parsed);
}

TEST(Topology, ParseRejectsOverlapAndBadBound) {
  EXPECT_FALSE(ClusterTopology::Parse("a=0-3;b=2-5").ok());
  EXPECT_FALSE(ClusterTopology::Parse("a=3-1").ok());
  EXPECT_FALSE(ClusterTopology::Parse("a=0-3;loss-bound=1.5").ok());
  EXPECT_FALSE(ClusterTopology::Parse("a=0-3;a=4-7").ok());
  EXPECT_FALSE(ClusterTopology::Parse("rack0=0-3junk").ok());
  EXPECT_FALSE(ClusterTopology::Parse("rack0=0-").ok());
  EXPECT_FALSE(ClusterTopology::Parse("a=0-3;loss-bound=0.5x").ok());
  EXPECT_FALSE(ClusterTopology::Parse("a=0-3;loss-bound=nan").ok());
}

TEST(Topology, GpuTypeParseAndRoundTrip) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse(
      "rack0=0-3;gpu-type name=v100 count=64 speed=1;gpu-type name=k80 count=32 speed=0.45");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->has_gpu_types());
  ASSERT_EQ(parsed->gpu_types().size(), 2u);
  EXPECT_EQ(parsed->gpu_types()[0].name, "v100");
  EXPECT_EQ(parsed->gpu_types()[1].count, 32);
  EXPECT_DOUBLE_EQ(parsed->gpu_types()[1].speed, 0.45);
  EXPECT_EQ(parsed->GpuTypeIndex("k80"), 1);
  EXPECT_EQ(parsed->GpuTypeIndex("a100"), -1);
  EXPECT_EQ(parsed->TotalTypedGpus(), 96);

  const Result<ClusterTopology> again = ClusterTopology::Parse(parsed->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *parsed);
}

TEST(Topology, GpuTypeOnlySpecRoundTripsWithoutZones) {
  const Result<ClusterTopology> parsed =
      ClusterTopology::Parse("gpu-type name=a100 count=8 speed=2.5");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->empty());  // No failure zones...
  EXPECT_TRUE(parsed->has_gpu_types());  // ...but a typed fleet.
  const Result<ClusterTopology> again = ClusterTopology::Parse(parsed->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *parsed);
}

TEST(Topology, GpuTypeSpeedSurvivesToSpecExactly) {
  // 0.1 has no exact binary representation; the spec must still round-trip the
  // speed bit-for-bit (FormatShortest falls back to %.17g when %g is lossy).
  ClusterTopology typed =
      *ClusterTopology::Parse("gpu-type name=t count=4 speed=0.30000000000000004");
  const Result<ClusterTopology> again = ClusterTopology::Parse(typed.ToSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->gpu_types()[0].speed, 0.1 + 0.2);
}

TEST(Topology, GpuTypeParseRejectsMalformedEntries) {
  // {spec, why it must be rejected}
  const char* kRejects[] = {
      "gpu-type count=4 speed=1",                                // missing name
      "gpu-type name=v100 speed=1",                              // missing count
      "gpu-type name=v100 count=0 speed=1",                      // zero count
      "gpu-type name=v100 count=-2 speed=1",                     // negative count
      "gpu-type name=v100 count=4 speed=0",                      // zero speed
      "gpu-type name=v100 count=4 speed=-1",                     // negative speed
      "gpu-type name=v100 count=4 speed=fast",                   // non-numeric speed
      "gpu-type name=v100 count=many speed=1",                   // non-numeric count
      "gpu-type name=v100 count=4 flavor=large",                 // unknown key
      "gpu-type name=v100 count=4;gpu-type name=v100 count=2",   // duplicate name
      "gpu-type name=v100 count=8x speed=1",                     // trailing junk on count
      "gpu-type name=v100 count=4 speed=0.5abc",                 // trailing junk on speed
      "gpu-type name=v100 count=99999999999 speed=1",            // count overflows int
  };
  for (const char* spec : kRejects) {
    EXPECT_FALSE(ClusterTopology::Parse(spec).ok()) << spec;
  }
}

TEST(Topology, CoverAddsSingletonZonesForUncoveredServers) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Covers(6));
  EXPECT_EQ(parsed->ZoneOf(5), -1);

  const ClusterTopology covered = parsed->Cover(6);
  EXPECT_TRUE(covered.Covers(6));
  ASSERT_EQ(covered.num_zones(), 3);
  EXPECT_EQ(covered.zones()[1].name, "srv4");
  EXPECT_EQ(covered.zones()[2].size(), 1);
  EXPECT_EQ(covered.ZoneOf(2), 0);
  EXPECT_EQ(covered.ZoneOf(5), 2);
  // Identity when already covering.
  EXPECT_EQ(covered.Cover(6), covered);
}

TEST(Topology, ValidateRejectsOutOfRangeZones) {
  const Result<ClusterTopology> parsed = ClusterTopology::Parse("rack0=0-3;rack1=4-7");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Validate(8).ok());
  EXPECT_FALSE(parsed->Validate(6).ok());
}

// ------------------------------------------------------------- Text codec --

TEST(TextCodec, EscapeRoundTripsEveryByteValue) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    all += static_cast<char>(b);
  }
  const std::string escaped = EscapeToken(all);
  EXPECT_EQ(SplitTokens(escaped).size(), 1u) << "an escaped token never splits";
  const Result<std::string> back = UnescapeToken(escaped);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, all);
  EXPECT_EQ(EscapeToken("plain-text_1.5"), "plain-text_1.5");
  EXPECT_FALSE(UnescapeToken("%4").ok());
  EXPECT_FALSE(UnescapeToken("%zz").ok());
}

TEST(TextCodec, FormatExactParseDoubleIsTheIdentity) {
  const double kEdges[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           0.1 + 0.2,
                           706.86133350038654};
  const auto expect_round_trip = [](double x) {
    const std::string text = FormatExact(x);
    const Result<double> back = ParseDouble(text);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    if (std::isnan(x)) {
      EXPECT_TRUE(std::isnan(*back)) << text;
    } else {
      EXPECT_EQ(std::memcmp(&x, &*back, sizeof(x)), 0) << text;
    }
    EXPECT_EQ(FormatExact(*back), text);
  };
  for (const double x : kEdges) {
    expect_round_trip(x);
  }
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng.NextU64();
    double x = 0;
    std::memcpy(&x, &bits, sizeof(x));
    expect_round_trip(x);
  }
}

TEST(TextCodec, FormatShortestKeepsShortFormsAndRoundTrips) {
  EXPECT_EQ(FormatShortest(0.5), "0.5");
  EXPECT_EQ(FormatShortest(1e6), "1e+06");
  EXPECT_EQ(FormatShortest(706.86133350038654), "706.86133350038654");
  EXPECT_EQ(*ParseDouble(FormatShortest(0.1 + 0.2)), 0.1 + 0.2);
}

TEST(TextCodec, StrictNumberParsesRejectPartialTokens) {
  for (const char* bad : {"", " 1", "1 ", "1x", "0x10", "+1", "1.5", "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt(bad).ok()) << "'" << bad << "'";
  }
  EXPECT_EQ(*ParseInt("-42"), -42);
  EXPECT_FALSE(ParseInt("7", 0, 5).ok());
  EXPECT_FALSE(ParseU64("-1").ok());
  EXPECT_EQ(*ParseU64("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", " 1", "1x", "0x10", "1e999", "-1e999", "abc", "1e"}) {
    EXPECT_FALSE(ParseDouble(bad).ok()) << "'" << bad << "'";
  }
  EXPECT_TRUE(std::isinf(*ParseDouble("inf")));
  EXPECT_TRUE(std::isnan(*ParseDouble("nan")));
  EXPECT_EQ(*ParseDouble("4.9406564584124654e-324"), std::numeric_limits<double>::denorm_min());
}

TEST(TextCodec, RecordsRoundTripAndRejectMalformedKeys) {
  const RecordFields fields = {{"b", "two words"}, {"a", ""}, {"c", "100%"}};
  const std::string line = EncodeRecord("head x", fields);
  EXPECT_EQ(line, "head%20x a= b=two%20words c=100%25");
  const Result<TextRecord> back = DecodeRecord(line);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->head, "head x");
  EXPECT_EQ(back->fields, fields);
  for (const char* bad : {"", "h a=1 a=2", "h =1", "h novalue", "h a=%g1"}) {
    EXPECT_FALSE(DecodeRecord(bad).ok()) << "'" << bad << "'";
  }
}

TEST(TextCodec, FieldReaderKeepsTheFirstError) {
  const Result<TextRecord> record = DecodeRecord("job n=7 t=1.5 big=99999999999999999999");
  ASSERT_TRUE(record.ok());
  FieldReader ok_reader(record->fields, "job");
  EXPECT_EQ(ok_reader.Int("n"), 7);
  EXPECT_EQ(ok_reader.Double("t"), 1.5);
  EXPECT_TRUE(ok_reader.status().ok());
  FieldReader bad_reader(record->fields, "job");
  EXPECT_EQ(bad_reader.Int("big"), 0);
  EXPECT_EQ(bad_reader.Int("missing"), 0);
  EXPECT_EQ(bad_reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_reader.status().message().find("'big'"), std::string::npos)
      << bad_reader.status().ToString();
}

TEST(Json, WriterOutputParsesBackToTheSameValues) {
  std::string controls;
  for (int b = 0; b < 0x20; ++b) {
    controls += static_cast<char>(b);
  }
  const std::string tricky = controls + "\"quoted\" back\\slash /é";
  JsonValue inner = JsonValue::Object(/*one_line=*/true);
  inner.Set("k\"ey", JsonValue::Int(-7)).Set("list", JsonValue::Array().Push(JsonValue::Int(1)));
  JsonValue doc = JsonValue::Object();
  doc.Set("text", JsonValue::String(tricky))
      .Set(tricky, JsonValue::Bool(true))
      .Set("min", JsonValue::Int(std::numeric_limits<std::int64_t>::min()))
      .Set("max", JsonValue::Int(std::numeric_limits<std::int64_t>::max()))
      .Set("tenth", JsonValue::Number(0.1))
      .Set("nan", JsonValue::Number(std::nan("")))
      .Set("inf", JsonValue::Number(-std::numeric_limits<double>::infinity()))
      .Set("empty_object", JsonValue::Object())
      .Set("empty_array", JsonValue::Array(/*one_line=*/true))
      .Set("inner", std::move(inner));
  const std::string text = doc.Format();
  for (const char c : text) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control byte " << static_cast<int>(c) << " in the output";
  }
  const Result<JsonValue> back = ParseJson(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
  EXPECT_EQ(back->Find("text")->text(), tricky);
  ASSERT_NE(back->Find(tricky), nullptr);
  EXPECT_EQ(back->Find(tricky)->kind(), JsonValue::Kind::kBool);
  EXPECT_EQ(back->Find(tricky)->text(), "true");
  EXPECT_EQ(*ParseInt(back->Find("min")->text()), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(*ParseInt(back->Find("max")->text()), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(back->Find("tenth")->text(), "0.1");
  EXPECT_EQ(back->Find("nan")->kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(back->Find("inf")->kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(back->Find("empty_object")->members().empty());
  EXPECT_TRUE(back->Find("empty_array")->items().empty());
  const JsonValue* parsed_inner = back->Find("inner");
  ASSERT_NE(parsed_inner, nullptr);
  EXPECT_EQ(parsed_inner->Find("k\"ey")->text(), "-7");
  EXPECT_EQ(parsed_inner->Find("list")->items().at(0).text(), "1");
  EXPECT_EQ(back->members().size(), doc.members().size());
  // Layout: two-space indent, one-line containers inline, {} and [] empty.
  EXPECT_NE(text.find("\n  \"empty_object\": {},\n  \"empty_array\": [],\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  \"inner\": {\"k\\\"ey\": -7, \"list\": [1]}\n}"), std::string::npos)
      << text;
  EXPECT_EQ(JsonValue::String("a\nb\x01").Format(), "\"a\\nb\\u0001\"");
}

TEST(Json, ReaderAcceptsStandardJson) {
  const Result<JsonValue> doc = ParseJson(
      " {\"a\": [0, -0.5e+3, 1E2, true, false, null, \"\\u00e9\\ud83d\\ude00\\/\\t\"],"
      "\"big\": 18446744073709551615, \"low\": -9223372036854775808}\n");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::vector<JsonValue>& a = doc->Find("a")->items();
  ASSERT_EQ(a.size(), 7u);
  EXPECT_EQ(a[1].text(), "-0.5e+3");  // Numbers keep their source token.
  EXPECT_EQ(a[2].text(), "1E2");
  EXPECT_EQ(a[5].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(a[6].text(), "\xc3\xa9\xf0\x9f\x98\x80/\t");
  EXPECT_EQ(doc->Find("big")->text(), "18446744073709551615");
  EXPECT_EQ(doc->Find("missing"), nullptr);
  const std::string deepest = std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(deepest).ok());
}

TEST(Json, ReaderRejectsMalformedInputWithAStatus) {
  const std::string raw_control = std::string("\"a") + '\x01' + "\"";
  const std::string too_deep =
      std::string(kMaxJsonDepth + 1, '[') + std::string(kMaxJsonDepth + 1, ']');
  const std::string hostile_depth(100000, '[');
  const std::string bad[] = {
      "", " ", "{", "[1,]", "[1 2]", "{\"a\" 1}", "{\"a\": 1,}", "{'a': 1}", "{a: 1}",
      "{\"a\": 1, \"a\": 2}",                      // Duplicate key.
      "{} x", "[1] [2]", "1 2", "null,",           // Trailing bytes.
      "\"a\nb\"", "\"tab\there\"", raw_control,    // Raw control bytes.
      "+1", "[+1]", "01", "-01", "[00]", "-", "1.", ".5", "1e", "1e+", "0x10",
      "NaN", "nan", "Infinity", "-Infinity", "inf",
      "1e999", "-1e999", "99999999999999999999", "-9223372036854775809",  // Overflow.
      "\"\\x\"", "\"\\u12\"", "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"open",
      "tru", "nul", "True",
      too_deep, hostile_depth};
  for (const std::string& text : bad) {
    const Result<JsonValue> parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << "accepted '" << text.substr(0, 40) << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_NE(ParseJson("{\"a\": 1, \"a\": 2}").status().message().find("duplicate key 'a'"),
            std::string::npos);
}

// The v2 report layout, byte for byte: key order, two-space indent, %.6g
// doubles, exact integers, null for an empty summary, and the one-line
// per-zone loss map.
TEST(Json, RunReportLayoutIsPinned) {
  RunReport report;
  report.label = "fifo+silod";
  report.engine = "flow";
  report.jobs = 3;
  report.unfinished_jobs = 1;
  report.jct.finished = 2;
  report.jct.avg_jct_min = 2;
  report.jct.p50_jct_min = 2;
  report.jct.p90_jct_min = 2.4;
  report.jct.p95_jct_min = 2.45;
  report.jct.p99_jct_min = 2.4912345;
  report.jct.avg_queue_min = 0.25;
  report.jct.avg_run_min = 1.75;
  report.tenants.push_back(TenantSummary{"-", JctSummary{}});
  report.makespan_min = 12.25;
  report.avg_fairness = 0.5;
  report.faults.server_crashes = 1;
  report.faults.blocks_lost = 5;
  report.faults.bytes_lost = 1.5e9;
  report.faults.blocks_lost_by_zone = {{"rack0", 3}, {"rack1", 2}};
  report.AddExtra("events", std::int64_t{1234567890123});
  report.AddExtra("topology", std::string("rack0=0-3"));
  report.AddExtra("timed_out", false);
  EXPECT_EQ(report.ToJson().Format(), R"({
  "report_version": 2,
  "label": "fifo+silod",
  "engine": "flow",
  "jobs": 3,
  "unfinished_jobs": 1,
  "jct": {
    "finished": 2,
    "avg_jct_min": 2,
    "p50_jct_min": 2,
    "p90_jct_min": 2.4,
    "p95_jct_min": 2.45,
    "p99_jct_min": 2.49123,
    "avg_queue_min": 0.25,
    "avg_run_min": 1.75
  },
  "tenants": {
    "-": {
      "finished": 0,
      "avg_jct_min": null,
      "p50_jct_min": null,
      "p90_jct_min": null,
      "p95_jct_min": null,
      "p99_jct_min": null,
      "avg_queue_min": null,
      "avg_run_min": null
    }
  },
  "makespan_min": 12.25,
  "avg_fairness": 0.5,
  "faults": {
    "server_crashes": 1,
    "server_recoveries": 0,
    "worker_crashes": 0,
    "worker_restarts": 0,
    "degrade_windows": 0,
    "dm_restarts": 0,
    "ignored_events": 0,
    "blocks_lost": 5,
    "bytes_lost": 1.5e+09,
    "blocks_refetched": 0,
    "compute_lost": 0,
    "blocks_lost_by_zone": {"rack0": 3, "rack1": 2}
  },
  "events": 1234567890123,
  "topology": "rack0=0-3",
  "timed_out": false
})");
}

TEST(Flags, NumericFlagsRejectMalformedValues) {
  const auto parse = [](const char* arg) {
    FlagSet flags;
    flags.Define("gpus", "8", "gpu count");
    flags.Define("policy", "fifo+silod", "policy");
    const char* argv[] = {"prog", arg};
    return flags.Parse(2, argv);
  };
  for (const char* bad : {"--gpus=16x", "--gpus=abc", "--gpus=", "--gpus=0x10"}) {
    EXPECT_FALSE(parse(bad).ok()) << bad;
  }
  for (const char* good : {"--gpus=16", "--gpus=1.5", "--gpus=nan", "--policy=16x"}) {
    EXPECT_TRUE(parse(good).ok()) << good;
  }
  FlagSet flags;
  flags.Define("jobs", "20", "jobs");
  const char* argv[] = {"prog", "--jobs=1.5"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_EQ(flags.GetInt("jobs"), 1);  // Fractional values truncate.
  EXPECT_FALSE(flags.GetIntInRange("jobs").ok()) << "the range-checked getter does not";
}

TEST(Flags, GetIntInRangeRejectsValuesPastTheRange) {
  const auto get = [](const char* value, int min, int max) {
    FlagSet flags;
    flags.Define("jobs", "20", "jobs");
    const std::string arg = std::string("--jobs=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_TRUE(flags.Parse(2, argv).ok()) << value;
    return flags.GetIntInRange("jobs", min, max);
  };
  EXPECT_EQ(*get("7", 1, 8), 7);
  EXPECT_EQ(*get("-2147483648", INT_MIN, INT_MAX), INT_MIN);
  for (const char* bad : {"4294967297", "4294967312", "-4294967297", "2147483648", "1.5", "1e3",
                          "nan", "0", "9"}) {
    const Result<int> value = get(bad, 1, 8);
    ASSERT_FALSE(value.ok()) << bad;
    EXPECT_NE(value.status().message().find("--jobs"), std::string::npos)
        << value.status().message();
  }
}

TEST(Flags, GetU64RejectsNegativeFractionalAndOversizedValues) {
  const auto get = [](const char* value, std::uint64_t max) {
    FlagSet flags;
    flags.Define("seed", "3", "seed");
    const std::string arg = std::string("--seed=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_TRUE(flags.Parse(2, argv).ok()) << value;
    return flags.GetU64("seed", max);
  };
  EXPECT_EQ(*get("18446744073709551615", UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(*get("1024", 1024), 1024u);
  for (const char* bad : {"-1", "1.5", "nan", "18446744073709551616", "1025"}) {
    const Result<std::uint64_t> value = get(bad, 1024);
    ASSERT_FALSE(value.ok()) << bad;
    EXPECT_NE(value.status().message().find("--seed"), std::string::npos)
        << value.status().message();
  }
}

// ---------------------------------------------------------------- Backoff --

TEST(Backoff, JitterlessSequenceIsExactlyBaseTimesPowersCapped) {
  BackoffOptions options;
  options.base = 0.002;
  options.cap = 0.1;
  Backoff backoff(options);
  // base, base*2, base*4, ... capped at 0.1 — bit-identical to the
  // historical loader retry loop (first delay == base).
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.002);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.004);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.008);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.016);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.032);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.064);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.1);  // 0.128 capped.
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.1);  // Stays at the cap.
  EXPECT_FALSE(backoff.exhausted());           // max_attempts == 0: unbounded.
}

TEST(Backoff, MaxAttemptsExhaustsAndResetRestarts) {
  BackoffOptions options;
  options.base = 0.01;
  options.cap = 1.0;
  options.max_attempts = 3;
  Backoff backoff(options);
  EXPECT_FALSE(backoff.exhausted());
  backoff.NextDelay();
  backoff.NextDelay();
  EXPECT_FALSE(backoff.exhausted());
  backoff.NextDelay();
  EXPECT_TRUE(backoff.exhausted());
  EXPECT_EQ(backoff.attempts(), 3);
  backoff.Reset();
  EXPECT_FALSE(backoff.exhausted());
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.01);  // Back to the base.
}

TEST(Backoff, JitterScalesEachDelayWithinTheHalfWidth) {
  BackoffOptions options;
  options.base = 0.01;
  options.cap = 10.0;
  options.jitter = 0.25;
  Rng rng(42);
  Backoff backoff(options, &rng);
  double expected_center = 0.01;
  for (int i = 0; i < 8; ++i) {
    const Seconds delay = backoff.NextDelay();
    EXPECT_GE(delay, expected_center * 0.75) << "attempt " << i;
    EXPECT_LE(delay, expected_center * 1.25) << "attempt " << i;
    expected_center *= 2;
  }
}

TEST(Backoff, JitterIsDeterministicPerRngSeed) {
  BackoffOptions options;
  options.jitter = 0.5;
  Rng rng_a(7);
  Rng rng_b(7);
  Backoff a(options, &rng_a);
  Backoff b(options, &rng_b);
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDelay(), b.NextDelay()) << "attempt " << i;
  }
}

}  // namespace
}  // namespace silod
