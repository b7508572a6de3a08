// Statistics helpers used by the metrics layer and benchmarks:
//   - RunningStat: streaming mean/variance/min/max (Welford).
//   - SampleSet: stores samples, provides percentiles and a CDF dump.
//   - TimeSeries: (time, value) pairs with time-weighted averaging, used for
//     throughput timelines, fairness-ratio-over-time, effective-cache plots.
#ifndef SILOD_SRC_COMMON_STATS_H_
#define SILOD_SRC_COMMON_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace silod {

class RunningStat {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // Sample variance (n - 1 denominator); 0 for n < 2.
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

class SampleSet {
 public:
  void Add(double x);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  // Percentile by linear interpolation between closest ranks; p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  // Evenly spaced CDF points: (value, cumulative fraction).
  std::vector<std::pair<double, double>> Cdf(std::size_t points) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Sorts the lazily maintained sample buffer in place.  Both members are
  // `mutable` because sorting is a cache refresh, not an observable state
  // change: every const accessor returns the same values before and after.
  // Not thread-safe — concurrent const calls (Percentile, Cdf, samples) may
  // race on the sort; SampleSet, like the rest of the metrics layer, is
  // single-threaded by contract.
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// A piecewise-constant time series: the value recorded at time t holds until
// the next recording.  Recordings must be non-decreasing in time.
class TimeSeries {
 public:
  void Record(Seconds t, double value);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<std::pair<Seconds, double>>& points() const { return points_; }

  // Value in effect at time t (last recording at or before t); 0 before the
  // first recording.
  double ValueAt(Seconds t) const;

  // Time-weighted average over [from, to].
  double TimeAverage(Seconds from, Seconds to) const;

  // Downsample to at most `max_points` evenly spaced samples over the recorded
  // span, for printing benchmark series.
  std::vector<std::pair<Seconds, double>> Downsample(std::size_t max_points) const;

 private:
  std::vector<std::pair<Seconds, double>> points_;
};

}  // namespace silod

#endif  // SILOD_SRC_COMMON_STATS_H_
