// Metric values, the tail-percentile rule, and the result line.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A nearest-rank percentile together with what it rests on.
struct Percentile {
  double value = 0;
  double percentile = 0;    // The percentile actually reported.
  std::size_t samples = 0;  // Sample count it was taken over.
};

// The requested percentile `p` of `samples` by nearest rank, lowered when
// needed to the highest percentile that leaves at least ten samples beyond
// it (a p99 needs 1000 samples).  With fewer than eleven samples no
// percentile qualifies and the median is reported.  Empty input yields zeros.
Percentile TailPercentile(std::vector<double> samples, double p);

// The 50th percentile by linear interpolation; 0 for empty input.
double Median(std::vector<double> samples);
// The mean of the middle half of the sorted samples (with fewer than four
// samples, the median); 0 for empty input.
double InterquartileMean(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// Metric names are [A-Za-z0-9_.-]+ and start with a letter or digit.
bool ValidMetricName(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// An ordered list of named metrics; names are unique.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  double Get(const std::string& name) const;  // 0 when absent.
  const std::vector<Metric>& all() const { return metrics_; }

  // Multiplies every time (units s, ms, us, ns) by `factor` and divides
  // every rate (unit 1/s) by it; other units are left alone.
  void ScaleTimes(double factor);

  // Per-metric median / interquartile mean over a list of sets; the first
  // set fixes order and units.
  static MetricSet MedianOf(const std::vector<MetricSet>& sets);
  static MetricSet InterquartileMeanOf(const std::vector<MetricSet>& sets);

 private:
  std::vector<Metric> metrics_;
};

// The benchmark's last stdout line:
// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}.
std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
