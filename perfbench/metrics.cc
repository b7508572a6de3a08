#include "metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"

namespace perfbench {

Percentile TailPercentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  constexpr std::size_t kBeyond = 10;
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kBeyond) {
    rank = n > kBeyond ? n - kBeyond : (n + 1) / 2;
  }
  out.value = samples[rank - 1];
  out.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double InterquartileMean(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n < 4) {
    return Median(std::move(samples));
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t drop = n / 4;
  double sum = 0;
  for (std::size_t i = drop; i < n - drop; ++i) {
    sum += samples[i];
  }
  return sum / static_cast<double>(n - 2 * drop);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double sum = 0;
  for (const double s : samples) {
    sum += s;
  }
  return sum / static_cast<double>(samples.size());
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  SILOD_CHECK(ValidMetricName(name)) << "bad metric name " << name;
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

double MetricSet::Get(const std::string& name) const {
  const Metric* m = Find(name);
  return m != nullptr ? m->value : 0;
}

void MetricSet::ScaleTimes(double factor) {
  for (Metric& m : metrics_) {
    if (m.unit == "s" || m.unit == "ms" || m.unit == "us" || m.unit == "ns") {
      m.value *= factor;
    } else if (m.unit == "1/s") {
      m.value /= factor;
    }
  }
}

namespace {

MetricSet Combine(const std::vector<MetricSet>& sets, double (*combine)(std::vector<double>)) {
  MetricSet out;
  if (sets.empty()) {
    return out;
  }
  for (const Metric& m : sets.front().all()) {
    std::vector<double> values;
    for (const MetricSet& set : sets) {
      if (const Metric* r = set.Find(m.name)) {
        values.push_back(r->value);
      }
    }
    out.Set(m.name, combine(std::move(values)), m.unit);
  }
  return out;
}

}  // namespace

MetricSet MetricSet::MedianOf(const std::vector<MetricSet>& sets) {
  return Combine(sets, Median);
}

MetricSet MetricSet::InterquartileMeanOf(const std::vector<MetricSet>& sets) {
  return Combine(sets, InterquartileMean);
}

std::string ResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const MetricSet& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    char value[64];
    // %.17g keeps every digit; non-finite values are not JSON, so report 0.
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    line += (first ? "" : ", ");
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  return line;
}

}  // namespace perfbench
