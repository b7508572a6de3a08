#include "src/estimator/ioperf.h"

#include <algorithm>

#include "src/common/logging.h"

namespace silod {
namespace {

double MissRatio(Bytes cache, Bytes dataset) {
  SILOD_CHECK(dataset > 0) << "dataset size must be positive";
  SILOD_CHECK(cache >= 0) << "cache size must be nonnegative";
  const double hit = std::min(1.0, static_cast<double>(cache) / static_cast<double>(dataset));
  return 1.0 - hit;
}

}  // namespace

BytesPerSec RemoteIoDemand(BytesPerSec f, Bytes cache, Bytes dataset) {
  SILOD_CHECK(f >= 0) << "negative loading rate";
  return f * MissRatio(cache, dataset);
}

BytesPerSec IoThroughput(BytesPerSec remote_io, Bytes cache, Bytes dataset) {
  SILOD_CHECK(remote_io >= 0) << "negative remote IO allocation";
  const double miss = MissRatio(cache, dataset);
  if (miss <= 0.0) {
    return kUnlimitedRate;
  }
  return remote_io / miss;
}

BytesPerSec SiloDPerfThroughput(BytesPerSec ideal, BytesPerSec remote_io, Bytes cache,
                                Bytes dataset) {
  SILOD_CHECK(ideal >= 0) << "negative ideal throughput";
  return std::min(ideal, IoThroughput(remote_io, cache, dataset));
}

double CacheEfficiency(BytesPerSec ideal, Bytes dataset) {
  SILOD_CHECK(dataset > 0) << "dataset size must be positive";
  SILOD_CHECK(ideal >= 0) << "negative ideal throughput";
  return ideal / static_cast<double>(dataset);
}

double CacheEfficiencyMBpsPerGB(BytesPerSec ideal, Bytes dataset) {
  return ToMBps(ideal) / ToGB(dataset);
}

BytesPerSec RequiredRemoteIo(BytesPerSec target, Bytes cache, Bytes dataset) {
  SILOD_CHECK(target >= 0) << "negative target throughput";
  return target * MissRatio(cache, dataset);
}

BytesPerSec RemoteIoDemand(BytesPerSec ideal, double speed, Bytes cache, Bytes dataset) {
  return RemoteIoDemand(EffectiveIdeal(ideal, speed), cache, dataset);
}

BytesPerSec SiloDPerfThroughput(BytesPerSec ideal, double speed, BytesPerSec remote_io,
                                Bytes cache, Bytes dataset) {
  return SiloDPerfThroughput(EffectiveIdeal(ideal, speed), remote_io, cache, dataset);
}

double CacheEfficiency(BytesPerSec ideal, double speed, Bytes dataset) {
  return CacheEfficiency(EffectiveIdeal(ideal, speed), dataset);
}

std::size_t EstimatorBatch::Add(BytesPerSec ideal, Bytes cache, Bytes dataset) {
  ideal_.push_back(ideal);
  cache_.push_back(cache);
  dataset_.push_back(dataset);
  return ideal_.size() - 1;
}

void EstimatorBatch::RemoteIoDemands(std::vector<BytesPerSec>* out) const {
  out->resize(size());
  for (std::size_t i = 0; i < size(); ++i) {
    (*out)[i] = RemoteIoDemand(ideal_[i], cache_[i], dataset_[i]);
  }
}

void EstimatorBatch::Throughputs(const std::vector<BytesPerSec>& remote_io,
                                 std::vector<BytesPerSec>* out) const {
  SILOD_CHECK(remote_io.size() == size()) << "remote_io size mismatch";
  out->resize(size());
  for (std::size_t i = 0; i < size(); ++i) {
    (*out)[i] = SiloDPerfThroughput(ideal_[i], remote_io[i], cache_[i], dataset_[i]);
  }
}

}  // namespace silod
