#include "src/storage/remote_store.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace silod {

BytesPerSec WaterLevel(std::span<const BytesPerSec> sorted_wants, BytesPerSec capacity) {
  const std::size_t n = sorted_wants.size();
  // Zero wants sort first and take no share.
  std::size_t idx = 0;
  while (idx < n && !(sorted_wants[idx] > 0)) {
    ++idx;
  }
  // Progressive filling: repeatedly grant the smallest unmet want to all
  // unsatisfied flows; flows reaching their want leave the filling.
  double remaining = capacity;
  double level = 0.0;  // Water level granted so far to every unsatisfied flow.
  while (idx < n && remaining > 0) {
    const std::size_t remaining_flows = n - idx;
    const double next = sorted_wants[idx];
    const double step = next - level;
    const double fill = remaining / static_cast<double>(remaining_flows);
    if (std::isinf(next) || fill < step) {
      level += fill;
      break;
    }
    level = next;
    remaining -= step * static_cast<double>(remaining_flows);
    // All flows whose want equals the new level are satisfied.
    while (idx < n && sorted_wants[idx] <= level) {
      ++idx;
    }
  }
  // A satisfied flow's want is at most the final level and an unsatisfied
  // one's at least it, so min(want, level) is every flow's rate.
  return level;
}

void MaxMinShare(std::span<const BytesPerSec> demands, std::span<const BytesPerSec> caps,
                 BytesPerSec capacity, std::vector<BytesPerSec>* sorted,
                 std::vector<BytesPerSec>* rates) {
  SILOD_CHECK(caps.empty() || demands.size() == caps.size()) << "demands/caps size mismatch";
  const std::size_t n = demands.size();
  rates->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const BytesPerSec cap = caps.empty() ? kUnlimitedRate : caps[i];
    SILOD_CHECK(demands[i] >= 0 && cap >= 0) << "negative demand or cap";
    (*rates)[i] = std::min(demands[i], cap);
  }
  sorted->assign(rates->begin(), rates->end());
  std::sort(sorted->begin(), sorted->end());
  const BytesPerSec level = WaterLevel(*sorted, capacity);
  for (BytesPerSec& rate : *rates) {
    rate = rate > 0 ? std::min(rate, level) : 0.0;
  }
}

RemoteStore::RemoteStore(BytesPerSec egress_limit) : egress_limit_(egress_limit) {
  SILOD_CHECK(egress_limit > 0) << "egress limit must be positive";
}

void RemoteStore::SetJobThrottle(JobId job, BytesPerSec rate) {
  SILOD_CHECK(job >= 0) << "invalid job id";
  SILOD_CHECK(rate >= 0) << "negative throttle";
  if (static_cast<std::size_t>(job) >= throttles_.size()) {
    throttles_.resize(static_cast<std::size_t>(job) + 1, kUnlimitedRate);
  }
  throttles_[static_cast<std::size_t>(job)] = rate;
}

void RemoteStore::ClearJobThrottle(JobId job) {
  if (job >= 0 && static_cast<std::size_t>(job) < throttles_.size()) {
    throttles_[static_cast<std::size_t>(job)] = kUnlimitedRate;
  }
}

std::vector<std::pair<JobId, BytesPerSec>> RemoteStore::Throttles() const {
  std::vector<std::pair<JobId, BytesPerSec>> out;
  for (std::size_t i = 0; i < throttles_.size(); ++i) {
    if (!std::isinf(throttles_[i])) {
      out.emplace_back(static_cast<JobId>(i), throttles_[i]);
    }
  }
  return out;
}

BytesPerSec RemoteStore::JobThrottle(JobId job) const {
  if (job < 0 || static_cast<std::size_t>(job) >= throttles_.size()) {
    return kUnlimitedRate;
  }
  return throttles_[static_cast<std::size_t>(job)];
}

}  // namespace silod
