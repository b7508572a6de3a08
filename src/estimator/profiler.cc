#include "src/estimator/profiler.h"

#include <algorithm>

#include "src/common/logging.h"

namespace silod {

OnlineBenefitProfiler::OnlineBenefitProfiler(double relative_noise, std::uint64_t seed)
    : relative_noise_(relative_noise), rng_(seed) {
  SILOD_CHECK(relative_noise >= 0 && relative_noise < 1) << "bad relative noise";
}

double OnlineBenefitProfiler::MeasureBenefit(double true_benefit) {
  SILOD_CHECK(true_benefit >= 0) << "negative benefit";
  const double factor = 1.0 + rng_.Uniform(-relative_noise_, relative_noise_);
  return std::max(0.0, true_benefit * factor);
}

}  // namespace silod
