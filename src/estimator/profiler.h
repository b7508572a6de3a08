// Quiver's online cache-benefit profiling.
//
// Two profiling regimes matter in the paper:
//   - SiloD profiles each model's ideal throughput f* OFFLINE; it is highly
//     stable ("a job's ideal training speed and its dataset size ... can be
//     obtained robustly offline", §7.1.2), so SiloD's allocation inputs are
//     reliable, and the schedulers read f* straight from the job spec.
//   - Quiver estimates a dataset's caching benefit ONLINE from observed
//     latencies, which fluctuates with the very contention the allocation is
//     trying to fix ("not stable when the remote IO fluctuates", §7.1.2),
//     causing unstable caching priorities and wrong evictions.
//
// OnlineBenefitProfiler adds round-to-round noise to cache-benefit
// estimates, giving the Quiver baseline its paper-observed instability.
#ifndef SILOD_SRC_ESTIMATOR_PROFILER_H_
#define SILOD_SRC_ESTIMATOR_PROFILER_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace silod {

class OnlineBenefitProfiler {
 public:
  // `relative_noise` is the per-measurement fractional noise (Quiver's online
  // latency profiling); re-drawn on every call, so rankings churn.
  OnlineBenefitProfiler(double relative_noise, std::uint64_t seed);

  // Noisy estimate of a dataset's benefit-per-byte given its true value.
  double MeasureBenefit(double true_benefit);

 private:
  double relative_noise_;
  Rng rng_;
};

}  // namespace silod

#endif  // SILOD_SRC_ESTIMATOR_PROFILER_H_
