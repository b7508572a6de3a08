#include "src/common/backoff.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace silod {
namespace {

// Each attempt's delay is the previous one's times this, before the cap.
constexpr double kMultiplier = 2.0;

}  // namespace

Backoff::Backoff(BackoffOptions options, Rng* rng) : options_(options), rng_(rng) {
  SILOD_CHECK(options_.base >= 0) << "negative backoff base";
  SILOD_CHECK(options_.cap >= options_.base) << "backoff cap below base";
  SILOD_CHECK(options_.jitter >= 0 && options_.jitter < 1) << "jitter out of [0, 1)";
  SILOD_CHECK(options_.jitter == 0 || rng_ != nullptr) << "jitter requires an Rng";
}

Seconds Backoff::NextDelay() {
  // base * 2^attempts, computed without pow-drift: capped multiply.
  Seconds delay = options_.base;
  for (int i = 0; i < attempts_ && delay < options_.cap; ++i) {
    delay *= kMultiplier;
  }
  delay = std::min(options_.cap, delay);
  if (options_.jitter > 0) {
    delay *= rng_->Uniform(1.0 - options_.jitter, 1.0 + options_.jitter);
  }
  ++attempts_;
  return delay;
}

}  // namespace silod
