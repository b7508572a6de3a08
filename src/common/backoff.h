// Bounded exponential backoff, shared by every retry loop that sleeps.
//
// Two consumers with the same shape: the RtCluster loader retrying transient
// remote-read errors (delay only, unbounded attempts) and the NodeManager
// respawning a worker process that died unexpectedly (jittered delay, capped
// attempts).  Factored here so the policy — base, cap, jitter, attempt
// budget — is one tested implementation instead of per-site copies.
//
// With jitter == 0 the delay sequence is exactly
//   base, base*2, base*4, ...   capped at `cap`,
// which is bit-identical to the historical loader loop (first delay == base).
// Jitter > 0 scales each delay uniformly in [1 - jitter, 1 + jitter] using a
// caller-provided Rng, so respawn stampedes decorrelate deterministically.
#ifndef SILOD_SRC_COMMON_BACKOFF_H_
#define SILOD_SRC_COMMON_BACKOFF_H_

#include "src/common/rng.h"
#include "src/common/units.h"

namespace silod {

struct BackoffOptions {
  Seconds base = 0.002;
  Seconds cap = 0.1;
  // Uniform scale half-width in [0, 1): each delay is multiplied by a draw
  // from [1 - jitter, 1 + jitter].  Requires an Rng when > 0.
  double jitter = 0.0;
  // Attempts before exhausted(); 0 = unbounded.
  int max_attempts = 0;
};

class Backoff {
 public:
  // `rng` may be null iff options.jitter == 0; the pointer is borrowed and
  // must outlive the Backoff.
  explicit Backoff(BackoffOptions options, Rng* rng = nullptr);

  // The delay before the next attempt; advances the attempt counter.  Callers
  // should check exhausted() first — NextDelay past the budget keeps
  // returning the capped delay.
  Seconds NextDelay();

  bool exhausted() const {
    return options_.max_attempts > 0 && attempts_ >= options_.max_attempts;
  }
  int attempts() const { return attempts_; }
  void Reset() { attempts_ = 0; }

 private:
  BackoffOptions options_;
  Rng* rng_;
  int attempts_ = 0;
};

}  // namespace silod

#endif  // SILOD_SRC_COMMON_BACKOFF_H_
