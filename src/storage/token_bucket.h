// Token bucket rate limiter.
//
// Used in two places:
//   - virtual time: the fine simulation engine throttles each job's remote
//     fetches to its allocated remote-IO rate (the FUSE client behaviour of
//     §6) by asking when a transfer of B bytes may complete;
//   - wall-clock time: the real-time runtime (rt/rt_cluster.h) enforces each
//     job's throttle and the remote store's egress limit by sleeping until
//     tokens are available.
//
// The bucket is driven explicitly by the caller's clock so the same
// implementation serves both.
#ifndef SILOD_SRC_STORAGE_TOKEN_BUCKET_H_
#define SILOD_SRC_STORAGE_TOKEN_BUCKET_H_

#include "src/common/units.h"

namespace silod {

class TokenBucket {
 public:
  // `rate` tokens (bytes) per second; `burst` is the bucket capacity.  The
  // bucket starts full.  rate may be kUnlimitedRate.
  TokenBucket(BytesPerSec rate, Bytes burst);

  // Changes the fill rate going forward (allocation changes at scheduler
  // ticks); accrues tokens up to `now` under the old rate first.
  void SetRate(BytesPerSec rate, Seconds now);

  // Earliest time >= now at which `bytes` tokens can be consumed, without
  // consuming them.
  Seconds TimeToAdmit(Bytes bytes, Seconds now) const;

  // Consumes `bytes` tokens at time `t` (t must be >= the admit time, which
  // callers obtain from TimeToAdmit).  The balance may go to exactly zero,
  // never negative.
  void Consume(Bytes bytes, Seconds t);

  // Current token balance at `now` (diagnostics, tests).
  double TokensAt(Seconds now) const;

  BytesPerSec rate() const { return rate_; }

 private:
  void AdvanceTo(Seconds now);

  BytesPerSec rate_;
  double burst_;
  double tokens_;
  Seconds last_update_ = 0;
};

}  // namespace silod

#endif  // SILOD_SRC_STORAGE_TOKEN_BUCKET_H_
