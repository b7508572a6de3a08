// IOPerf: the closed-form analytic model of §4.
//
// For a training job with ideal (compute-bound) throughput f*, dataset size d,
// cache allocation c and remote-IO allocation b:
//
//   Eq. 2:  remote IO demand      b(f)   = f * (1 - c/d)
//   Eq. 3:  IO throughput         IOPerf = b / (1 - c/d)
//   Eq. 4:  end-to-end throughput SiloDPerf = min(f*, b / (1 - c/d))
//   Eq. 5:  cache efficiency      -db/dc = f* / d
//
// All throughputs are bytes of training data per second.  When c >= d the
// dataset is fully cached and IO throughput is unbounded (the local fabric is
// modelled separately); SiloDPerf then equals f*.
//
// Heterogeneous fleets enter the model through one substitution: a job held
// on a GPU type with relative speed s computes at an *effective* ideal rate
// f*·s, and every closed form above holds with f* replaced by f*·s (the
// cache/IO terms are GPU-agnostic).  The speed-taking overloads below make
// that substitution explicit; at s = 1 the multiply is an exact no-op
// (IEEE-754: x * 1.0 == x), so uniform fleets stay bit-identical.
#ifndef SILOD_SRC_ESTIMATOR_IOPERF_H_
#define SILOD_SRC_ESTIMATOR_IOPERF_H_

#include <cstddef>
#include <vector>

#include "src/common/units.h"

namespace silod {

// Eq. 2: remote IO consumed when loading at rate f with cache c over dataset d.
BytesPerSec RemoteIoDemand(BytesPerSec f, Bytes cache, Bytes dataset);

// Eq. 3: data-loading throughput achievable with remote-IO allocation b and
// cache c over dataset d.  Returns kUnlimitedRate when c >= d.
BytesPerSec IoThroughput(BytesPerSec remote_io, Bytes cache, Bytes dataset);

// Eq. 4: end-to-end training throughput.
BytesPerSec SiloDPerfThroughput(BytesPerSec ideal, BytesPerSec remote_io, Bytes cache,
                                Bytes dataset);

// Eq. 5: remote IO saved per byte of cache (units 1/s).  Multiply by
// kGB/kMB via CacheEfficiencyMBpsPerGB for the Fig. 6 presentation.
double CacheEfficiency(BytesPerSec ideal, Bytes dataset);

// Fig. 6 units: MB/s of remote IO saved per GB of cache.
double CacheEfficiencyMBpsPerGB(BytesPerSec ideal, Bytes dataset);

// Minimum remote-IO allocation needed to sustain end-to-end throughput
// `target` (<= ideal) with cache c over dataset d.  Inverse of Eq. 3.
BytesPerSec RequiredRemoteIo(BytesPerSec target, Bytes cache, Bytes dataset);

// The effective ideal rate of a job with uniform ideal f* held on a GPU type
// with relative speed `speed` — the f*·s substitution above, in one place.
inline BytesPerSec EffectiveIdeal(BytesPerSec ideal, double speed) { return ideal * speed; }

// Eq. 2 / Eq. 4 / Eq. 5 at the effective ideal rate f*·s.
BytesPerSec RemoteIoDemand(BytesPerSec ideal, double speed, Bytes cache, Bytes dataset);
BytesPerSec SiloDPerfThroughput(BytesPerSec ideal, double speed, BytesPerSec remote_io,
                                Bytes cache, Bytes dataset);
double CacheEfficiency(BytesPerSec ideal, double speed, Bytes dataset);

// Batched evaluation of the Eq. 2-4 closed forms over a set of jobs, stored
// as parallel arrays (ideal rate, cache bytes, dataset size per entry).
//
// A reschedule over N running jobs evaluates the same formulas N times;
// filling one batch and sweeping it keeps the hot loop over dense arrays
// instead of re-walking job views and catalog lookups per call.
// Every method delegates entry-wise to the scalar functions above, in index
// order, so results (including floating-point summation order) are
// bit-identical to the equivalent scalar loop.
class EstimatorBatch {
 public:
  // Appends one job's operating point; returns its index.
  std::size_t Add(BytesPerSec ideal, Bytes cache, Bytes dataset);
  // Same, at the effective ideal rate f*·s of a job held on a GPU type with
  // relative speed `speed` (exact no-op at speed 1).
  std::size_t Add(BytesPerSec ideal, double speed, Bytes cache, Bytes dataset) {
    return Add(EffectiveIdeal(ideal, speed), cache, dataset);
  }

  std::size_t size() const { return ideal_.size(); }

  // Eq. 2 at each entry's ideal rate (the entry's maximum useful remote IO,
  // before any per-job cap).
  void RemoteIoDemands(std::vector<BytesPerSec>* out) const;

  // Eq. 4 at each entry's granted remote IO.
  void Throughputs(const std::vector<BytesPerSec>& remote_io,
                   std::vector<BytesPerSec>* out) const;

 private:
  std::vector<BytesPerSec> ideal_;
  std::vector<Bytes> cache_;
  std::vector<Bytes> dataset_;
};

}  // namespace silod

#endif  // SILOD_SRC_ESTIMATOR_IOPERF_H_
