// The quota-spreading rule for zone-aware cache placement (docs/MODEL.md §8).
//
// Given a ClusterTopology (failure domains with a per-zone loss bound) and
// the cluster cache total, a ZoneSpreader splits each dataset's quota into
// per-zone shares such that
//
//   1. no zone holds more than `loss_bound * quota` of the dataset
//      (bounding the bytes one zone-crash can cost the dataset), and
//   2. the aggregate placed in a zone never exceeds the zone's capacity
//      (its proportional slice of total cache, since cache servers are
//      homogeneous), so the data manager can actually hold the shares.
//
// Within those caps, shares follow remaining zone capacity (water-filling),
// which keeps the spread proportional when the bound does not bind.  When
// the two constraints cannot absorb the whole quota — many small zones, a
// loss bound below 1/num_zones, or a nearly-full pool — the loss bound
// relaxes first (capacity never does): resilience degrades gracefully to the
// capacity-proportional spread rather than refusing to cache.
//
// The spreader is stateful across datasets — zone capacity consumed by one
// dataset is gone for the next — so callers iterate datasets in their
// allocation order (greedy Alg. 2 order, or dataset id for the solvers).
#ifndef SILOD_SRC_SCHED_ZONE_SPREAD_H_
#define SILOD_SRC_SCHED_ZONE_SPREAD_H_

#include <vector>

#include "src/common/topology.h"
#include "src/common/units.h"
#include "src/sched/policy.h"

namespace silod {

class ZoneSpreader {
 public:
  // The topology must outlive the spreader.  Zone capacity is
  // total_cache * zone_size / num_servers.
  ZoneSpreader(const ClusterTopology& topology, Bytes total_cache, int num_servers);

  // Splits `quota` into per-zone shares (indexed like topology.zones(),
  // summing exactly to `quota`) and consumes the capacity they occupy.
  std::vector<Bytes> Spread(Bytes quota);

  // The worst single-zone loss a spread exposes: its largest share.
  static Bytes WorstCaseLoss(const std::vector<Bytes>& shares);

 private:
  const ClusterTopology& topology_;
  std::vector<double> remaining_;  // Uncommitted capacity per zone, in bytes.
  // Spread's per-call scratch, reused by the next call.
  std::vector<double> placed_;
  std::vector<double> headroom_;
  std::vector<int> order_;
};

// Upper bound on the fraction of any dataset's quota a single zone-crash can
// take under the spread rule: max over zones of min(loss_bound, zone
// capacity fraction), i.e. the exposure to the largest zone before
// capacity-forced relaxation.  1.0 when the topology is empty (oblivious
// placement concentrates arbitrarily).  Policies feed 1 - this into the
// estimator so planned remote-IO throttles already cover the post-crash
// cache level (the co-design half of zone awareness).
double WorstCaseZoneFraction(const ClusterTopology& topology, int num_servers);

// Fills plan->dataset_zone_cache with the spread of every dataset_cache
// quota, iterating datasets in id order.  No-op (leaves the plan oblivious)
// when the snapshot carries no topology.
void SpreadPlanAcrossZones(const Snapshot& snapshot, AllocationPlan* plan);

// The estimator-facing cache level for a dataset quota `cache`: scaled down
// to the share that survives a worst-case single-zone crash when the
// snapshot is zone-aware, unchanged otherwise.
Bytes SurvivingCacheShare(const Snapshot& snapshot, Bytes cache);

}  // namespace silod

#endif  // SILOD_SRC_SCHED_ZONE_SPREAD_H_
