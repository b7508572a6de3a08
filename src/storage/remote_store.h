// The remote storage service and its egress bandwidth model.
//
// Cloud storage accounts cap egress bandwidth (Fig. 1: 120 Gbps for the
// largest accounts the paper measured); when the cluster's aggregate remote-IO
// demand exceeds the cap, flows contend.  Two regimes are modelled:
//
//   - Provider fair share (the §7.2 "disable remote IO allocation" ablation):
//     active flows receive a max-min fair share of the egress capacity,
//     bounded by their demand.
//   - SiloD throttling (§6): the scheduler assigns each job a remote-IO
//     allocation and the data manager's FUSE clients enforce it; the provider
//     cap still applies on top.
//
// MaxMinShare is the progressive-filling (water-filling) algorithm both
// regimes use, exposed separately because the Gavel solver reuses it.
// WaterLevel is its one filling loop: every flow's max-min rate is
// min(want, L) for the level L it returns, so a caller that keeps its flows'
// wants sorted can re-derive the rates without sorting.
#ifndef SILOD_SRC_STORAGE_REMOTE_STORE_H_
#define SILOD_SRC_STORAGE_REMOTE_STORE_H_

#include <span>
#include <vector>

#include "src/common/units.h"
#include "src/workload/job.h"

namespace silod {

// Max-min fair allocation of `capacity` among flows with the given demands and
// per-flow caps.  Returns per-flow rates with:
//   rate[i] <= min(demand[i], cap[i]),  sum(rate) <= capacity,
// and no flow can gain without an equally-or-less-served flow losing.
// Either vector entry may be kUnlimitedRate.
std::vector<BytesPerSec> MaxMinShare(const std::vector<BytesPerSec>& demands,
                                     const std::vector<BytesPerSec>& caps, BytesPerSec capacity);

// The same rates written into caller-owned buffers: `rates` receives them and
// `sorted` is scratch.  Neither allocates once it has grown to the flow
// count.
void MaxMinShare(std::span<const BytesPerSec> demands, std::span<const BytesPerSec> caps,
                 BytesPerSec capacity, std::vector<BytesPerSec>* sorted,
                 std::vector<BytesPerSec>* rates);

// The water level of max-min filling `capacity` among flows whose wants
// (want = min(demand, cap), never negative) are given in ascending order.
// Flows with a zero want take no share.  Each flow's max-min rate is exactly
// min(want, L), bit for bit, and L depends only on the sorted multiset of
// wants.
BytesPerSec WaterLevel(std::span<const BytesPerSec> sorted_wants, BytesPerSec capacity);

// Convenience overload without per-flow caps.
std::vector<BytesPerSec> MaxMinShare(const std::vector<BytesPerSec>& demands,
                                     BytesPerSec capacity);

class RemoteStore {
 public:
  explicit RemoteStore(BytesPerSec egress_limit);

  BytesPerSec egress_limit() const { return egress_limit_; }

  // Sets the per-job remote-IO allocation (Table 3 allocateRemoteIO); jobs
  // without an allocation are uncapped up to the provider share.
  void SetJobThrottle(JobId job, BytesPerSec rate);
  void ClearJobThrottle(JobId job);
  BytesPerSec JobThrottle(JobId job) const;  // kUnlimitedRate when unset.
  // All explicitly set throttles (for snapshotting, §6 fault tolerance).
  std::vector<std::pair<JobId, BytesPerSec>> Throttles() const;

 private:
  BytesPerSec egress_limit_;
  std::vector<BytesPerSec> throttles_;  // Indexed by JobId; grows on demand.
};

}  // namespace silod

#endif  // SILOD_SRC_STORAGE_REMOTE_STORE_H_
