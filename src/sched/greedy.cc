#include "src/sched/greedy.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/estimator/ioperf.h"
#include "src/sched/zone_spread.h"
#include "src/storage/remote_store.h"

namespace silod {

std::map<DatasetId, Bytes> GreedyCacheAllocation(const Snapshot& snapshot,
                                                 const AllocationPlan& plan) {
  SILOD_CHECK(snapshot.catalog != nullptr) << "catalog required";
  // Dataset-level cache efficiency: sum of f*/d over running jobs sharing the
  // dataset (§6, "the cache efficiency is defined at dataset-level").  Each
  // running job's term, stable-sorted by dataset, then summed run by run: the
  // same additions in the same (snapshot) order as a per-dataset
  // accumulator, in O(r log r) for r running jobs whatever the catalog size.
  std::vector<std::pair<DatasetId, double>> terms;
  for (const JobView& view : snapshot.jobs) {
    const JobAllocation& alloc = plan.Get(view.spec->id);
    if (!alloc.running) {
      continue;
    }
    const Dataset& dataset = snapshot.catalog->Get(view.spec->dataset);
    // Storage allocation runs after admission, so the plan's assigned GPU
    // type is the authoritative speed (Eq. 5 at the effective ideal f*·s);
    // 1.0 — an exact no-op — on uniform fleets.
    terms.emplace_back(dataset.id, CacheEfficiency(view.spec->ideal_io, alloc.speed, dataset.size));
  }
  std::stable_sort(terms.begin(), terms.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<DatasetId, double>> order;
  for (const auto& [dataset_id, term] : terms) {
    if (order.empty() || order.back().first != dataset_id) {
      order.emplace_back(dataset_id, 0.0);
    }
    order.back().second += term;
  }
  // The comparator totally orders entries (efficiency desc, id asc), so the
  // result is independent of the pre-sort order.
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;  // Deterministic tie-break.
  });

  std::map<DatasetId, Bytes> alloc;
  Bytes remaining = snapshot.resources.total_cache;
  for (const auto& [dataset_id, eff] : order) {
    if (remaining <= 0) {
      break;
    }
    const Bytes want = snapshot.catalog->Get(dataset_id).size;
    const Bytes grant = std::min(want, remaining);
    alloc[dataset_id] = grant;
    remaining -= grant;
  }
  return alloc;
}

void AllocateRemoteIo(const Snapshot& snapshot, AllocationPlan* plan) {
  SILOD_CHECK(plan != nullptr) << "plan required";
  std::vector<JobId> ids;
  EstimatorBatch effective;   // Operating points at today's effective cache.
  EstimatorBatch surviving;   // The same after a worst-case single-zone loss.
  for (const JobView& view : snapshot.jobs) {
    if (!plan->IsRunning(view.spec->id)) {
      continue;
    }
    const Dataset& dataset = snapshot.catalog->Get(view.spec->dataset);
    // Instantaneous demand: the cache allocation only saves IO once filled
    // and effective (§6), so throttles track the *effective* cache; as the
    // quota fills across epochs, rescheduling shrinks the throttle toward the
    // steady-state b = f* (1 - c/d).
    ids.push_back(view.spec->id);
    const double speed = plan->Get(view.spec->id).speed;
    effective.Add(view.spec->ideal_io, speed, view.effective_cache, dataset.size);
    // Zone-aware runs also compute the demand at the post-crash surviving
    // share: the extra covers the job between a worst-case single-zone loss
    // and the next control-loop tick.  Identity when there is no topology.
    surviving.Add(view.spec->ideal_io, speed,
                  SurvivingCacheShare(snapshot, view.effective_cache), dataset.size);
  }
  std::vector<BytesPerSec> demands;
  effective.RemoteIoDemands(&demands);
  std::vector<BytesPerSec> headroom;
  surviving.RemoteIoDemands(&headroom);
  const std::vector<BytesPerSec> caps(demands.size(), snapshot.resources.per_job_remote_cap);
  std::vector<BytesPerSec> sorted;
  std::vector<BytesPerSec> rates;
  MaxMinShare(demands, caps, snapshot.resources.remote_io, &sorted, &rates);
  if (snapshot.topology != nullptr && !snapshot.topology->empty()) {
    // Grant the post-crash headroom from slack only: the first round already
    // satisfied every job's exact effective-cache demand (the same water-fill
    // a zone-oblivious run gets), so topping up toward the surviving-share
    // demand can never starve a cache-poor job of genuinely needed egress.
    BytesPerSec used = 0;
    for (const BytesPerSec rate : rates) {
      used += rate;
    }
    const BytesPerSec leftover = snapshot.resources.remote_io - used;
    if (leftover > 0) {
      std::vector<BytesPerSec> extra_demand(ids.size());
      std::vector<BytesPerSec> extra_cap(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        extra_demand[i] = std::max(0.0, headroom[i] - rates[i]);
        extra_cap[i] = std::max(0.0, caps[i] - rates[i]);
      }
      std::vector<BytesPerSec> extra;
      MaxMinShare(extra_demand, extra_cap, leftover, &sorted, &extra);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        rates[i] += extra[i];
      }
    }
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    plan->jobs[ids[i]].remote_io = rates[i];
  }
}

SiloDGreedyStorage::SiloDGreedyStorage(bool manage_remote_io)
    : manage_remote_io_(manage_remote_io) {}

std::string SiloDGreedyStorage::name() const {
  return manage_remote_io_ ? "silod-greedy" : "silod-greedy-cache-only";
}

void SiloDGreedyStorage::AllocateStorage(const Snapshot& snapshot, AllocationPlan* plan) {
  SILOD_CHECK(plan != nullptr) << "plan required";
  plan->cache_model = CacheModelKind::kDatasetQuota;
  plan->dataset_cache = GreedyCacheAllocation(snapshot, *plan);
  SpreadPlanAcrossZones(snapshot, plan);
  plan->manages_remote_io = manage_remote_io_;
  if (manage_remote_io_) {
    AllocateRemoteIo(snapshot, plan);
  }
}

}  // namespace silod
