#include "src/sched/zone_spread.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace silod {

ZoneSpreader::ZoneSpreader(const ClusterTopology& topology, Bytes total_cache, int num_servers)
    : topology_(topology) {
  remaining_.reserve(topology.zones().size());
  const double per_server =
      num_servers > 0 ? static_cast<double>(total_cache) / num_servers : 0.0;
  for (const TopologyZone& zone : topology.zones()) {
    remaining_.push_back(per_server * zone.size());
  }
}

std::vector<Bytes> ZoneSpreader::Spread(Bytes quota) {
  const int num_zones = topology_.num_zones();
  std::vector<Bytes> shares(num_zones, 0);
  if (quota <= 0 || num_zones == 0) {
    return shares;
  }

  std::vector<double>& placed = placed_;
  placed.assign(num_zones, 0.0);
  double want = static_cast<double>(quota);
  // Pass 0 respects the loss bound; pass 1 relaxes it (capacity never
  // relaxes).  Proportional-to-headroom distribution of at most the total
  // headroom keeps every zone within its cap in a single sweep.
  for (int pass = 0; pass < 2 && want > 0.5; ++pass) {
    const double per_zone_cap =
        pass == 0 ? topology_.loss_bound() * static_cast<double>(quota)
                  : static_cast<double>(quota);
    std::vector<double>& headroom = headroom_;
    headroom.assign(num_zones, 0.0);
    double headroom_total = 0;
    for (int z = 0; z < num_zones; ++z) {
      headroom[z] = std::max(0.0, std::min(remaining_[z] - placed[z], per_zone_cap - placed[z]));
      headroom_total += headroom[z];
    }
    if (headroom_total <= 0) {
      continue;
    }
    const double assign = std::min(want, headroom_total);
    for (int z = 0; z < num_zones; ++z) {
      placed[z] += assign * headroom[z] / headroom_total;
    }
    want -= assign;
  }
  if (want > 0.5) {
    // Pool-wide capacity exhausted (allocators hand out at most total_cache,
    // so this is floating-point drift at worst): park the remainder in the
    // roomiest zone rather than dropping quota bytes.
    const int z = static_cast<int>(
        std::max_element(remaining_.begin(), remaining_.end()) - remaining_.begin());
    placed[z] += want;
  }

  // Largest-remainder rounding so integer shares sum exactly to the quota;
  // equal remainders go in zone order.
  Bytes assigned = 0;
  std::vector<int>& order = order_;
  order.resize(num_zones);
  std::iota(order.begin(), order.end(), 0);
  for (int z = 0; z < num_zones; ++z) {
    shares[z] = static_cast<Bytes>(std::floor(placed[z]));
    assigned += shares[z];
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ra = placed[a] - std::floor(placed[a]);
    const double rb = placed[b] - std::floor(placed[b]);
    return ra != rb ? ra > rb : a < b;
  });
  for (int i = 0; assigned < quota && num_zones > 0; i = (i + 1) % num_zones) {
    shares[order[i]] += 1;
    assigned += 1;
  }

  for (int z = 0; z < num_zones; ++z) {
    remaining_[z] = std::max(0.0, remaining_[z] - static_cast<double>(shares[z]));
  }
  return shares;
}

Bytes ZoneSpreader::WorstCaseLoss(const std::vector<Bytes>& shares) {
  Bytes worst = 0;
  for (const Bytes share : shares) {
    worst = std::max(worst, share);
  }
  return worst;
}

double WorstCaseZoneFraction(const ClusterTopology& topology, int num_servers) {
  if (topology.empty() || num_servers <= 0) {
    return 1.0;
  }
  double worst = 0;
  for (const TopologyZone& zone : topology.zones()) {
    const double capacity_fraction = static_cast<double>(zone.size()) / num_servers;
    worst = std::max(worst, std::min(topology.loss_bound(), capacity_fraction));
  }
  return worst;
}

void SpreadPlanAcrossZones(const Snapshot& snapshot, AllocationPlan* plan) {
  if (snapshot.topology == nullptr || snapshot.topology->empty()) {
    return;
  }
  ZoneSpreader spreader(*snapshot.topology, snapshot.resources.total_cache,
                        snapshot.resources.num_servers);
  plan->dataset_zone_cache.clear();
  for (const auto& [dataset, quota] : plan->dataset_cache) {
    plan->dataset_zone_cache.emplace_hint(plan->dataset_zone_cache.end(), dataset,
                                          spreader.Spread(quota));
  }
}

Bytes SurvivingCacheShare(const Snapshot& snapshot, Bytes cache) {
  if (snapshot.topology == nullptr || snapshot.topology->empty()) {
    return cache;
  }
  const double surviving =
      1.0 - WorstCaseZoneFraction(*snapshot.topology, snapshot.resources.num_servers);
  return static_cast<Bytes>(static_cast<double>(cache) * surviving);
}

}  // namespace silod
