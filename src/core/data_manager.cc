#include "src/core/data_manager.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace silod {

DataManager::DataManager(Bytes cache_capacity, BytesPerSec egress_limit, std::uint64_t seed,
                         int num_shards)
    : placement_(std::max(1, num_shards)), remote_(egress_limit) {
  const int shards = std::max(1, num_shards);
  // Equal shards with floored shares: a few bytes of pool may go unused, but
  // every shard's (capacity, quota) state stays symmetric, so quota
  // feasibility is identical across shards.
  const Bytes per_shard = cache_capacity / shards;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.emplace_back(per_shard, seed + static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL);
  }
  alive_.assign(static_cast<std::size_t>(shards), true);
}

int DataManager::ShardFor(DatasetId dataset, std::int64_t block) const {
  if (shards_.size() == 1) {
    return 0;
  }
  if (zone_placement_ != nullptr) {
    if (const std::vector<Bytes>* shares = ZoneSharesFor(dataset)) {
      return zone_placement_->ServerFor(dataset, block, *shares);
    }
  }
  return placement_.ServerFor(dataset, block);
}

const std::vector<Bytes>* DataManager::ZoneSharesFor(DatasetId dataset) const {
  if (dataset < 0 || static_cast<std::size_t>(dataset) >= zone_shares_.size() ||
      zone_shares_[static_cast<std::size_t>(dataset)].empty()) {
    return nullptr;
  }
  return &zone_shares_[static_cast<std::size_t>(dataset)];
}

void DataManager::SetZoneShares(DatasetId dataset, const std::vector<Bytes>& shares) {
  SILOD_CHECK(dataset >= 0) << "dataset id " << dataset << " not dense";
  if (static_cast<std::size_t>(dataset) >= zone_shares_.size()) {
    zone_shares_.resize(static_cast<std::size_t>(dataset) + 1);
  }
  zone_shares_[static_cast<std::size_t>(dataset)] = shares;
}

void DataManager::ClearZoneShares(DatasetId dataset) {
  if (dataset >= 0 && static_cast<std::size_t>(dataset) < zone_shares_.size()) {
    zone_shares_[static_cast<std::size_t>(dataset)].clear();
  }
}

Status DataManager::SetTopology(const ClusterTopology& topology) {
  if (topology.empty()) {
    topology_ = ClusterTopology{};
    zone_placement_.reset();
    zone_shares_.clear();
    return Status::Ok();
  }
  if (const Status st = topology.Validate(num_shards()); !st.ok()) {
    return st;
  }
  topology_ = topology.Cover(num_shards());
  zone_placement_ = std::make_unique<ZonePlacement>(topology_);
  zone_shares_.clear();
  return Status::Ok();
}

Status DataManager::AllocateCacheSize(const Dataset& dataset, Bytes cache_size) {
  if (cache_size < 0) {
    return Status::InvalidArgument("negative cache allocation");
  }
  // Symmetric shares: every shard sees the same quota state, so either all
  // shards accept the allocation or the first one rejects it.
  const Bytes share = cache_size / static_cast<Bytes>(shards_.size());
  for (CacheManager& shard : shards_) {
    if (const Status st = shard.AllocateCacheSize(dataset, share); !st.ok()) {
      return st;
    }
  }
  ClearZoneShares(dataset.id);  // Uniform allocation ends any zone spread.
  return Status::Ok();
}

std::vector<Bytes> DataManager::PerShardTargets(Bytes quota,
                                                const std::vector<Bytes>* zone_shares) const {
  std::vector<Bytes> targets(shards_.size(), 0);
  if (zone_shares != nullptr) {
    for (int z = 0; z < topology_.num_zones(); ++z) {
      const TopologyZone& zone = topology_.zones()[static_cast<std::size_t>(z)];
      const Bytes share = (*zone_shares)[static_cast<std::size_t>(z)] / zone.size();
      for (int s = zone.first_server; s <= zone.last_server; ++s) {
        targets[static_cast<std::size_t>(s)] = share;
      }
    }
  } else {
    const Bytes share = quota / static_cast<Bytes>(shards_.size());
    for (Bytes& target : targets) {
      target = share;
    }
  }
  return targets;
}

Status DataManager::AllocateRemoteIo(JobId job, BytesPerSec io_speed) {
  if (job < 0) {
    return Status::InvalidArgument("invalid job id");
  }
  if (io_speed < 0) {
    return Status::InvalidArgument("negative remote IO allocation");
  }
  remote_.SetJobThrottle(job, io_speed);
  return Status::Ok();
}

Status DataManager::ApplyPlan(const AllocationPlan& plan, const DatasetCatalog& catalog) {
  if (plan.cache_model != CacheModelKind::kDatasetQuota) {
    return Status::FailedPrecondition("DataManager enforces dataset-quota plans only");
  }
  // Per-shard targets up front: a zone-spread dataset splits each zone share
  // equally among the zone's shards, anything else splits its quota equally.
  std::vector<std::vector<Bytes>> targets;
  targets.reserve(catalog.all().size());
  for (const auto& dataset : catalog.all()) {
    const auto it = plan.dataset_cache.find(dataset.id);
    const Bytes quota = it == plan.dataset_cache.end() ? 0 : it->second;
    const std::vector<Bytes>* zone_shares = nullptr;
    if (zone_placement_ != nullptr) {
      const auto zit = plan.dataset_zone_cache.find(dataset.id);
      if (zit != plan.dataset_zone_cache.end() &&
          zit->second.size() == static_cast<std::size_t>(topology_.num_zones())) {
        zone_shares = &zit->second;
        SetZoneShares(dataset.id, zit->second);
      }
    }
    if (zone_shares == nullptr) {
      ClearZoneShares(dataset.id);
    }
    targets.push_back(PerShardTargets(quota, zone_shares));
  }
  // Shrinks first so reshuffled allocations never transiently over-commit any
  // shard (per-shard, because zone spreads make shares asymmetric).
  for (const bool shrink_pass : {true, false}) {
    for (std::size_t d = 0; d < catalog.all().size(); ++d) {
      const Dataset& dataset = catalog.all()[d];
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Bytes current = shards_[s].Allocation(dataset.id);
        const Bytes target = targets[d][s];
        if (target == current || (target < current) != shrink_pass) {
          continue;
        }
        if (const Status st = shards_[s].AllocateCacheSize(dataset, target); !st.ok()) {
          return st;
        }
      }
    }
  }
  for (const auto& [job, alloc] : plan.jobs) {
    if (!alloc.running) {
      continue;
    }
    if (plan.manages_remote_io && !std::isinf(alloc.remote_io)) {
      remote_.SetJobThrottle(job, alloc.remote_io);
    } else {
      remote_.ClearJobThrottle(job);
    }
  }
  return Status::Ok();
}

DataManager::ReadResult DataManager::ReadBlock(JobId job, const Dataset& dataset,
                                               std::int64_t block) {
  ReadResult result;
  result.hit = AccessBlock(dataset, block);
  if (!result.hit) {
    const BytesPerSec throttle = remote_.JobThrottle(job);
    const BytesPerSec rate = std::isinf(throttle)
                                 ? remote_.egress_limit()
                                 : std::min(throttle, remote_.egress_limit());
    SILOD_CHECK(rate > 0) << "job " << job << " throttled to zero with a cache miss";
    result.remote_seconds = static_cast<double>(dataset.BlockBytes(block)) / rate;
  }
  return result;
}

bool DataManager::AccessBlock(const Dataset& dataset, std::int64_t block) {
  const int shard = ShardFor(dataset.id, block);
  if (!alive_[static_cast<std::size_t>(shard)]) {
    return false;  // A dead shard misses and admits nothing.
  }
  return shards_[static_cast<std::size_t>(shard)].AccessBlock(dataset, block);
}

bool DataManager::IsCached(const Dataset& dataset, std::int64_t block) const {
  const int shard = ShardFor(dataset.id, block);
  return alive_[static_cast<std::size_t>(shard)] &&
         shards_[static_cast<std::size_t>(shard)].IsCached(dataset.id, block);
}

Bytes DataManager::CachedBytes(DatasetId dataset) const {
  Bytes total = 0;
  for (const CacheManager& shard : shards_) {
    total += shard.CachedBytes(dataset);
  }
  return total;
}

Bytes DataManager::Allocation(DatasetId dataset) const {
  Bytes total = 0;
  for (const CacheManager& shard : shards_) {
    total += shard.Allocation(dataset);
  }
  return total;
}

std::vector<std::int64_t> DataManager::CachedBlocks(DatasetId dataset) const {
  std::vector<std::int64_t> blocks;
  for (const CacheManager& shard : shards_) {
    const std::vector<std::int64_t> resident = shard.CachedBlocks(dataset);
    blocks.insert(blocks.end(), resident.begin(), resident.end());
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

Status DataManager::RestoreCachedBlocks(const Dataset& dataset,
                                        const std::vector<std::int64_t>& blocks) {
  std::vector<std::vector<std::int64_t>> per_shard(shards_.size());
  for (const std::int64_t block : blocks) {
    const int shard = ShardFor(dataset.id, block);
    if (!alive_[static_cast<std::size_t>(shard)]) {
      continue;  // That server's disk is gone with it.
    }
    per_shard[static_cast<std::size_t>(shard)].push_back(block);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (per_shard[i].empty()) {
      continue;
    }
    if (const Status st = shards_[i].RestoreCachedBlocks(dataset, per_shard[i]); !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

std::int64_t DataManager::CrashShard(int shard) {
  if (shard < 0 || shard >= num_shards() || !alive_[static_cast<std::size_t>(shard)]) {
    return 0;
  }
  alive_[static_cast<std::size_t>(shard)] = false;
  // Everything resident on the crashed server is lost; its quota shares stay
  // (the pod annotations are durable) but cannot be used until recovery.
  return shards_[static_cast<std::size_t>(shard)].EvictRandomFraction(1.0);
}

void DataManager::RecoverShard(int shard) {
  if (shard < 0 || shard >= num_shards()) {
    return;
  }
  alive_[static_cast<std::size_t>(shard)] = true;
}

bool DataManager::shard_alive(int shard) const {
  return shard >= 0 && shard < num_shards() && alive_[static_cast<std::size_t>(shard)];
}

CacheManager& DataManager::cache() {
  SILOD_CHECK(shards_.size() == 1) << "cache() is only valid for a single-shard Data Manager; "
                                      "use the routed APIs";
  return shards_[0];
}

const CacheManager& DataManager::cache() const {
  SILOD_CHECK(shards_.size() == 1) << "cache() is only valid for a single-shard Data Manager; "
                                      "use the routed APIs";
  return shards_[0];
}

CacheManager& DataManager::shard_cache(int shard) {
  SILOD_CHECK(shard >= 0 && shard < num_shards()) << "shard " << shard << " out of range";
  return shards_[static_cast<std::size_t>(shard)];
}

const CacheManager& DataManager::shard_cache(int shard) const {
  SILOD_CHECK(shard >= 0 && shard < num_shards()) << "shard " << shard << " out of range";
  return shards_[static_cast<std::size_t>(shard)];
}

void DataManager::RestoreZoneShares(DatasetId dataset, const std::vector<Bytes>& shares) {
  SILOD_CHECK(zone_placement_ != nullptr) << "RestoreZoneShares requires a topology";
  SILOD_CHECK(shares.size() == static_cast<std::size_t>(topology_.num_zones()))
      << "zone share count does not match the topology";
  SetZoneShares(dataset, shares);
}

}  // namespace silod
