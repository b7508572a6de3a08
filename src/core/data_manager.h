// SiloD Data Manager (§6, Fig. 7): the storage-layer component that exposes
// the Table 3 allocation APIs to the scheduler and enforces them —
// per-dataset uniform-cache quotas through CacheManager, per-job remote-IO
// throttles through RemoteStore.  The simulation engines drive the same
// machinery internally; this facade is the public, programmable surface the
// examples use, and the unit under test for the allocation-API contract.
//
// Sharding: the cache side may be split into per-server shards (consistent
// block placement, equal capacity and quota shares), so that a cache-server
// crash is actionable: CrashShard drops that server's resident blocks and
// stops admissions there, RecoverShard rejoins it empty and it refills
// through the normal miss path.  With the default num_shards = 1 the facade
// behaves exactly as the historical single-cache manager, and cache() stays
// available for direct access.
#ifndef SILOD_SRC_CORE_DATA_MANAGER_H_
#define SILOD_SRC_CORE_DATA_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/cache_manager.h"
#include "src/sched/allocation.h"
#include "src/storage/placement.h"
#include "src/storage/remote_store.h"

namespace silod {

class DataManager {
 public:
  DataManager(Bytes cache_capacity, BytesPerSec egress_limit, std::uint64_t seed = 7,
              int num_shards = 1);

  // --- Failure domains ------------------------------------------------------
  // Declares the shards' failure domains (common/topology.h); must cover
  // [0, num_shards).  Afterwards plans carrying dataset_zone_cache spreads
  // route blocks zone-proportionally (ZonePlacement) and size each shard's
  // quota from its zone's share.  Without a topology (or for datasets with no
  // spread) placement and quotas stay exactly as before.
  Status SetTopology(const ClusterTopology& topology);
  const ClusterTopology& topology() const { return topology_; }

  // --- Table 3 allocation APIs --------------------------------------------
  // void allocateCacheSize(dataset_uri, cache_size)
  Status AllocateCacheSize(const Dataset& dataset, Bytes cache_size);
  // void allocateRemoteIO(job_id, io_speed)
  Status AllocateRemoteIo(JobId job, BytesPerSec io_speed);

  // Applies a whole scheduler plan (quota-model plans only; shared-LRU and
  // per-job models are enforced elsewhere).
  Status ApplyPlan(const AllocationPlan& plan, const DatasetCatalog& catalog);

  // --- Read path (virtual time) --------------------------------------------
  struct ReadResult {
    bool hit = false;
    // Time the read occupies the remote link (0 for hits); the caller owns
    // overlapping this with compute.
    Seconds remote_seconds = 0;
  };
  // One block read by `job`; enforces uniform caching and the job's throttle.
  ReadResult ReadBlock(JobId job, const Dataset& dataset, std::int64_t block);

  // --- Routed cache APIs (shard-aware) -------------------------------------
  // Records a read of `block` on its shard; true on hit.  A dead shard
  // always misses and admits nothing, so its contents refill only after
  // recovery.
  bool AccessBlock(const Dataset& dataset, std::int64_t block);
  bool IsCached(const Dataset& dataset, std::int64_t block) const;
  Bytes CachedBytes(DatasetId dataset) const;
  Bytes Allocation(DatasetId dataset) const;
  // Resident blocks across all shards (sorted), for snapshotting.
  std::vector<std::int64_t> CachedBlocks(DatasetId dataset) const;
  // Re-admits surviving blocks on their shards; blocks routed to a dead
  // shard are dropped (that server's disk is gone with it).
  Status RestoreCachedBlocks(const Dataset& dataset, const std::vector<std::int64_t>& blocks);

  // --- Shard fault path (§6) ------------------------------------------------
  // Drops the shard's resident blocks and stops admissions there until
  // recovery; quota shares stay allocated (pod annotations are durable).
  // Returns the number of blocks lost.  No-op (0) if already dead.
  std::int64_t CrashShard(int shard);
  // The shard rejoins empty and refills through the normal miss path.
  void RecoverShard(int shard);
  bool shard_alive(int shard) const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Direct access to the single cache; only valid for num_shards == 1
  // (checked), where it preserves the historical facade.
  CacheManager& cache();
  const CacheManager& cache() const;

  // --- Crash forensics (fault/minidump.h) -----------------------------------
  // Raw access to one shard's cache, bypassing liveness routing.  Minidumps
  // capture per-shard residency/quota/RNG state and replay restores it the
  // same way; normal callers must use the routed APIs above.
  CacheManager& shard_cache(int shard);
  const CacheManager& shard_cache(int shard) const;
  // The dataset's active zone spread (indexed like topology().zones()), or
  // nullptr when it routes on the global ring.
  const std::vector<Bytes>* zone_shares_of(DatasetId dataset) const {
    return ZoneSharesFor(dataset);
  }
  // Re-installs a captured zone spread so replayed reads route exactly like
  // the live run's.  Requires a topology; shares must be indexed like
  // topology().zones().
  void RestoreZoneShares(DatasetId dataset, const std::vector<Bytes>& shares);
  RemoteStore& remote() { return remote_; }
  const RemoteStore& remote() const { return remote_; }

 private:
  int ShardFor(DatasetId dataset, std::int64_t block) const;
  // Each shard's quota for a dataset: its zone's share split equally among
  // the zone's members when spread, else an equal split of the total quota.
  std::vector<Bytes> PerShardTargets(Bytes quota, const std::vector<Bytes>* zone_shares) const;
  // The dataset's active zone spread, or nullptr when it routes on the
  // global ring.  O(1): flat-vector lookup on the block read path.
  const std::vector<Bytes>* ZoneSharesFor(DatasetId dataset) const;
  void SetZoneShares(DatasetId dataset, const std::vector<Bytes>& shares);
  void ClearZoneShares(DatasetId dataset);

  std::vector<CacheManager> shards_;
  std::vector<bool> alive_;
  BlockPlacement placement_;
  ClusterTopology topology_;
  std::unique_ptr<ZonePlacement> zone_placement_;
  // Per-dataset zone spreads, indexed by dense DatasetId (arena-style, like
  // CacheManager's tables); an empty entry means no spread and routing falls
  // back to the global ring.
  std::vector<std::vector<Bytes>> zone_shares_;
  RemoteStore remote_;
};

}  // namespace silod

#endif  // SILOD_SRC_CORE_DATA_MANAGER_H_
