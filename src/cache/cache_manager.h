// CacheManager: the enforcement half of the SiloD Data Manager (§6).
//
// The scheduler allocates cache to *datasets* and remote IO to *jobs*
// (Table 3); this class enforces the cache side at item granularity:
//   - per-dataset uniform caches sized by allocateCacheSize, carved out of
//     the cluster-wide pool;
//   - shrinking an allocation evicts that dataset's items uniformly at
//     random, preserving the uniform access property;
//   - delayed effectiveness (§6): items cached during a job's current epoch
//     are not re-read until the next epoch, so per-job effectiveness is
//     tracked by comparing each cached item's insertion generation with the
//     generation at which the job's epoch started.
//
// Storage is arena-style: datasets and jobs live in flat vectors indexed by
// their dense DatasetId/JobId.  Each dataset keeps one residency bit per
// block, the only residency test (hits, eviction checks and the ascending
// scans that feed the eviction shuffle), beside a generation-per-block array
// that Admit writes and only Evict reads.  Per-job effective bytes are
// maintained incrementally — admissions carry a fresh generation (never
// effective for any current epoch), evictions subtract from exactly the
// registered readers whose epoch they were effective for — so EffectiveBytes
// is O(1) instead of a scan over every resident block.  A dataset with quota
// 0, nothing resident and no registered reader is released back to absent,
// so the per-block arrays follow the live datasets, not the trace's history.
// This is what lets the fine engine rebuild snapshots for 10k–100k-job
// traces at interactive speed (docs/MODEL.md §9).
#ifndef SILOD_SRC_CACHE_CACHE_MANAGER_H_
#define SILOD_SRC_CACHE_CACHE_MANAGER_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/workload/dataset.h"
#include "src/workload/job.h"

namespace silod {

class CacheManager {
 public:
  CacheManager(Bytes total_capacity, std::uint64_t seed = 7);

  Bytes total_capacity() const { return total_capacity_; }
  Bytes total_allocated() const { return total_allocated_; }
  Bytes total_cached() const;

  // --- Allocation API (Table 3) -------------------------------------------
  // Sets a dataset's cache quota.  Fails if the sum of quotas would exceed
  // the pool.  Shrinking below current occupancy evicts randomly.
  Status AllocateCacheSize(const Dataset& dataset, Bytes cache_size);
  Bytes Allocation(DatasetId dataset) const;

  // --- Item path (driven by the fine engine / the rt fetch path) ----------
  // Records a read of `block`.  Returns true on hit.  On miss the caller
  // fetches remotely and the manager admits the block under uniform caching.
  // An absent dataset (never allocated, or released) has quota 0: the read
  // misses and nothing is created.
  bool AccessBlock(const Dataset& dataset, std::int64_t block);
  Bytes CachedBytes(DatasetId dataset) const;
  bool IsCached(DatasetId dataset, std::int64_t block) const;

  // --- Fault injection (§6) --------------------------------------------------
  // Resizes the pool (a cache-server crash or recovery) without touching
  // quotas.  Shrinking may leave total_allocated() above the new capacity
  // transiently; the scheduler's next plan fits the reduced pool, and the
  // shrink-before-grow quota application restores the invariant.
  void SetTotalCapacity(Bytes capacity);
  // Evicts each dataset's resident blocks uniformly at random so that about
  // `fraction` of the resident bytes are lost — a crashed server's share
  // under uniform block placement.  Returns the number of blocks evicted and
  // adds the evicted bytes to *bytes_evicted when non-null.
  std::int64_t EvictRandomFraction(double fraction, Bytes* bytes_evicted = nullptr);
  // Per-dataset variant: evicts about `fraction` of one dataset's resident
  // blocks uniformly at random.  Zone-aware crash handling charges each
  // dataset the crashed server's slice of its per-zone share instead of the
  // pool-uniform fraction.
  std::int64_t EvictDatasetFraction(DatasetId dataset, double fraction,
                                    Bytes* bytes_evicted = nullptr);

  // --- Crash recovery (§6) --------------------------------------------------
  // The resident blocks of a dataset (sorted), for snapshotting.
  std::vector<std::int64_t> CachedBlocks(DatasetId dataset) const;
  // Re-inserts surviving blocks after a restart (cache content lives on local
  // disk and survives crashes).  Blocks beyond the quota are dropped, which
  // matches uniform caching's behaviour for a shrunken allocation.
  Status RestoreCachedBlocks(const Dataset& dataset, const std::vector<std::int64_t>& blocks);

  // --- Job epoch tracking (§6) ---------------------------------------------
  void RegisterJob(JobId job, const Dataset& dataset);
  void UnregisterJob(JobId job);
  // Starts the job's next epoch: snapshots the insertion generation, after
  // which newly cached items are "ineffective" for this job until the
  // following epoch.
  void StartJobEpoch(JobId job);

  // Bytes of the job's dataset that are cached AND were cached before the
  // job's current epoch began — the effective cache size of §6 / Fig. 8.
  // O(1): maintained incrementally across admissions and evictions.
  Bytes EffectiveBytes(JobId job) const;

  // Per-block generation slots held across the present datasets: their
  // num_blocks summed.  The fine engine reports its peak (EngineStepCounters).
  std::int64_t block_slots() const { return block_slots_; }

  // --- Crash forensics (fault/minidump.h) -----------------------------------
  // The eviction shuffle stream.  Minidumps capture and restore its raw state
  // so a replayed shrink evicts exactly the blocks the live run evicted; no
  // other caller should touch it.
  Rng& eviction_rng() { return rng_; }
  const Rng& eviction_rng() const { return rng_; }

 private:
  struct DatasetState {
    Dataset dataset;
    bool present = false;
    Bytes quota = 0;
    Bytes used = 0;
    std::int64_t resident = 0;
    // One bit per block, 64 to a word: set iff the block is resident.  Scans
    // walk the words in block order, so eviction candidates come out sorted
    // before the shuffle.
    std::vector<std::uint64_t> resident_bits;
    // Insertion generation per block, meaningful where the bit is set:
    // written by Admit, read only by Evict for the effectiveness comparison.
    std::vector<std::uint64_t> block_gen;
    // Jobs registered on this dataset: the readers whose effective bytes an
    // eviction may reduce.
    std::vector<JobId> readers;
  };
  struct JobState {
    bool registered = false;
    DatasetId dataset = kInvalidDataset;
    std::uint64_t epoch_generation = 0;
    Bytes effective = 0;
  };

  DatasetState& GetOrCreate(const Dataset& dataset);
  // Resets the dataset to absent if its quota is 0, nothing is resident and
  // no job is registered on it: a re-created state is indistinguishable
  // from the released one.
  void ReleaseIfIdle(DatasetState& state);
  static bool Resident(const DatasetState& state, std::int64_t block) {
    return (state.resident_bits[static_cast<std::size_t>(block) / 64] >> (block % 64)) & 1;
  }
  // The resident blocks, ascending.
  static std::vector<std::int64_t> ResidentBlocks(const DatasetState& state);
  DatasetState* Find(DatasetId dataset);
  const DatasetState* Find(DatasetId dataset) const;
  JobState& JobRef(JobId job);
  const JobState& JobRef(JobId job) const;
  // Inserts `block` with a fresh generation.  Never changes any reader's
  // effective bytes: the new generation postdates every current epoch.
  void Admit(DatasetState& state, std::int64_t block);
  // Removes `block` and subtracts its bytes from each registered reader
  // whose current epoch it was effective for.
  Bytes Evict(DatasetState& state, std::int64_t block);

  Bytes total_capacity_;
  Bytes total_allocated_ = 0;
  std::uint64_t generation_ = 0;
  std::int64_t block_slots_ = 0;
  Rng rng_;
  std::vector<DatasetState> datasets_;  // Indexed by DatasetId.
  std::vector<JobState> jobs_;          // Indexed by JobId.
};

}  // namespace silod

#endif  // SILOD_SRC_CACHE_CACHE_MANAGER_H_
