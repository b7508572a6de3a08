// Crash recovery for the SiloD Data Manager (§6, "Fault tolerance").
//
// In the paper's deployment the allocation decisions live in Kubernetes pod
// annotations (durable), the cache *content* lives on each server's local
// disk (survives restarts), and the Data Manager's in-memory state is
// reconstructed from the two after a crash.  This module models exactly
// that: a DataManagerSnapshot captures the durable state, a text form makes
// it storable, and RestoreDataManager rebuilds a fresh DataManager from it.
//
// Text format, line oriented:
//   silod-snapshot-v1
//   cache <dataset_id> <quota_bytes>
//   io <job_id> <bytes_per_sec, FormatExact>
//   blocks <dataset_id> <block> <block> ...
#ifndef SILOD_SRC_CORE_RECOVERY_H_
#define SILOD_SRC_CORE_RECOVERY_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/data_manager.h"

namespace silod {

struct DataManagerSnapshot {
  // Pod annotations: the scheduler's durable allocation decisions.
  std::map<DatasetId, Bytes> cache_allocations;
  std::map<JobId, BytesPerSec> io_allocations;
  // Local disk contents: which blocks of each dataset survive the restart.
  std::map<DatasetId, std::vector<std::int64_t>> cached_blocks;

  bool operator==(const DataManagerSnapshot&) const = default;
};

// Captures the durable state of a live Data Manager.
DataManagerSnapshot CaptureSnapshot(const DataManager& manager, const DatasetCatalog& catalog);

// Rebuilds a (fresh) Data Manager from a snapshot: re-applies allocations,
// then re-admits the surviving disk contents under the restored quotas.
Status RestoreDataManager(const DataManagerSnapshot& snapshot, const DatasetCatalog& catalog,
                          DataManager* manager);

// Cache-only halves, for engines that own a bare CacheManager rather than a
// full Data Manager (the fine engine's Data-Manager-restart fault path).
// io_allocations is left empty / ignored.
DataManagerSnapshot CaptureCacheSnapshot(const CacheManager& cache, const DatasetCatalog& catalog);
Status RestoreCacheManager(const DataManagerSnapshot& snapshot, const DatasetCatalog& catalog,
                           CacheManager* cache);

// Durable serialization.  Parsing validates structure strictly — truncated
// records, duplicate records for one dataset/job, negative quotas or rates,
// and trailing garbage are all InvalidArgument.  When `catalog` is given,
// dataset ids and block ranges are checked against it too.
std::string SnapshotToText(const DataManagerSnapshot& snapshot);
Result<DataManagerSnapshot> SnapshotFromText(const std::string& text,
                                             const DatasetCatalog* catalog = nullptr);

}  // namespace silod

#endif  // SILOD_SRC_CORE_RECOVERY_H_
