#include "src/core/recovery.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

#include "src/common/text_codec.h"

namespace silod {

namespace {

Status CheckDatasetKnown(DatasetId dataset_id, const DatasetCatalog& catalog) {
  if (dataset_id < 0 || static_cast<std::size_t>(dataset_id) >= catalog.size()) {
    return Status::InvalidArgument("snapshot references unknown dataset " +
                                   std::to_string(dataset_id));
  }
  return Status::Ok();
}

}  // namespace

DataManagerSnapshot CaptureCacheSnapshot(const CacheManager& cache,
                                         const DatasetCatalog& catalog) {
  DataManagerSnapshot snapshot;
  for (const Dataset& dataset : catalog.all()) {
    const Bytes quota = cache.Allocation(dataset.id);
    if (quota > 0) {
      snapshot.cache_allocations[dataset.id] = quota;
    }
    std::vector<std::int64_t> blocks = cache.CachedBlocks(dataset.id);
    if (!blocks.empty()) {
      snapshot.cached_blocks[dataset.id] = std::move(blocks);
    }
  }
  return snapshot;
}

Status RestoreCacheManager(const DataManagerSnapshot& snapshot, const DatasetCatalog& catalog,
                           CacheManager* cache) {
  if (cache == nullptr) {
    return Status::InvalidArgument("null cache manager");
  }
  // Allocations first (the pod annotations), then disk contents under them.
  for (const auto& [dataset_id, quota] : snapshot.cache_allocations) {
    Status st = CheckDatasetKnown(dataset_id, catalog);
    if (!st.ok()) {
      return st;
    }
    st = cache->AllocateCacheSize(catalog.Get(dataset_id), quota);
    if (!st.ok()) {
      return st;
    }
  }
  for (const auto& [dataset_id, blocks] : snapshot.cached_blocks) {
    Status st = CheckDatasetKnown(dataset_id, catalog);
    if (!st.ok()) {
      return st;
    }
    st = cache->RestoreCachedBlocks(catalog.Get(dataset_id), blocks);
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

DataManagerSnapshot CaptureSnapshot(const DataManager& manager, const DatasetCatalog& catalog) {
  // Routed (shard-aware) reads: allocations and residents aggregate across
  // shards, so the snapshot format is shard-count independent.
  DataManagerSnapshot snapshot;
  for (const Dataset& dataset : catalog.all()) {
    const Bytes quota = manager.Allocation(dataset.id);
    if (quota > 0) {
      snapshot.cache_allocations[dataset.id] = quota;
    }
    std::vector<std::int64_t> blocks = manager.CachedBlocks(dataset.id);
    if (!blocks.empty()) {
      snapshot.cached_blocks[dataset.id] = std::move(blocks);
    }
  }
  for (const auto& [job, rate] : manager.remote().Throttles()) {
    snapshot.io_allocations[job] = rate;
  }
  return snapshot;
}

Status RestoreDataManager(const DataManagerSnapshot& snapshot, const DatasetCatalog& catalog,
                          DataManager* manager) {
  if (manager == nullptr) {
    return Status::InvalidArgument("null manager");
  }
  for (const auto& [dataset_id, quota] : snapshot.cache_allocations) {
    Status st = CheckDatasetKnown(dataset_id, catalog);
    if (!st.ok()) {
      return st;
    }
    st = manager->AllocateCacheSize(catalog.Get(dataset_id), quota);
    if (!st.ok()) {
      return st;
    }
  }
  for (const auto& [job, rate] : snapshot.io_allocations) {
    const Status st = manager->AllocateRemoteIo(job, rate);
    if (!st.ok()) {
      return st;
    }
  }
  for (const auto& [dataset_id, blocks] : snapshot.cached_blocks) {
    Status st = CheckDatasetKnown(dataset_id, catalog);
    if (!st.ok()) {
      return st;
    }
    st = manager->RestoreCachedBlocks(catalog.Get(dataset_id), blocks);
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

std::string SnapshotToText(const DataManagerSnapshot& snapshot) {
  std::string out = "silod-snapshot-v1\n";
  for (const auto& [dataset, quota] : snapshot.cache_allocations) {
    out += "cache " + std::to_string(dataset) + " " + std::to_string(quota) + "\n";
  }
  for (const auto& [job, rate] : snapshot.io_allocations) {
    out += "io " + std::to_string(job) + " " + FormatExact(rate) + "\n";
  }
  for (const auto& [dataset, blocks] : snapshot.cached_blocks) {
    out += "blocks " + std::to_string(dataset);
    for (const std::int64_t block : blocks) {
      out += " " + std::to_string(block);
    }
    out += "\n";
  }
  return out;
}

Result<DataManagerSnapshot> SnapshotFromText(const std::string& text,
                                             const DatasetCatalog* catalog) {
  const std::vector<std::string_view> lines = SplitList(text, '\n');
  if (lines.empty() || lines[0] != "silod-snapshot-v1") {
    return Status::InvalidArgument("bad snapshot header");
  }
  DataManagerSnapshot snapshot;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string_view> fields = SplitTokens(lines[i]);
    if (fields.empty()) {
      continue;
    }
    const std::string line(lines[i]);
    const std::string kind(fields[0]);
    const auto bad = [&line](const std::string& why) {
      return Status::InvalidArgument(why + ": " + line);
    };
    if (kind != "cache" && kind != "io" && kind != "blocks") {
      return Status::InvalidArgument("unknown snapshot record: " + kind);
    }
    if (fields.size() < (kind == "blocks" ? 2u : 3u)) {
      return bad("truncated " + kind + " line");
    }
    if (kind != "blocks" && fields.size() > 3) {
      return bad("trailing garbage on " + kind + " line");
    }
    const Result<std::int64_t> id = ParseInt(fields[1], std::numeric_limits<std::int32_t>::min(),
                                             std::numeric_limits<std::int32_t>::max());
    if (!id.ok()) {
      return bad("bad " + kind + " id (" + id.status().message() + ")");
    }
    if (kind == "cache") {
      const Result<std::int64_t> quota = ParseInt(fields[2]);
      if (!quota.ok()) {
        return bad("bad cache quota (" + quota.status().message() + ")");
      }
      if (*quota < 0) {
        return bad("negative cache quota");
      }
      if (!snapshot.cache_allocations.emplace(static_cast<DatasetId>(*id), *quota).second) {
        return bad("duplicate cache record");
      }
    } else if (kind == "io") {
      const Result<double> rate = ParseDouble(fields[2]);
      if (!rate.ok()) {
        return bad("bad io rate (" + rate.status().message() + ")");
      }
      if (!std::isfinite(*rate) || *rate < 0) {
        return bad("negative or non-finite io rate");
      }
      if (!snapshot.io_allocations.emplace(static_cast<JobId>(*id), *rate).second) {
        return bad("duplicate io record");
      }
    } else {
      std::vector<std::int64_t> blocks;
      for (std::size_t j = 2; j < fields.size(); ++j) {
        const Result<std::int64_t> block = ParseInt(fields[j]);
        if (!block.ok()) {
          return bad("non-numeric block id (" + block.status().message() + ")");
        }
        blocks.push_back(*block);
      }
      if (blocks.empty()) {
        return bad("blocks record lists no blocks");
      }
      if (!snapshot.cached_blocks.emplace(static_cast<DatasetId>(*id), std::move(blocks)).second) {
        return bad("duplicate blocks record");
      }
    }
  }
  if (catalog != nullptr) {
    for (const auto& [dataset_id, quota] : snapshot.cache_allocations) {
      const Status st = CheckDatasetKnown(dataset_id, *catalog);
      if (!st.ok()) {
        return st;
      }
    }
    for (const auto& [dataset_id, blocks] : snapshot.cached_blocks) {
      const Status st = CheckDatasetKnown(dataset_id, *catalog);
      if (!st.ok()) {
        return st;
      }
      const Dataset& dataset = catalog->Get(dataset_id);
      for (const std::int64_t block : blocks) {
        if (block < 0 || block >= dataset.num_blocks) {
          return Status::InvalidArgument("block out of range for dataset " +
                                         std::to_string(dataset_id));
        }
      }
    }
  }
  return snapshot;
}

}  // namespace silod
