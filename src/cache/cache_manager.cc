#include "src/cache/cache_manager.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "src/common/logging.h"

namespace silod {

CacheManager::CacheManager(Bytes total_capacity, std::uint64_t seed)
    : total_capacity_(total_capacity), rng_(seed) {
  SILOD_CHECK(total_capacity >= 0) << "negative cache capacity";
}

Bytes CacheManager::total_cached() const {
  Bytes total = 0;
  for (const auto& state : datasets_) {
    total += state.used;
  }
  return total;
}

CacheManager::DatasetState& CacheManager::GetOrCreate(const Dataset& dataset) {
  SILOD_CHECK(dataset.id >= 0) << "dataset id " << dataset.id << " not dense";
  const auto index = static_cast<std::size_t>(dataset.id);
  if (index >= datasets_.size()) {
    datasets_.resize(index + 1);
  }
  DatasetState& state = datasets_[index];
  if (!state.present) {
    state.present = true;
    state.dataset = dataset;
    state.resident_bits.assign(static_cast<std::size_t>((dataset.num_blocks + 63) / 64), 0);
    state.block_gen.assign(static_cast<std::size_t>(dataset.num_blocks), 0);
    block_slots_ += dataset.num_blocks;
  }
  return state;
}

void CacheManager::ReleaseIfIdle(DatasetState& state) {
  if (state.present && state.quota == 0 && state.resident == 0 && state.readers.empty()) {
    block_slots_ -= state.dataset.num_blocks;
    state = DatasetState{};
  }
}

std::vector<std::int64_t> CacheManager::ResidentBlocks(const DatasetState& state) {
  std::vector<std::int64_t> blocks;
  blocks.reserve(static_cast<std::size_t>(state.resident));
  for (std::size_t w = 0; w < state.resident_bits.size(); ++w) {
    for (std::uint64_t word = state.resident_bits[w]; word != 0; word &= word - 1) {
      blocks.push_back(static_cast<std::int64_t>(w * 64) + std::countr_zero(word));
    }
  }
  return blocks;
}

CacheManager::DatasetState* CacheManager::Find(DatasetId dataset) {
  if (dataset < 0 || static_cast<std::size_t>(dataset) >= datasets_.size() ||
      !datasets_[static_cast<std::size_t>(dataset)].present) {
    return nullptr;
  }
  return &datasets_[static_cast<std::size_t>(dataset)];
}

const CacheManager::DatasetState* CacheManager::Find(DatasetId dataset) const {
  if (dataset < 0 || static_cast<std::size_t>(dataset) >= datasets_.size() ||
      !datasets_[static_cast<std::size_t>(dataset)].present) {
    return nullptr;
  }
  return &datasets_[static_cast<std::size_t>(dataset)];
}

CacheManager::JobState& CacheManager::JobRef(JobId job) {
  SILOD_CHECK(job >= 0 && static_cast<std::size_t>(job) < jobs_.size() &&
              jobs_[static_cast<std::size_t>(job)].registered)
      << "unknown job " << job;
  return jobs_[static_cast<std::size_t>(job)];
}

const CacheManager::JobState& CacheManager::JobRef(JobId job) const {
  SILOD_CHECK(job >= 0 && static_cast<std::size_t>(job) < jobs_.size() &&
              jobs_[static_cast<std::size_t>(job)].registered)
      << "unknown job " << job;
  return jobs_[static_cast<std::size_t>(job)];
}

void CacheManager::Admit(DatasetState& state, std::int64_t block) {
  SILOD_CHECK(block >= 0 && block < state.dataset.num_blocks)
      << "block " << block << " out of range for dataset " << state.dataset.id;
  state.resident_bits[static_cast<std::size_t>(block) / 64] |= std::uint64_t{1} << (block % 64);
  state.block_gen[static_cast<std::size_t>(block)] = ++generation_;
  state.used += state.dataset.BlockBytes(block);
  ++state.resident;
}

Bytes CacheManager::Evict(DatasetState& state, std::int64_t block) {
  SILOD_CHECK(Resident(state, block)) << "evicting non-resident block " << block;
  state.resident_bits[static_cast<std::size_t>(block) / 64] &= ~(std::uint64_t{1} << (block % 64));
  const std::uint64_t gen = state.block_gen[static_cast<std::size_t>(block)];
  const Bytes bytes = state.dataset.BlockBytes(block);
  state.used -= bytes;
  --state.resident;
  // The block was effective for exactly the readers whose epoch started at
  // or after its insertion; integer subtraction keeps the incremental value
  // equal to the defining scan regardless of reader order.
  for (const JobId reader : state.readers) {
    JobState& js = jobs_[static_cast<std::size_t>(reader)];
    if (gen <= js.epoch_generation) {
      js.effective -= bytes;
    }
  }
  return bytes;
}

Status CacheManager::AllocateCacheSize(const Dataset& dataset, Bytes cache_size) {
  if (cache_size < 0) {
    return Status::InvalidArgument("negative cache allocation");
  }
  DatasetState& state = GetOrCreate(dataset);
  const Bytes delta = cache_size - state.quota;
  // Shrinks are always legal: after a cache-server crash the pool capacity
  // drops below the allocated total, and it is exactly the shrinks of the
  // next plan that drain the over-commit — rejecting them would wedge the
  // pool over capacity for good.
  if (delta > 0 && total_allocated_ + delta > total_capacity_) {
    return Status::ResourceExhausted("cache pool over-committed");
  }
  total_allocated_ += delta;
  state.quota = cache_size;
  // Shrinking below occupancy evicts uniformly at random (§6).  Candidates
  // are collected in block order and shuffled once so large shrinks stay
  // O(n) and the outcome is independent of any container iteration order.
  if (state.used > state.quota) {
    std::vector<std::int64_t> resident = ResidentBlocks(state);
    rng_.Shuffle(resident);
    for (std::int64_t block : resident) {
      if (state.used <= state.quota) {
        break;
      }
      Evict(state, block);
    }
  }
  ReleaseIfIdle(state);
  return Status::Ok();
}

Bytes CacheManager::Allocation(DatasetId dataset) const {
  const DatasetState* state = Find(dataset);
  return state == nullptr ? 0 : state->quota;
}

bool CacheManager::AccessBlock(const Dataset& dataset, std::int64_t block) {
  SILOD_CHECK(block >= 0 && block < dataset.num_blocks)
      << "block " << block << " out of range for dataset " << dataset.id;
  DatasetState* state = Find(dataset.id);
  if (state == nullptr) {
    return false;  // Quota 0: every block (at least one byte) misses unadmitted.
  }
  if (Resident(*state, block)) {
    return true;
  }
  // Miss: the caller fetches remotely; admit under uniform caching.
  if (state->used + state->dataset.BlockBytes(block) <= state->quota) {
    Admit(*state, block);
  }
  return false;
}

void CacheManager::SetTotalCapacity(Bytes capacity) {
  SILOD_CHECK(capacity >= 0) << "negative cache capacity";
  total_capacity_ = capacity;
}

std::int64_t CacheManager::EvictRandomFraction(double fraction, Bytes* bytes_evicted) {
  SILOD_CHECK(fraction >= 0 && fraction <= 1) << "fraction out of [0, 1]";
  std::int64_t evicted = 0;
  for (std::size_t id = 0; id < datasets_.size(); ++id) {
    if (datasets_[id].present) {
      evicted += EvictDatasetFraction(static_cast<DatasetId>(id), fraction, bytes_evicted);
    }
  }
  return evicted;
}

std::int64_t CacheManager::EvictDatasetFraction(DatasetId dataset, double fraction,
                                                Bytes* bytes_evicted) {
  SILOD_CHECK(fraction >= 0 && fraction <= 1) << "fraction out of [0, 1]";
  DatasetState* state = Find(dataset);
  if (state == nullptr) {
    return 0;
  }
  // Candidates come out of the residency bits already sorted by block, so
  // the shuffle outcome is bit-identical across platforms.
  std::vector<std::int64_t> resident = ResidentBlocks(*state);
  rng_.Shuffle(resident);
  const auto count = static_cast<std::size_t>(
      static_cast<double>(resident.size()) * fraction + 0.5);
  std::int64_t evicted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Bytes bytes = Evict(*state, resident[i]);
    if (bytes_evicted != nullptr) {
      *bytes_evicted += bytes;
    }
    ++evicted;
  }
  ReleaseIfIdle(*state);
  return evicted;
}

Bytes CacheManager::CachedBytes(DatasetId dataset) const {
  const DatasetState* state = Find(dataset);
  return state == nullptr ? 0 : state->used;
}

bool CacheManager::IsCached(DatasetId dataset, std::int64_t block) const {
  const DatasetState* state = Find(dataset);
  return state != nullptr && block >= 0 && block < state->dataset.num_blocks &&
         Resident(*state, block);
}

std::vector<std::int64_t> CacheManager::CachedBlocks(DatasetId dataset) const {
  const DatasetState* state = Find(dataset);
  return state == nullptr ? std::vector<std::int64_t>{} : ResidentBlocks(*state);
}

Status CacheManager::RestoreCachedBlocks(const Dataset& dataset,
                                         const std::vector<std::int64_t>& blocks) {
  DatasetState& state = GetOrCreate(dataset);
  for (const std::int64_t block : blocks) {
    if (block < 0 || block >= dataset.num_blocks) {
      ReleaseIfIdle(state);
      return Status::InvalidArgument("restored block out of range");
    }
    if (Resident(state, block)) {
      continue;
    }
    if (state.used + dataset.BlockBytes(block) > state.quota) {
      continue;  // Shrunken allocation: surplus disk content is not re-admitted.
    }
    Admit(state, block);
  }
  ReleaseIfIdle(state);
  return Status::Ok();
}

void CacheManager::RegisterJob(JobId job, const Dataset& dataset) {
  SILOD_CHECK(job >= 0) << "job id " << job << " not dense";
  if (static_cast<std::size_t>(job) >= jobs_.size()) {
    jobs_.resize(static_cast<std::size_t>(job) + 1);
  }
  JobState& state = jobs_[static_cast<std::size_t>(job)];
  SILOD_CHECK(!state.registered) << "job " << job << " already registered";
  DatasetState& ds = GetOrCreate(dataset);
  state.registered = true;
  state.dataset = dataset.id;
  state.epoch_generation = generation_;
  // Every resident block predates this epoch snapshot, so the job starts
  // with the dataset's full occupancy effective.
  state.effective = ds.used;
  ds.readers.push_back(job);
}

void CacheManager::UnregisterJob(JobId job) {
  if (job < 0 || static_cast<std::size_t>(job) >= jobs_.size() ||
      !jobs_[static_cast<std::size_t>(job)].registered) {
    return;
  }
  JobState& state = jobs_[static_cast<std::size_t>(job)];
  const auto index = static_cast<std::size_t>(state.dataset);
  if (state.dataset >= 0 && index < datasets_.size()) {
    auto& readers = datasets_[index].readers;
    readers.erase(std::remove(readers.begin(), readers.end(), job), readers.end());
    ReleaseIfIdle(datasets_[index]);
  }
  state = JobState{};
}

void CacheManager::StartJobEpoch(JobId job) {
  JobState& state = JobRef(job);
  state.epoch_generation = generation_;
  const DatasetState* ds = Find(state.dataset);
  state.effective = ds == nullptr ? 0 : ds->used;
}

Bytes CacheManager::EffectiveBytes(JobId job) const { return JobRef(job).effective; }

}  // namespace silod
