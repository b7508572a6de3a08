#include "src/sim/fine_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/logging.h"
#include "src/core/recovery.h"
#include "src/estimator/ioperf.h"
#include "src/storage/remote_store.h"

namespace silod {
namespace {

// Blocks the loader may run ahead of computation.  Fetched blocks land on
// local disk, so real loaders effectively buffer far ahead within an epoch;
// a large window avoids Jensen-effect throughput loss when hit and miss runs
// interleave.
constexpr int kPrefetchWindow = 256;
static_assert(kPrefetchWindow >= 1, "prefetch window must be >= 1");

}  // namespace

FineEngine::FineEngine(const Trace* trace, std::shared_ptr<Scheduler> scheduler,
                       SimConfig config, FineEngineOptions options)
    : trace_(trace), scheduler_(std::move(scheduler)),
      config_(PrepareSimConfig(trace, std::move(config))), faults_(config_), lifecycle_(trace),
      options_(options),
      cache_manager_(config_.resources.total_cache, config_.seed ^ 0xCACE), rng_(config_.seed) {
  SILOD_CHECK(scheduler_ != nullptr) << "scheduler required";

  const StorageFabric fabric{config_.fabric};
  fabric_rate_ = fabric.PerServerCacheReadRate(config_.resources.num_servers);

  jobs_.resize(trace_->jobs.size());
  for (const JobSpec& spec : trace_->jobs) {
    JobState& s = jobs_[static_cast<std::size_t>(spec.id)];
    s.spec = &spec;
    const Dataset& d = trace_->catalog.Get(spec.dataset);
    s.blocks_total =
        std::max<std::int64_t>(1, (spec.total_bytes + d.block_size / 2) / d.block_size);
    s.rng = Rng(config_.seed ^ (0x9E37ULL * static_cast<std::uint64_t>(spec.id) + 1));
    metrics_.OnSubmit(spec);
  }
  calendar_.Reset(jobs_.size());
  // Sized for every job at once, so the miss set never reallocates.
  miss_wants_.reserve(jobs_.size());
  miss_ids_.reserve(jobs_.size());
  fresh_.reserve(jobs_.size());
}

void FineEngine::SetJobEvent(JobState& s, Seconds t) {
  ++counters_.calendar_updates;
  if (std::isfinite(t)) {
    calendar_.Update(s.spec->id, t);
  } else {
    calendar_.Remove(s.spec->id);
  }
}

BytesPerSec FineEngine::FlowWant(const JobState& s) const {
  const BytesPerSec want = std::min(s.throttle, faults_.resources().per_job_remote_cap);
  SILOD_CHECK(want >= 0) << "negative remote-IO cap for job " << s.spec->id;
  return want;
}

std::size_t FineEngine::MissSlot(BytesPerSec want, std::int32_t id) const {
  std::size_t lo = 0;
  std::size_t hi = miss_ids_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (miss_wants_[mid] < want || (miss_wants_[mid] == want && miss_ids_[mid] < id)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void FineEngine::EnterMissSet(JobState& s, Seconds now) {
  SILOD_CHECK(!s.in_miss_set) << "job already in the miss set";
  s.in_miss_set = true;
  s.flow_want = FlowWant(s);
  const std::size_t slot = MissSlot(s.flow_want, s.spec->id);
  miss_wants_.insert(miss_wants_.begin() + static_cast<std::ptrdiff_t>(slot), s.flow_want);
  miss_ids_.insert(miss_ids_.begin() + static_cast<std::ptrdiff_t>(slot), s.spec->id);
  s.flow_fresh = true;
  fresh_.push_back(s.spec->id);
  s.flow_rate = 0;
  s.settle_time = now;
  flows_dirty_ = true;
}

void FineEngine::LeaveMissSet(JobState& s) {
  SILOD_CHECK(s.in_miss_set) << "job not in the miss set";
  const std::size_t slot = MissSlot(s.flow_want, s.spec->id);
  SILOD_CHECK(slot < miss_ids_.size() && miss_ids_[slot] == s.spec->id)
      << "miss set lost job " << s.spec->id;
  miss_wants_.erase(miss_wants_.begin() + static_cast<std::ptrdiff_t>(slot));
  miss_ids_.erase(miss_ids_.begin() + static_cast<std::ptrdiff_t>(slot));
  s.in_miss_set = false;
  s.flow_fresh = false;
  s.flow_rate = 0;
  flows_dirty_ = true;
}

Bytes FineEngine::EffectiveBytesFor(const JobState& s) {
  if (!s.running) {
    return 0;
  }
  switch (plan_.cache_model) {
    case CacheModelKind::kDatasetQuota:
      return cache_manager_.EffectiveBytes(s.spec->id);
    case CacheModelKind::kPerJobStatic: {
      // Private cache contents are effective from the next epoch; the epoch
      // boundary is where callers re-read this, so current occupancy is the
      // right proxy once an epoch completed.  Curriculum jobs have no epoch
      // structure (§7.4) and never increment epochs_done, so gate them on a
      // warm-up they can actually reach: the private cache can admit nothing
      // further, or a dataset's worth of blocks has been fetched.  The
      // fullness check uses the nominal block_size as a deliberately
      // conservative proxy — only the dataset's tail block can be smaller
      // (Dataset::BlockBytes), so at worst warm-up is declared one
      // sub-nominal block early.
      if (!s.private_cache) {
        return 0;
      }
      bool warm;
      if (s.spec->curriculum) {
        const Dataset& d = trace_->catalog.Get(s.spec->dataset);
        warm = s.private_cache->used_bytes() + d.block_size > s.private_cache->capacity() ||
               s.blocks_fetched >= d.num_blocks;
      } else {
        warm = s.epochs_done > 0;
      }
      return warm ? s.private_cache->used_bytes() : 0;
    }
    case CacheModelKind::kSharedLru:
    case CacheModelKind::kSharedLfu:
      return 0;  // No per-job attribution in a shared pool.
  }
  return 0;
}

void FineEngine::Reschedule(Seconds now) {
  const Snapshot snap =
      lifecycle_.MakeSnapshot(now, faults_.resources(), config_.topology, [&](JobId id) {
        const JobState& s = jobs_[static_cast<std::size_t>(id)];
        const Bytes block = trace_->catalog.Get(s.spec->dataset).block_size;
        return JobView{.spec = s.spec,
                       .remaining_bytes = (s.blocks_total - s.blocks_fetched) * block,
                       .running = s.running,
                       .effective_cache = EffectiveBytesFor(s),
                       .gpu_type = s.gpu_type};
      });
  if (!SolvePlan(*scheduler_, snap, &plan_)) {
    return;
  }

  if (shared_pool_ == nullptr) {
    if (plan_.cache_model == CacheModelKind::kSharedLru) {
      shared_pool_ = std::make_unique<LruItemCache>(faults_.resources().total_cache);
    } else if (plan_.cache_model == CacheModelKind::kSharedLfu) {
      shared_pool_ = std::make_unique<LfuItemCache>(faults_.resources().total_cache);
    }
  }

  // Enforce dataset quotas (shrink evicts uniformly at random).  Shrinks are
  // applied before grows so reshuffled allocations never transiently
  // over-commit the pool.  Only the union of currently-allocated and
  // newly-planned datasets can change — both inputs are sorted by id, so the
  // merged scan visits candidates in the same ascending order the old
  // full-catalog loop did, and every skipped dataset is a quota==current==0
  // no-op there.
  if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
    quota_scratch_.clear();
    auto planned = plan_.dataset_cache.begin();
    std::size_t prev = 0;
    while (prev < nonzero_quota_ids_.size() || planned != plan_.dataset_cache.end()) {
      if (planned == plan_.dataset_cache.end() ||
          (prev < nonzero_quota_ids_.size() && nonzero_quota_ids_[prev] < planned->first)) {
        quota_scratch_.emplace_back(nonzero_quota_ids_[prev++], Bytes{0});
      } else {
        if (prev < nonzero_quota_ids_.size() && nonzero_quota_ids_[prev] == planned->first) {
          ++prev;
        }
        quota_scratch_.emplace_back(planned->first, planned->second);
        ++planned;
      }
    }
    for (const bool shrink_pass : {true, false}) {
      for (const auto& [dataset_id, quota] : quota_scratch_) {
        const Bytes current = cache_manager_.Allocation(dataset_id);
        if (quota == current || (quota < current) != shrink_pass) {
          continue;
        }
        const Status st = cache_manager_.AllocateCacheSize(trace_->catalog.Get(dataset_id), quota);
        SILOD_CHECK(st.ok()) << "cache allocation failed: " << st.ToString();
      }
    }
    nonzero_quota_ids_.clear();
    for (const auto& [dataset_id, quota] : quota_scratch_) {
      if (quota != 0) {
        nonzero_quota_ids_.push_back(dataset_id);
      }
    }
  }

  // Merge-join the plan's job map (sorted) with the live set (sorted):
  // O(live + plan) id lookups instead of a map find per job.
  auto plan_it = plan_.jobs.begin();
  static const JobAllocation kIdleAlloc;
  for (const JobId id : lifecycle_.live()) {
    JobState& s = jobs_[static_cast<std::size_t>(id)];
    while (plan_it != plan_.jobs.end() && plan_it->first < id) {
      ++plan_it;
    }
    const JobAllocation& alloc =
        plan_it != plan_.jobs.end() && plan_it->first == id ? plan_it->second : kIdleAlloc;
    s.throttle = plan_.manages_remote_io ? alloc.remote_io : kUnlimitedRate;
    SILOD_CHECK(alloc.running || !s.running)
        << "the fine engine does not execute preemptive plans (job " << s.spec->id
        << " was suspended); use the flow engine for SRTF";
    if (alloc.running && !s.running) {
      s.running = true;
      s.gpu_type = alloc.gpu_type;
      s.speed = alloc.speed;
      metrics_.OnAssign(s.spec->id, s.gpu_type, config_.topology);
      metrics_.OnStart(s.spec->id, now);
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
        cache_manager_.RegisterJob(s.spec->id, d);
      } else if (plan_.cache_model == CacheModelKind::kPerJobStatic) {
        s.private_cache = std::make_unique<UniformItemCache>(alloc.private_cache);
      }
      if (s.spec->curriculum) {
        s.sampler.emplace(ExponentialPacing(s.spec->curriculum_params, d.num_blocks),
                          s.rng.Fork());
      }
      BeginEpoch(s);
      // A restarted worker re-stages its checkpointed backlog (zero on the
      // first start) instead of losing the fetched-but-unconsumed compute.
      s.compute_finish = now + s.compute_backlog;
      s.compute_backlog = 0;
      StartNextFetch(s, now);
    }
  }
}

void FineEngine::BeginEpoch(JobState& s) {
  s.epoch_fetched = 0;
  if (s.spec->curriculum) {
    return;  // Curriculum jobs have no epoch structure (§7.4).
  }
  const Dataset& d = trace_->catalog.Get(s.spec->dataset);
  s.order.resize(static_cast<std::size_t>(d.num_blocks));
  std::iota(s.order.begin(), s.order.end(), std::int64_t{0});
  s.rng.Shuffle(s.order);
  s.epoch_index = 0;
  if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
    cache_manager_.StartJobEpoch(s.spec->id);
  }
}

std::int64_t FineEngine::NextBlock(JobState& s) {
  if (s.spec->curriculum) {
    return s.sampler->Sample(s.iteration++);
  }
  if (s.epoch_index == static_cast<std::int64_t>(s.order.size())) {
    ++s.epochs_done;
    BeginEpoch(s);
  }
  return s.order[static_cast<std::size_t>(s.epoch_index++)];
}

bool FineEngine::CacheAccess(JobState& s, std::int64_t block) {
  const Dataset& d = trace_->catalog.Get(s.spec->dataset);
  switch (plan_.cache_model) {
    case CacheModelKind::kDatasetQuota:
      // AccessBlock admits on miss internally.
      return cache_manager_.AccessBlock(d, block);
    case CacheModelKind::kSharedLru:
    case CacheModelKind::kSharedLfu: {
      const ItemKey key{d.id, block};
      if (shared_pool_->Access(key)) {
        return true;
      }
      shared_pool_->Admit(key, d.BlockBytes(block));
      return false;
    }
    case CacheModelKind::kPerJobStatic: {
      const ItemKey key{d.id, block};
      if (s.private_cache->Access(key)) {
        return true;
      }
      s.private_cache->Admit(key, d.BlockBytes(block));
      return false;
    }
  }
  return false;
}

void FineEngine::StartNextFetch(JobState& s, Seconds now) {
  SILOD_CHECK(s.running) << "fetch for a job that is not running";
  if (s.blocks_fetched >= s.blocks_total) {
    s.phase = Phase::kDraining;
    SetJobEvent(s, s.compute_finish);
    return;
  }
  const Dataset& d = trace_->catalog.Get(s.spec->dataset);
  const double block_compute =
      static_cast<double>(d.block_size) / EffectiveIdeal(s.spec->ideal_io, s.speed);

  // Prefetch gating: the staged-but-unconsumed buffer may hold at most
  // kPrefetchWindow blocks worth of compute.  The microsecond of slack
  // absorbs floating-point residue at the unblock instant (without it the
  // gate can re-arm forever on a 1-ulp overshoot).
  const double buffer_ahead = s.compute_finish - now;
  const double window = kPrefetchWindow * block_compute;
  if (buffer_ahead > window + 1e-6) {
    s.phase = Phase::kBlocked;
    SetJobEvent(s, std::max(now, s.compute_finish - window));
    return;
  }

  const std::int64_t block = NextBlock(s);
  s.current_block = block;
  const Bytes bytes = d.BlockBytes(block);
  if (CacheAccess(s, block)) {
    s.phase = Phase::kHitFetch;
    SetJobEvent(s, now + static_cast<double>(bytes) / fabric_rate_);
  } else {
    s.phase = Phase::kMissFetch;
    s.fetch_remaining = static_cast<double>(bytes);
    EnterMissSet(s, now);
    // No completion projection until RecomputeFlows assigns a rate (which
    // happens before the next next-event query; see Run()).
    SetJobEvent(s, kInfiniteTime);
  }
}

void FineEngine::OnFetchComplete(JobState& s, Seconds now) {
  const Dataset& d = trace_->catalog.Get(s.spec->dataset);
  const Bytes bytes = d.BlockBytes(s.current_block);
  if (s.phase == Phase::kMissFetch) {
    LeaveMissSet(s);  // CacheAccess already admitted the block.
  }
  s.compute_finish = std::max(s.compute_finish, now) +
                     static_cast<double>(bytes) / EffectiveIdeal(s.spec->ideal_io, s.speed);
  ++s.blocks_fetched;
  ++s.epoch_fetched;
  s.current_block = -1;
  StartNextFetch(s, now);
}

void FineEngine::RefreshFlowWants() {
  bool moved = false;
  for (const std::int32_t id : miss_ids_) {
    JobState& s = jobs_[static_cast<std::size_t>(id)];
    const BytesPerSec want = FlowWant(s);
    if (want == s.flow_want) {
      continue;
    }
    s.flow_want = want;
    moved = true;
    if (!s.flow_fresh) {
      s.flow_fresh = true;
      fresh_.push_back(id);
    }
  }
  if (!moved) {
    return;
  }
  std::sort(miss_ids_.begin(), miss_ids_.end(), [&](std::int32_t a, std::int32_t b) {
    const BytesPerSec want_a = jobs_[static_cast<std::size_t>(a)].flow_want;
    const BytesPerSec want_b = jobs_[static_cast<std::size_t>(b)].flow_want;
    return want_a < want_b || (want_a == want_b && a < b);
  });
  for (std::size_t k = 0; k < miss_ids_.size(); ++k) {
    miss_wants_[k] = jobs_[static_cast<std::size_t>(miss_ids_[k])].flow_want;
  }
}

void FineEngine::ReprojectFlow(JobState& s, BytesPerSec level, Seconds now) {
  ++counters_.flow_visits;
  s.flow_fresh = false;
  const BytesPerSec rate = s.flow_want > 0 ? std::min(s.flow_want, level) : 0.0;
  if (rate == s.flow_rate) {
    return;  // Unchanged rate: the projected completion stays exact.
  }
  ++counters_.flow_rate_changes;
  // Settle the fluid at the old rate up to `now`, then re-project.
  s.fetch_remaining = std::max(0.0, s.fetch_remaining - s.flow_rate * (now - s.settle_time));
  s.settle_time = now;
  s.flow_rate = rate;
  SetJobEvent(s, s.flow_rate > 0 ? now + s.fetch_remaining / s.flow_rate : kInfiniteTime);
}

// Recomputes the max-min fluid rates over the miss set and re-projects only
// the flows whose rate can have moved.  Every member's max-min rate is
// min(want, L) for the water level L (WaterLevel), and L depends only on the
// sorted wants, so the result cannot depend on the members' order.  A member
// that is not fresh holds min(want, L_old) from the last recompute; if its
// want is at most both levels that is its want either way, so only the
// members above min(L_old, L_new) (a suffix of the sorted wants) and the
// fresh ones need a visit.
void FineEngine::RecomputeFlows(Seconds now) {
  ++counters_.flow_recomputes;
  if (wants_dirty_) {
    RefreshFlowWants();
    wants_dirty_ = false;
  }
  const BytesPerSec level = WaterLevel(miss_wants_, faults_.resources().remote_io);
  const BytesPerSec floor = std::min(flow_level_, level);
  flow_level_ = level;
  const std::size_t first = static_cast<std::size_t>(
      std::upper_bound(miss_wants_.begin(), miss_wants_.end(), floor) - miss_wants_.begin());
  for (std::size_t k = first; k < miss_ids_.size(); ++k) {
    ReprojectFlow(jobs_[static_cast<std::size_t>(miss_ids_[k])], level, now);
  }
  for (const std::int32_t id : fresh_) {
    JobState& s = jobs_[static_cast<std::size_t>(id)];
    if (s.flow_fresh) {  // Not left since, nor visited in the suffix.
      ReprojectFlow(s, level, now);
    }
  }
  fresh_.clear();
}

void FineEngine::RecordMetrics(Seconds now) {
  std::vector<JobRates> rates;
  for (const JobId id : lifecycle_.live()) {
    const JobState& s = jobs_[static_cast<std::size_t>(id)];
    if (!s.running) {
      continue;
    }
    const Dataset& d = trace_->catalog.Get(s.spec->dataset);
    double quota = 0;
    if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
      quota = static_cast<double>(std::min(cache_manager_.Allocation(d.id), d.size));
    } else if (plan_.cache_model == CacheModelKind::kPerJobStatic && s.private_cache) {
      quota = static_cast<double>(std::min(s.private_cache->capacity(), d.size));
    }
    // Instantaneous consumption: f*·s while the compute pipeline has data.
    const BytesPerSec ideal = EffectiveIdeal(s.spec->ideal_io, s.speed);
    rates.push_back({s.spec, s.speed, s.compute_finish > now + kTimeEps ? ideal : 0,
                      s.phase == Phase::kMissFetch ? s.flow_rate : 0,
                      static_cast<double>(EffectiveBytesFor(s)), quota});
  }
  metrics_.OnRates(now, rates, 0, faults_.resources(), trace_->catalog);
}

void FineEngine::ResizeCachePool(double evict_fraction, bool evict_quota_caches) {
  const Bytes total_cache = faults_.resources().total_cache;
  const StorageFabric fabric{config_.fabric};
  fabric_rate_ = fabric.PerServerCacheReadRate(faults_.resources().num_servers);
  if (evict_fraction > 0) {
    FaultStats& stats = faults_.stats();
    if (evict_quota_caches) {
      Bytes quota_bytes = 0;
      stats.blocks_lost += cache_manager_.EvictRandomFraction(evict_fraction, &quota_bytes);
      stats.bytes_lost += static_cast<double>(quota_bytes);
    }
    // Shared and per-job private caches live on the same servers: shed the
    // crashed share by shrinking to the surviving bytes and restoring the
    // policy capacity (uniform caches evict at random, LRU/LFU per policy).
    const auto shed = [&](ItemCache* item_cache) {
      if (item_cache == nullptr || item_cache->used_bytes() == 0) {
        return;
      }
      const std::size_t before = item_cache->item_count();
      const Bytes used_before = item_cache->used_bytes();
      const Bytes policy_capacity = item_cache->capacity();
      const Bytes surviving = static_cast<Bytes>(
          static_cast<double>(item_cache->used_bytes()) * (1.0 - evict_fraction));
      item_cache->SetCapacity(surviving, &rng_);
      item_cache->SetCapacity(policy_capacity, &rng_);
      stats.blocks_lost += static_cast<std::int64_t>(before - item_cache->item_count());
      stats.bytes_lost += static_cast<double>(used_before - item_cache->used_bytes());
    };
    shed(shared_pool_.get());
    for (const JobId id : lifecycle_.present()) {
      shed(jobs_[static_cast<std::size_t>(id)].private_cache.get());
    }
  }
  // Quotas may transiently exceed the shrunken pool; the reschedule this
  // fault triggers re-plans within it (shrinks apply before grows).
  cache_manager_.SetTotalCapacity(total_cache);
  if (shared_pool_ != nullptr) {
    shared_pool_->SetCapacity(total_cache, &rng_);
  }
}

void FineEngine::ApplyFault(const FaultEvent& event, Seconds now) {
  FaultStats& stats = faults_.stats();
  switch (event.kind) {
    case FaultKind::kCacheServerCrash: {
      const std::optional<ClusterFaultState::ServerCrash> crash =
          faults_.CrashServer(event.target);
      if (!crash) {
        return;
      }
      const std::int64_t blocks_before = stats.blocks_lost;
      const bool spread = crash->prev_zone_alive > 0 && !plan_.dataset_zone_cache.empty() &&
                          plan_.cache_model == CacheModelKind::kDatasetQuota;
      if (spread) {
        // Zone-aware placement: a dataset loses the crashed member's slice of
        // its share in this zone — (share_z / quota) / alive_in_z of its
        // residents — instead of the pool-uniform 1/prev_alive share.
        const auto zone = static_cast<std::size_t>(crash->zone);
        for (const Dataset& dataset : trace_->catalog.all()) {
          double fraction = 1.0 / crash->prev_alive;
          auto it = plan_.dataset_zone_cache.find(dataset.id);
          if (it != plan_.dataset_zone_cache.end() && zone < it->second.size()) {
            Bytes quota_total = 0;
            for (Bytes share : it->second) {
              quota_total += share;
            }
            fraction = quota_total > 0 ? static_cast<double>(it->second[zone]) /
                                             static_cast<double>(quota_total) /
                                             crash->prev_zone_alive
                                       : 0.0;
          }
          if (fraction <= 0) {
            continue;
          }
          Bytes bytes = 0;
          stats.blocks_lost +=
              cache_manager_.EvictDatasetFraction(dataset.id, std::min(1.0, fraction), &bytes);
          stats.bytes_lost += static_cast<double>(bytes);
        }
      }
      // Uniform placement: each alive server held ~1/prev_alive of the pool.
      ResizeCachePool(1.0 / crash->prev_alive, /*evict_quota_caches=*/!spread);
      if (crash->zone >= 0) {
        const std::int64_t zone_blocks = stats.blocks_lost - blocks_before;
        if (zone_blocks > 0) {
          stats.blocks_lost_by_zone
              [config_.topology.zones()[static_cast<std::size_t>(crash->zone)].name] +=
              zone_blocks;
        }
      }
      return;
    }
    case FaultKind::kCacheServerRecover:
      if (faults_.RecoverServer(event.target)) {
        ResizeCachePool(0.0);  // Rejoins empty; refills through misses.
      }
      return;
    case FaultKind::kRemoteDegrade:
      faults_.Degrade(event, now);
      return;
    case FaultKind::kWorkerCrash: {
      if (!lifecycle_.CrashWorker(event.target, jobs_, stats)) {
        return;
      }
      JobState& s = jobs_[static_cast<std::size_t>(event.target)];
      const double staged = std::max(0.0, s.compute_finish - now);
      // What the crash discards is the RestartCost policy's call: by default
      // everything is checkpointed and the staged compute freezes; otherwise
      // the un-checkpointed fetch suffix is re-read (its compute re-enqueues
      // through the normal refetch path) and the staged compute it covers is
      // discarded.
      std::int64_t lost = 0;
      switch (config_.restart_cost.policy) {
        case RestartCostPolicy::kCheckpointEverything:
          break;
        case RestartCostPolicy::kLosePartialEpoch:
          // Curriculum jobs have no epoch structure; nothing to roll back to.
          lost = s.spec->curriculum ? 0 : s.epoch_fetched;
          break;
        case RestartCostPolicy::kCheckpointInterval:
          lost = s.blocks_fetched % std::max<std::int64_t>(1, config_.restart_cost.interval_blocks);
          break;
      }
      lost = std::min(lost, s.blocks_fetched);
      if (lost > 0 || config_.restart_cost.policy != RestartCostPolicy::kCheckpointEverything) {
        const Dataset& d = trace_->catalog.Get(s.spec->dataset);
        // Lost compute-time at the crashed worker's actual rate (its held
        // GPU type), before the placement is released below.
        const double lost_compute =
            std::min(staged, static_cast<double>(lost) * static_cast<double>(d.block_size) /
                                 EffectiveIdeal(s.spec->ideal_io, s.speed));
        s.blocks_fetched -= lost;
        stats.blocks_refetched += lost;
        stats.compute_lost += lost_compute;
        s.compute_backlog = staged - lost_compute;
      } else {
        s.compute_backlog = staged;
      }
      s.epoch_fetched = 0;
      if (s.phase == Phase::kMissFetch) {
        LeaveMissSet(s);
      }
      s.phase = Phase::kIdle;
      s.current_block = -1;
      s.fetch_remaining = 0;
      s.running = false;
      s.gpu_type = -1;
      s.speed = 1.0;
      SetJobEvent(s, kInfiniteTime);
      if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
        cache_manager_.UnregisterJob(s.spec->id);
      }
      s.private_cache.reset();  // CoorDL's cache lives on the crashed worker.
      return;
    }
    case FaultKind::kWorkerRestart:
      lifecycle_.RestartWorker(event.target, stats);
      return;  // The reschedule this triggers re-admits it via the start path.
    case FaultKind::kDataManagerRestart: {
      ++stats.dm_restarts;
      if (plan_.cache_model != CacheModelKind::kDatasetQuota) {
        return;  // Shared/private caches have no Data Manager state to lose.
      }
      // Rebuild from the durable pieces (§6): allocations + disk contents.
      // Booted with enough headroom to re-admit everything, then clamped back.
      const DataManagerSnapshot snapshot =
          CaptureCacheSnapshot(cache_manager_, trace_->catalog);
      const Bytes capacity = cache_manager_.total_capacity();
      const Bytes boot_capacity = std::max(capacity, cache_manager_.total_allocated());
      CacheManager fresh(boot_capacity,
                         config_.seed ^ 0xCACE ^
                             (0x9E3779B97F4A7C15ULL *
                              static_cast<std::uint64_t>(stats.dm_restarts)));
      const Status st = RestoreCacheManager(snapshot, trace_->catalog, &fresh);
      SILOD_CHECK(st.ok()) << "Data Manager restore failed: " << st.ToString();
      fresh.SetTotalCapacity(capacity);
      cache_manager_ = std::move(fresh);
      // Re-register the live jobs; the restored blocks are immediately
      // effective for them (inserted before their new epoch generation).
      for (const JobId id : lifecycle_.live()) {
        const JobState& s = jobs_[static_cast<std::size_t>(id)];
        if (s.running) {
          cache_manager_.RegisterJob(id, trace_->catalog.Get(s.spec->dataset));
        }
      }
      return;
    }
  }
  LogInvalidFaultKind(event);
}

// Fires the event the job is currently waiting on.  Cross-job effects (flow
// rates) are deferred through flows_dirty_, so the order in which several
// simultaneous jobs fire cannot change any of their outcomes — but it is
// still pinned to ascending job id for bit-identical RNG and cache
// interleaving.  Returns true when the job finished, so the caller can
// reschedule the freed GPUs/cache/throttles immediately instead of leaving
// them idle until the next periodic tick.
bool FineEngine::FireJobEvent(JobState& s, Seconds now) {
  switch (s.phase) {
    case Phase::kMissFetch:
      ++counters_.miss_completions;
      s.fetch_remaining = 0;
      s.settle_time = now;
      OnFetchComplete(s, now);
      break;
    case Phase::kHitFetch:
      ++counters_.hit_completions;
      OnFetchComplete(s, now);
      break;
    case Phase::kBlocked:
      ++counters_.unblocks;
      // Re-enter the fetch path with the drained buffer.
      s.phase = Phase::kIdle;
      StartNextFetch(s, now);
      break;
    case Phase::kDraining:
      ++counters_.drains;
      s.running = false;
      lifecycle_.Finish(s.spec->id);
      s.phase = Phase::kIdle;
      SetJobEvent(s, kInfiniteTime);
      metrics_.OnFinish(s.spec->id, now);
      if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
        cache_manager_.UnregisterJob(s.spec->id);
      }
      s.private_cache.reset();  // CoorDL's cache goes with the finished job.
      return true;
    case Phase::kIdle:
      break;
  }
  return false;
}

SimResult FineEngine::Run() {
  // Start at the first arrival; the reschedule tick counts from there.
  Seconds t = lifecycle_.NextArrivalTime();
  Seconds next_tick = t + config_.reschedule_period;
  Seconds next_sample = t;
  bool need_resched = true;

  while (!metrics_.AllFinished()) {
    SILOD_CHECK(++counters_.steps < 2'000'000'000ULL) << "fine engine step limit exceeded";
    if (t > config_.max_time) {
      break;  // The jobs with no finish time are reported unfinished.
    }

    need_resched = lifecycle_.ArriveUntil(t + kTimeEps) || need_resched;
    if (need_resched) {
      ++counters_.reschedules;
      Reschedule(t);
      need_resched = false;
      flows_dirty_ = true;  // Throttles may have moved.
      wants_dirty_ = true;
    }
    if (flows_dirty_) {
      RecomputeFlows(t);
      flows_dirty_ = false;
    }
    if (t + kTimeEps >= next_sample) {
      RecordMetrics(t);
      next_sample = t + options_.sample_period;
    }

    // Next event: the earliest of the next arrival, the reschedule tick, the
    // metrics sample, the next injected fault, and the per-job calendar.
    const Seconds next_event = std::min({next_tick, next_sample, faults_.NextTime(),
                                         calendar_.PeekTime(), lifecycle_.NextArrivalTime()});
    SILOD_CHECK(std::isfinite(next_event)) << "fine engine stalled at t=" << t;
    t = std::max(t, next_event);

    if (t + kTimeEps >= next_tick) {
      next_tick += config_.reschedule_period;
      need_resched = true;
    }

    // Inject faults before firing job events so a crash at the same instant
    // as a fetch completion takes effect first.  Every fault is a scheduling
    // event: the plan is recomputed immediately.
    if (faults_.NextTime() <= t + kTimeEps) {
      for (const FaultEvent& event : faults_.PopDue(t + kTimeEps)) {
        ApplyFault(event, t);
      }
      need_resched = true;
      flows_dirty_ = true;  // The capacity or the per-job cap may have moved.
      wants_dirty_ = true;
    }

    // Fire matured per-job events in ascending job id.  Events scheduled
    // during this pass (e.g. an instantaneous unblock) fire on the next
    // iteration.  A finished job frees resources, so it triggers a reschedule
    // at the top of the next iteration rather than waiting out the periodic
    // tick.
    due_.clear();
    calendar_.PopDue(t + kTimeEps, due_);
    std::sort(due_.begin(), due_.end());
    for (const std::int32_t id : due_) {
      JobState& s = jobs_[static_cast<std::size_t>(id)];
      if (s.running) {
        need_resched = FireJobEvent(s, t) || need_resched;
      }
    }
  }
  RecordMetrics(t);
  SimResult result = metrics_.Finalize();
  result.steps = counters_;
  result.faults = faults_.Finish(t, result.total_throughput);
  return result;
}

}  // namespace silod
