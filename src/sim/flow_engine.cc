#include "src/sim/flow_engine.h"

#include <algorithm>
#include <cmath>

#include "src/cache/analytic.h"
#include "src/common/logging.h"
#include "src/estimator/ioperf.h"
#include "src/storage/remote_store.h"

namespace silod {
namespace {

constexpr double kEps = 1e-6;           // Bytes-scale tolerance.
constexpr int kSharedLruIterations = 8;

}  // namespace

FlowEngine::FlowEngine(const Trace* trace, std::shared_ptr<Scheduler> scheduler,
                       SimConfig config)
    : trace_(trace), scheduler_(std::move(scheduler)),
      config_(PrepareSimConfig(trace, std::move(config))), faults_(config_), lifecycle_(trace) {
  SILOD_CHECK(scheduler_ != nullptr) << "scheduler required";

  jobs_.resize(trace_->jobs.size());
  for (const JobSpec& spec : trace_->jobs) {
    JobState& s = jobs_[static_cast<std::size_t>(spec.id)];
    s.spec = &spec;
    s.remaining = static_cast<double>(spec.total_bytes);
    metrics_.OnSubmit(spec);
  }
  datasets_.resize(trace_->catalog.size());
  dataset_jobs_.resize(datasets_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    dataset_jobs_[static_cast<std::size_t>(jobs_[i].spec->dataset)].push_back(
        static_cast<JobId>(i));
  }
}

void FlowEngine::Reschedule(Seconds now) {
  const Snapshot snap =
      lifecycle_.MakeSnapshot(now, faults_.resources(), config_.topology, [&](JobId id) {
        const JobState& s = jobs_[static_cast<std::size_t>(id)];
        return JobView{.spec = s.spec,
                       .remaining_bytes = static_cast<Bytes>(std::max(0.0, s.remaining)),
                       .running = s.running,
                       .effective_cache = static_cast<Bytes>(s.effective),
                       .gpu_type = s.gpu_type};
      });
  if (!SolvePlan(*scheduler_, snap, &plan_)) {
    return;
  }

  // Apply dataset quotas; shrinking evicts uniformly at random, which removes
  // effective and ineffective items in proportion.  With Hoard prefetching,
  // unallocated ("opportunistic") cache contents survive as long as the pool
  // has room; they are evicted first when quotas need the space.
  Bytes total_quota = 0;
  for (const auto& [dataset_id, quota] : plan_.dataset_cache) {
    if (dataset_id >= 0 && static_cast<std::size_t>(dataset_id) < datasets_.size()) {
      total_quota += quota;
    }
  }
  // Only held datasets and those the plan names can change, visited in
  // ascending id by a merge of the three sorted sources; the rest are all
  // zero and absent from the plan.  Datasets back to all zero leave the set.
  const DatasetId num_datasets = static_cast<DatasetId>(datasets_.size());
  auto cache_it = plan_.dataset_cache.lower_bound(0);
  auto zone_it = plan_.dataset_zone_cache.lower_bound(0);
  std::vector<DatasetId>& held = held_next_;
  held.clear();
  for (std::size_t h = 0;;) {
    DatasetId d = h < held_.size() ? held_[h] : num_datasets;
    if (cache_it != plan_.dataset_cache.end()) {
      d = std::min(d, cache_it->first);
    }
    if (zone_it != plan_.dataset_zone_cache.end()) {
      d = std::min(d, zone_it->first);
    }
    if (d >= num_datasets) {
      break;
    }
    if (h < held_.size() && held_[h] == d) {
      ++h;
    }
    Bytes quota = 0;
    if (cache_it != plan_.dataset_cache.end() && cache_it->first == d) {
      quota = (cache_it++)->second;
    }
    const std::vector<Bytes>* shares = nullptr;
    if (zone_it != plan_.dataset_zone_cache.end() && zone_it->first == d) {
      shares = &(zone_it++)->second;
    }
    ApplyDatasetQuota(static_cast<std::size_t>(d), quota, shares);
    if (!datasets_[static_cast<std::size_t>(d)].AllZero()) {
      held.push_back(d);
    }
  }
  held_.swap(held);
  if (config_.prefetch_waiting) {
    // Evict opportunistic data (largest holdings first) until quotas plus
    // opportunistic contents fit the pool.
    double opportunistic = 0;
    std::vector<std::size_t> holders;
    for (const DatasetId id : held_) {
      const std::size_t d = static_cast<std::size_t>(id);
      if (datasets_[d].quota == 0 && datasets_[d].cached > 0) {
        opportunistic += datasets_[d].cached;
        holders.push_back(d);
      }
    }
    double budget = static_cast<double>(faults_.resources().total_cache - total_quota);
    if (opportunistic > budget) {
      std::sort(holders.begin(), holders.end(), [&](std::size_t a, std::size_t b) {
        return datasets_[a].cached > datasets_[b].cached;
      });
      for (std::size_t d : holders) {
        if (opportunistic <= budget) {
          break;
        }
        const double excess = opportunistic - budget;
        const double drop = std::min(excess, datasets_[d].cached);
        ShrinkDataset(d, datasets_[d].cached - drop);
        opportunistic -= drop;
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
    if (!alloc.running && s.running) {
      // Preemption (SRTF plans): suspend in place — progress, epoch position
      // and cache effectiveness survive; the resume penalty is charged below.
      s.running = false;
      s.gpu_type = -1;
      s.speed = 1.0;
      continue;
    }
    if (alloc.running && s.running && alloc.gpu_type != s.gpu_type) {
      // Migration across GPU types (preemptive plans only): checkpoint on the
      // old type, restore on the new one — same cost as a suspend/resume pair.
      s.gpu_type = alloc.gpu_type;
      s.speed = alloc.speed;
      metrics_.OnAssign(s.spec->id, s.gpu_type, config_.topology);
      s.remaining += config_.preempt_resume_penalty * EffectiveIdeal(s.spec->ideal_io, s.speed);
    }
    if (alloc.running && !s.running) {
      s.running = true;
      s.gpu_type = alloc.gpu_type;
      s.speed = alloc.speed;
      metrics_.OnAssign(s.spec->id, s.gpu_type, config_.topology);
      metrics_.OnStart(s.spec->id, now);
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      if (!s.started) {
        s.started = true;
        s.epoch_pos = 0;
        switch (plan_.cache_model) {
          case CacheModelKind::kDatasetQuota:
            // Items cached by earlier jobs predate this job's first epoch and
            // are immediately effective for it.
            s.effective = std::min(datasets_[static_cast<std::size_t>(d.id)].cached,
                                   static_cast<double>(d.size));
            break;
          case CacheModelKind::kPerJobStatic:
          case CacheModelKind::kSharedLru:
          case CacheModelKind::kSharedLfu:
            s.effective = 0;
            break;
        }
      } else {
        // Resume after preemption: checkpoint restore and pipeline refill
        // cost work-time, charged as extra bytes at the job's ideal rate.
        s.remaining += config_.preempt_resume_penalty * EffectiveIdeal(s.spec->ideal_io, s.speed);
      }
    }
    if (plan_.cache_model == CacheModelKind::kPerJobStatic && s.running) {
      s.private_quota = alloc.private_cache;
      if (s.private_cached > static_cast<double>(s.private_quota)) {
        const double keep = s.private_cached > 0
                                ? static_cast<double>(s.private_quota) / s.private_cached
                                : 0.0;
        s.effective *= keep;
        s.private_cached = static_cast<double>(s.private_quota);
      }
    }
  }
}

void FlowEngine::ShrinkDataset(std::size_t d, double limit) {
  DatasetState& ds = datasets_[d];
  if (ds.cached <= limit) {
    return;
  }
  ScaleEffective(d, ds.cached > 0 ? limit / ds.cached : 0.0);
  ds.cached = limit;
}

void FlowEngine::ScaleEffective(std::size_t d, double keep) {
  for (const JobId id : dataset_jobs_[d]) {
    if (lifecycle_.Present(id)) {
      jobs_[static_cast<std::size_t>(id)].effective *= keep;
    }
  }
}

void FlowEngine::ApplyDatasetQuota(std::size_t d, Bytes quota,
                                   const std::vector<Bytes>* shares) {
  DatasetState& ds = datasets_[d];
  if (shares != nullptr && !config_.topology.empty()) {
    ApplyZoneQuota(d, quota, *shares);
  } else {
    if (!ds.zone_cached.empty()) {
      // The plan stopped spreading this dataset: its fluid is oblivious
      // again (uniform loss on the next crash).
      ds.zone_cached.clear();
      ds.zone_limit.clear();
    }
    if (!(config_.prefetch_waiting && quota == 0)) {
      ShrinkDataset(d, static_cast<double>(quota));
    }
    ds.quota = quota;
  }
}

void FlowEngine::ApplyZoneQuota(std::size_t d, Bytes quota, const std::vector<Bytes>& shares) {
  DatasetState& ds = datasets_[d];
  const int num_zones = config_.topology.num_zones();
  if (static_cast<int>(ds.zone_cached.size()) != num_zones) {
    // First zone-aware plan for this dataset: attribute any existing fluid
    // proportional to the incoming shares (the rule that placed it).
    const double before = ds.cached;
    ds.zone_cached.assign(static_cast<std::size_t>(num_zones), 0.0);
    double total_share = 0;
    for (const Bytes share : shares) {
      total_share += static_cast<double>(share);
    }
    if (before > 0 && total_share > 0) {
      for (int z = 0; z < num_zones; ++z) {
        ds.zone_cached[static_cast<std::size_t>(z)] =
            before * static_cast<double>(shares[static_cast<std::size_t>(z)]) / total_share;
      }
    }
  }
  ds.zone_limit.assign(shares.begin(), shares.end());

  // Rebalance against the alive-aware caps: fluid above a zone's cap first
  // migrates into other zones' headroom (quota that moved between zones, or
  // a recovering zone reclaiming its share, travels over the intra-cluster
  // fabric, not the remote link) and only the remainder is evicted.
  const std::vector<double>& caps = ZoneFillCaps(ds);
  const double before = ds.cached;
  double spill = 0;
  double total_headroom = 0;
  std::vector<double>& headroom = zone_headroom_;
  headroom.assign(static_cast<std::size_t>(num_zones), 0.0);
  for (int z = 0; z < num_zones; ++z) {
    double& zc = ds.zone_cached[static_cast<std::size_t>(z)];
    if (zc > caps[static_cast<std::size_t>(z)]) {
      spill += zc - caps[static_cast<std::size_t>(z)];
      zc = caps[static_cast<std::size_t>(z)];
    }
    headroom[static_cast<std::size_t>(z)] = caps[static_cast<std::size_t>(z)] - zc;
    total_headroom += headroom[static_cast<std::size_t>(z)];
  }
  double after = 0;
  const double moved = std::min(spill, total_headroom);
  for (int z = 0; z < num_zones; ++z) {
    if (moved > 0) {
      ds.zone_cached[static_cast<std::size_t>(z)] +=
          moved * headroom[static_cast<std::size_t>(z)] / total_headroom;
    }
    after += ds.zone_cached[static_cast<std::size_t>(z)];
  }
  if (after < before - kEps && before > 0) {
    ScaleEffective(d, after / before);
  }
  ds.cached = after;
  ds.quota = quota;
}

const std::vector<double>& FlowEngine::ZoneFillCaps(const DatasetState& ds) {
  if (faults_.AllServersAlive()) {
    return ds.zone_limit;  // limit · 1.0 in every zone, and nothing dead to absorb.
  }
  const int num_zones = config_.topology.num_zones();
  std::vector<double>& caps = zone_caps_;
  caps.assign(static_cast<std::size_t>(num_zones), 0.0);
  double alive_total = 0;
  double dead_total = 0;
  for (int z = 0; z < num_zones; ++z) {
    const double limit = ds.zone_limit[static_cast<std::size_t>(z)];
    const double alive = limit * faults_.ZoneAliveFraction(z);
    caps[static_cast<std::size_t>(z)] = alive;
    alive_total += alive;
    dead_total += limit - alive;
  }
  if (dead_total > 0 && alive_total > 0) {
    // Survivors absorb the dead capacity in proportion to their own alive
    // share: the caps still sum to the full quota (the shrunken pool is
    // enforced separately), matching the oblivious engine's refill room.
    for (int z = 0; z < num_zones; ++z) {
      caps[static_cast<std::size_t>(z)] +=
          dead_total * caps[static_cast<std::size_t>(z)] / alive_total;
    }
  }
  return caps;
}

void FlowEngine::FillZones(DatasetState& ds, double delta) {
  // Never fill past the dataset-level limit (quota may exceed d.size).
  delta = std::min(delta, ds.fill_limit - ds.cached);
  if (delta <= 0) {
    return;
  }
  const int num_zones = config_.topology.num_zones();
  const std::vector<double>& caps = ZoneFillCaps(ds);
  std::vector<double>& headroom = zone_headroom_;
  headroom.assign(static_cast<std::size_t>(num_zones), 0.0);
  double total_headroom = 0;
  for (int z = 0; z < num_zones; ++z) {
    headroom[static_cast<std::size_t>(z)] = std::max(
        0.0, caps[static_cast<std::size_t>(z)] - ds.zone_cached[static_cast<std::size_t>(z)]);
    total_headroom += headroom[static_cast<std::size_t>(z)];
  }
  if (total_headroom <= 0) {
    return;
  }
  const double assign = std::min(delta, total_headroom);
  for (int z = 0; z < num_zones; ++z) {
    ds.zone_cached[static_cast<std::size_t>(z)] +=
        assign * headroom[static_cast<std::size_t>(z)] / total_headroom;
  }
  ds.cached += assign;
}

void FlowEngine::ComputeRates() {
  std::vector<JobState*>& running = running_;
  running.clear();
  for (const JobId id : lifecycle_.live()) {
    JobState& s = jobs_[static_cast<std::size_t>(id)];
    if (s.running) {
      running.push_back(&s);
    }
  }
  for (const DatasetId d : held_) {
    DatasetState& ds = datasets_[static_cast<std::size_t>(d)];
    ds.fill_rate = 0;
    ds.fill_limit = 0;
  }
  prefetch_rate_ = 0;
  if (running.empty() && !config_.prefetch_waiting) {
    return;
  }

  const std::size_t n = running.size();
  std::vector<double>& miss = miss_;
  miss.resize(n);

  if (plan_.cache_model == CacheModelKind::kSharedLru ||
      plan_.cache_model == CacheModelKind::kSharedLfu) {
    // Fixed point between loading rates and the shared-pool hit ratios.  LFU
    // degenerates to the same scan dynamics under exactly-once epochs, so the
    // two policies share the fluid model.
    std::vector<BytesPerSec> rates(n);
    std::vector<BytesPerSec> ideals(n);
    std::vector<Bytes> sizes(n);
    for (std::size_t i = 0; i < n; ++i) {
      ideals[i] = EffectiveIdeal(running[i]->spec->ideal_io, running[i]->speed);
      rates[i] = ideals[i];
      sizes[i] = trace_->catalog.Get(running[i]->spec->dataset).size;
    }
    share_demand_.resize(n);
    share_caps_.assign(n, faults_.resources().per_job_remote_cap);
    share_capacity_ = faults_.resources().remote_io;
    for (int iter = 0; iter < kSharedLruIterations; ++iter) {
      const SharedLruResult lru =
          SharedLruModel(rates, sizes, faults_.resources().total_cache);
      for (std::size_t i = 0; i < n; ++i) {
        const double h = running[i]->warm ? lru.hit_ratio[i] : 0.0;
        miss[i] = 1.0 - h;
        share_demand_[i] = ideals[i] * miss[i];
      }
      MaxMinShare(share_demand_, share_caps_, share_capacity_, &share_sorted_, &share_granted_);
      for (std::size_t i = 0; i < n; ++i) {
        rates[i] =
            miss[i] > kEps ? std::min(ideals[i], share_granted_[i] / miss[i]) : ideals[i];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      running[i]->rate = rates[i];
      running[i]->io_rate = rates[i] * miss[i];
      // Track the LRU-resident share as the job's "effective" cache for
      // reporting; epoch boundaries refresh it too.
      running[i]->effective = rates[i] > 0 && running[i]->warm
                                  ? (1.0 - miss[i]) * static_cast<double>(sizes[i])
                                  : 0.0;
    }
    return;
  }

  // Quota-based models (SiloD, Quiver) and CoorDL's private static caches.
  // The shares are a function of the demands, caps and capacity alone, and
  // most steps (arrivals, ticks, epoch boundaries that move no cache) leave
  // all three as they were: then the last step's shares stand.
  next_demand_.resize(n);
  next_caps_.assign(n, faults_.resources().per_job_remote_cap);
  for (std::size_t i = 0; i < n; ++i) {
    const JobState& s = *running[i];
    const Dataset& d = trace_->catalog.Get(s.spec->dataset);
    const double hit =
        std::min(1.0, std::max(0.0, s.effective / static_cast<double>(d.size)));
    miss[i] = 1.0 - hit;
    next_demand_[i] = EffectiveIdeal(s.spec->ideal_io, s.speed) * miss[i];
    next_caps_[i] = std::min(next_caps_[i], s.throttle);
  }
  if (next_demand_ != share_demand_ || next_caps_ != share_caps_ ||
      faults_.resources().remote_io != share_capacity_) {
    share_demand_.swap(next_demand_);
    share_caps_.swap(next_caps_);
    share_capacity_ = faults_.resources().remote_io;
    MaxMinShare(share_demand_, share_caps_, share_capacity_, &share_sorted_, &share_granted_);
  }

  for (std::size_t i = 0; i < n; ++i) {
    JobState& s = *running[i];
    const BytesPerSec ideal = EffectiveIdeal(s.spec->ideal_io, s.speed);
    s.io_rate = share_granted_[i];
    s.rate = miss[i] > kEps ? std::min(ideal, share_granted_[i] / miss[i]) : ideal;

    // Cache fill: missed fetches are admitted until the quota is reached.
    // A dataset outside the held set has no quota, so this leaves it zero.
    if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      DatasetState& ds = datasets_[static_cast<std::size_t>(d.id)];
      ds.fill_limit = std::min(static_cast<double>(ds.quota), static_cast<double>(d.size));
      if (ds.cached < ds.fill_limit - kEps) {
        ds.fill_rate += s.io_rate;
      }
    }
    // Per-job static (CoorDL) fill is handled in the advance step via io_rate.
  }

  // Hoard mode: pour leftover egress into the head-of-queue waiting job's
  // dataset, filling unallocated cache space.
  if (config_.prefetch_waiting && plan_.cache_model == CacheModelKind::kDatasetQuota) {
    BytesPerSec used = 0;
    for (const JobState* s : running) {
      used += s->io_rate;
    }
    const BytesPerSec leftover = std::max(0.0, faults_.resources().remote_io - used);
    if (leftover > 0) {
      // Datasets outside the held set would each add +0.0.
      double occupied = 0;
      for (const DatasetId d : held_) {
        const DatasetState& ds = datasets_[static_cast<std::size_t>(d)];
        occupied += std::max(ds.cached, static_cast<double>(ds.quota));
      }
      const double pool_space =
          std::max(0.0, static_cast<double>(faults_.resources().total_cache) - occupied);
      if (pool_space > kEps) {
        // Crashed jobs wait too.
        const JobState* head = nullptr;
        for (const JobId id : lifecycle_.present()) {
          const JobState& s = jobs_[static_cast<std::size_t>(id)];
          if (s.running) {
            continue;
          }
          const Dataset& d = trace_->catalog.Get(s.spec->dataset);
          const DatasetState& ds = datasets_[static_cast<std::size_t>(d.id)];
          if (ds.cached + kEps < static_cast<double>(d.size) &&
              (head == nullptr || s.spec->submit_time < head->spec->submit_time)) {
            head = &s;
          }
        }
        if (head != nullptr) {
          const Dataset& d = trace_->catalog.Get(head->spec->dataset);
          // The prefetch target may have no quota: it joins the held set.
          const auto held_it = std::lower_bound(held_.begin(), held_.end(), d.id);
          if (held_it == held_.end() || *held_it != d.id) {
            held_.insert(held_it, d.id);
          }
          DatasetState& ds = datasets_[static_cast<std::size_t>(d.id)];
          ds.fill_limit = std::max(ds.fill_limit,
                                   std::min(static_cast<double>(d.size), ds.cached + pool_space));
          ds.fill_rate += leftover;
          prefetch_rate_ = leftover;
        }
      }
    }
  }
}

void FlowEngine::ApplyFault(const FaultEvent& event, Seconds now) {
  FaultStats& stats = faults_.stats();
  switch (event.kind) {
    case FaultKind::kCacheServerCrash: {
      const std::optional<ClusterFaultState::ServerCrash> crash =
          faults_.CrashServer(event.target);
      if (!crash) {
        return;
      }
      // Zone-aware datasets lose the crashed server's slice of the crashed
      // *zone's* share; oblivious ones lose ~1/prev_alive of their fluid
      // (uniform placement).  Effectiveness drops in proportion either way.
      const int zone = crash->zone;
      const std::string* zone_name =
          zone >= 0 ? &config_.topology.zones()[static_cast<std::size_t>(zone)].name : nullptr;
      auto charge_loss = [&](double lost, Bytes block_size) {
        const std::int64_t blocks =
            static_cast<std::int64_t>(lost / static_cast<double>(block_size));
        stats.blocks_lost += blocks;
        stats.bytes_lost += lost;
        if (zone_name != nullptr) {
          stats.blocks_lost_by_zone[*zone_name] += blocks;
        }
      };
      const double keep = 1.0 - 1.0 / crash->prev_alive;
      for (const DatasetId id : held_) {  // Other datasets hold nothing to lose.
        const std::size_t d = static_cast<std::size_t>(id);
        DatasetState& ds = datasets_[d];
        if (ds.cached <= 0) {
          continue;
        }
        double lost = 0;
        if (zone >= 0 && !ds.zone_cached.empty() && crash->prev_zone_alive > 0) {
          double& zc = ds.zone_cached[static_cast<std::size_t>(zone)];
          lost = zc / crash->prev_zone_alive;
          zc -= lost;
        } else {
          lost = ds.cached * (1.0 - keep);
          if (!ds.zone_cached.empty()) {
            // Spread dataset crashed in an unzoned server with no topology:
            // unreachable once Cover() ran, but keep the invariant anyway.
            for (double& zc : ds.zone_cached) {
              zc *= keep;
            }
          }
        }
        if (lost <= 0) {
          continue;
        }
        const double dataset_keep = ds.cached > 0 ? 1.0 - lost / ds.cached : 0.0;
        ds.cached -= lost;
        charge_loss(lost, trace_->catalog.Get(id).block_size);
        ScaleEffective(d, dataset_keep);
      }
      // Per-job partitions (CoorDL-style) are striped across the same
      // servers: each job loses its share of the crashed one too.
      if (plan_.cache_model == CacheModelKind::kPerJobStatic) {
        for (const JobId id : lifecycle_.present()) {
          JobState& s = jobs_[static_cast<std::size_t>(id)];
          if (s.private_cached <= 0) {
            continue;
          }
          const double lost = s.private_cached * (1.0 - keep);
          s.private_cached -= lost;
          s.effective *= keep;
          charge_loss(lost, trace_->catalog.Get(s.spec->dataset).block_size);
        }
      }
      return;
    }
    case FaultKind::kCacheServerRecover:
      faults_.RecoverServer(event.target);  // Rejoins empty; the fill dynamics re-warm it.
      return;
    case FaultKind::kRemoteDegrade:
      faults_.Degrade(event, now);
      return;
    case FaultKind::kWorkerCrash: {
      if (!lifecycle_.CrashWorker(event.target, jobs_, stats)) {
        return;
      }
      JobState& s = jobs_[static_cast<std::size_t>(event.target)];
      // RestartCost in the fluid model: the un-checkpointed progress suffix
      // is re-trained, charged as extra bytes (re-read through the normal
      // rate model once the job resumes).
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      double lost_bytes = 0;
      const double done =
          std::max(0.0, static_cast<double>(s.spec->total_bytes) - s.remaining);
      switch (config_.restart_cost.policy) {
        case RestartCostPolicy::kCheckpointEverything:
          break;
        case RestartCostPolicy::kLosePartialEpoch:
          lost_bytes = std::min(s.epoch_pos, done);
          break;
        case RestartCostPolicy::kCheckpointInterval: {
          const double interval =
              static_cast<double>(std::max<std::int64_t>(1, config_.restart_cost.interval_blocks)) *
              static_cast<double>(d.block_size);
          lost_bytes = std::fmod(done, interval);
          break;
        }
      }
      if (lost_bytes > 0) {
        s.remaining += lost_bytes;
        s.epoch_pos = std::max(0.0, s.epoch_pos - lost_bytes);
        stats.bytes_refetched += lost_bytes;
        // Lost compute-time at the rate the crashed worker actually ran at
        // (its held GPU type), before the placement is released below.
        stats.compute_lost += lost_bytes / EffectiveIdeal(s.spec->ideal_io, s.speed);
      }
      s.running = false;
      s.gpu_type = -1;
      s.speed = 1.0;
      if (plan_.cache_model == CacheModelKind::kPerJobStatic) {
        // CoorDL's private cache lives on the crashed worker.
        s.private_cached = 0;
        s.effective = 0;
      }
      return;
    }
    case FaultKind::kWorkerRestart:
      lifecycle_.RestartWorker(event.target, stats);
      return;  // Re-admitted via the resume path (restore penalty applies).
    case FaultKind::kDataManagerRestart: {
      // In the fluid model the Data Manager's durable state (allocations +
      // disk contents) restores exactly, so a restart is performance-neutral
      // here; the fine engine and the real-thread runtime exercise the actual
      // snapshot/restore machinery.
      ++stats.dm_restarts;
      return;
    }
  }
  LogInvalidFaultKind(event);
}

void FlowEngine::RecordMetrics(Seconds now) {
  std::vector<JobRates>& rates = rates_;
  rates.clear();
  for (const JobId id : lifecycle_.live()) {
    const JobState& s = jobs_[static_cast<std::size_t>(id)];
    if (!s.running) {
      continue;
    }
    const Dataset& d = trace_->catalog.Get(s.spec->dataset);
    double quota = 0;  // Shared pools have no allocation to compare against.
    if (plan_.cache_model == CacheModelKind::kDatasetQuota) {
      quota = static_cast<double>(
          std::min(datasets_[static_cast<std::size_t>(d.id)].quota, d.size));
    } else if (plan_.cache_model == CacheModelKind::kPerJobStatic) {
      quota = static_cast<double>(std::min(s.private_quota, d.size));
    }
    rates.push_back({s.spec, s.speed, s.rate, s.io_rate, s.effective, quota});
  }
  metrics_.OnRates(now, rates, prefetch_rate_, faults_.resources(), trace_->catalog);
}

SimResult FlowEngine::Run() {
  // Jump to the first arrival; the reschedule tick keeps its origin at 0.
  Seconds t = std::max(0.0, lifecycle_.NextArrivalTime());
  Seconds next_tick = config_.reschedule_period;
  bool need_resched = true;
  std::uint64_t steps = 0;

  while (!metrics_.AllFinished()) {
    SILOD_CHECK(++steps < 100'000'000ULL) << "flow engine step limit exceeded";
    if (t > config_.max_time) {
      break;  // The jobs with no finish time are reported unfinished.
    }

    need_resched = lifecycle_.ArriveUntil(t + kTimeEps) || need_resched;
    if (need_resched) {
      Reschedule(t);
      need_resched = false;
    }
    ComputeRates();
    RecordMetrics(t);

    // Time to the next event.
    Seconds dt =
        std::min({lifecycle_.NextArrivalTime() - t, next_tick - t, faults_.NextTime() - t});
    for (const JobId id : lifecycle_.live()) {
      const JobState& s = jobs_[static_cast<std::size_t>(id)];
      if (!s.running || s.rate <= 0) {
        continue;
      }
      dt = std::min(dt, s.remaining / s.rate);
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      const double epoch_left = static_cast<double>(d.size) - s.epoch_pos;
      if (epoch_left > kEps) {
        dt = std::min(dt, epoch_left / s.rate);
      }
    }
    SILOD_CHECK(std::isfinite(dt)) << "simulation stalled at t=" << t << " with "
                                   << metrics_.finished_count() << " jobs finished";
    dt = std::max(dt, 0.0);

    // Advance.
    for (const JobId id : lifecycle_.live()) {
      JobState& s = jobs_[static_cast<std::size_t>(id)];
      if (!s.running) {
        continue;
      }
      const double delta = s.rate * dt;
      s.remaining -= delta;
      s.epoch_pos += delta;
      if (plan_.cache_model == CacheModelKind::kPerJobStatic) {
        const Dataset& d = trace_->catalog.Get(s.spec->dataset);
        const double limit = std::min(static_cast<double>(s.private_quota),
                                      static_cast<double>(d.size));
        s.private_cached = std::min(limit, s.private_cached + s.io_rate * dt);
      }
    }
    // Advance the per-dataset cache fill (only held datasets fill).
    for (const DatasetId d : held_) {
      DatasetState& ds = datasets_[static_cast<std::size_t>(d)];
      if (ds.fill_rate > 0 && ds.cached < ds.fill_limit) {
        if (ds.zone_limit.empty()) {
          ds.cached = std::min(ds.fill_limit, ds.cached + ds.fill_rate * dt);
        } else {
          FillZones(ds, ds.fill_rate * dt);
        }
      }
    }
    t += dt;

    if (t + kTimeEps >= next_tick) {
      next_tick += config_.reschedule_period;
      need_resched = true;
    }

    // Inject faults before the completion scan so a crash at the same instant
    // as a completion takes effect first (mirrors the fine engine).  Every
    // fault triggers an immediate reschedule.
    if (faults_.NextTime() <= t + kTimeEps) {
      for (const FaultEvent& event : faults_.PopDue(t + kTimeEps)) {
        ApplyFault(event, t);
      }
      need_resched = true;
    }

    // Epoch boundaries and completions.
    lifecycle_.FinishWhere([&](JobId id) {
      JobState& s = jobs_[static_cast<std::size_t>(id)];
      if (!s.running) {
        return false;
      }
      const Dataset& d = trace_->catalog.Get(s.spec->dataset);
      if (s.remaining <= kEps) {
        s.running = false;
        s.remaining = 0;
        metrics_.OnFinish(id, t);
        need_resched = true;
        return true;
      }
      if (s.epoch_pos + kEps >= static_cast<double>(d.size)) {
        s.epoch_pos = 0;
        const double old_effective = s.effective;
        const bool was_cold = !s.warm;
        s.warm = true;
        switch (plan_.cache_model) {
          case CacheModelKind::kDatasetQuota:
            s.effective = std::min(datasets_[static_cast<std::size_t>(d.id)].cached,
                                   static_cast<double>(d.size));
            break;
          case CacheModelKind::kPerJobStatic:
            s.effective = s.private_cached;
            break;
          case CacheModelKind::kSharedLru:
          case CacheModelKind::kSharedLfu:
            break;  // Effective tracked inside the rate fixed point.
        }
        // Re-run the scheduler only when the boundary materially changed the
        // job's cache effectiveness (first warm epoch or >1% of the dataset);
        // steady-state boundaries would otherwise trigger O(jobs) reschedules
        // per epoch across the cluster.  Rates are refreshed either way.
        if (was_cold ||
            std::abs(s.effective - old_effective) > 0.01 * static_cast<double>(d.size)) {
          need_resched = true;
        }
      }
      return false;
    });
  }
  SimResult result = metrics_.Finalize();
  result.faults = faults_.Finish(t, result.total_throughput);
  return result;
}

}  // namespace silod
