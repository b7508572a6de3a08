#include "src/sched/allocation.h"

#include <cmath>
#include <cstring>
#include <string>

#include "src/common/digest.h"
#include "src/common/logging.h"

namespace silod {

const char* CacheModelKindName(CacheModelKind kind) {
  switch (kind) {
    case CacheModelKind::kDatasetQuota:
      return "dataset-quota";
    case CacheModelKind::kSharedLru:
      return "shared-lru";
    case CacheModelKind::kSharedLfu:
      return "shared-lfu";
    case CacheModelKind::kPerJobStatic:
      return "per-job-static";
  }
  return "unknown";
}

Status ValidateStorageResources(const ClusterResources& resources) {
  if (resources.total_cache < 0) {
    return Status::InvalidArgument("total_cache must be >= 0");
  }
  if (!std::isfinite(resources.remote_io) || resources.remote_io < 0) {
    return Status::InvalidArgument("remote_io must be finite and >= 0");
  }
  if (!(resources.per_job_remote_cap >= 0)) {
    return Status::InvalidArgument("per_job_remote_cap must be >= 0");
  }
  if (resources.num_servers < 1) {
    return Status::InvalidArgument("num_servers must be >= 1, got " +
                                   std::to_string(resources.num_servers));
  }
  return Status::Ok();
}

Status SetStorageFromFlags(double cache_tb, double egress_gbps, double per_job_cap_mbps,
                           ClusterResources* resources) {
  const auto bad = [](const char* flag, double value) {
    return Status::InvalidArgument(std::string("--") + flag + " must be finite and >= 0, got " +
                                   std::to_string(value));
  };
  // The upper bound keeps TB(cache_tb) inside Bytes.
  if (!std::isfinite(cache_tb) || cache_tb < 0 || cache_tb > 9e6) {
    return bad("cache-tb", cache_tb);
  }
  if (!std::isfinite(egress_gbps) || egress_gbps < 0) {
    return bad("egress-gbps", egress_gbps);
  }
  if (!(per_job_cap_mbps >= 0)) {
    return Status::InvalidArgument("--per-job-cap-mbps must be >= 0 (0 = no cap), got " +
                                   std::to_string(per_job_cap_mbps));
  }
  resources->total_cache = TB(cache_tb);
  resources->remote_io = Gbps(egress_gbps);
  resources->per_job_remote_cap = per_job_cap_mbps > 0 ? MBps(per_job_cap_mbps) : kUnlimitedRate;
  return Status::Ok();
}

int AllocationPlan::GpusUsed() const {
  int total = 0;
  for (const auto& [id, alloc] : jobs) {
    if (alloc.running) {
      total += alloc.gpus;
    }
  }
  return total;
}

Bytes AllocationPlan::DatasetCacheTotal() const {
  Bytes total = 0;
  for (const auto& [id, bytes] : dataset_cache) {
    total += bytes;
  }
  return total;
}

const JobAllocation& AllocationPlan::Get(JobId job) const {
  static const JobAllocation kEmpty;
  auto it = jobs.find(job);
  return it == jobs.end() ? kEmpty : it->second;
}

bool AllocationPlan::IsRunning(JobId job) const { return Get(job).running; }

Status AllocationPlan::Validate(const ClusterResources& resources) const {
  if (GpusUsed() > resources.total_gpus) {
    return Status::ResourceExhausted("GPU over-commit: " + std::to_string(GpusUsed()) + " > " +
                                     std::to_string(resources.total_gpus));
  }
  Bytes cache = DatasetCacheTotal();
  for (const auto& [id, alloc] : jobs) {
    if (!alloc.running &&
        (alloc.gpus > 0 || alloc.private_cache > 0 ||
         (manages_remote_io && !std::isinf(alloc.remote_io) && alloc.remote_io > 0))) {
      return Status::FailedPrecondition("resources allocated to non-running job " +
                                        std::to_string(id));
    }
    cache += alloc.private_cache;
  }
  // Tolerate rounding: allocators derive byte quotas from floating-point
  // shares, so handing out exactly total_cache can overshoot by a few ulps'
  // worth of bytes.  Same epsilon as the remote-IO check below.
  if (static_cast<double>(cache) >
      static_cast<double>(resources.total_cache) * (1.0 + 1e-9) + 1.0) {
    return Status::ResourceExhausted("cache over-commit");
  }
  for (const auto& [id, zone_shares] : dataset_zone_cache) {
    const auto it = dataset_cache.find(id);
    const Bytes quota = it == dataset_cache.end() ? 0 : it->second;
    Bytes spread = 0;
    for (const Bytes share : zone_shares) {
      if (share < 0) {
        return Status::FailedPrecondition("negative zone share for dataset " + std::to_string(id));
      }
      spread += share;
    }
    if (spread != quota) {
      return Status::FailedPrecondition(
          "zone shares for dataset " + std::to_string(id) + " sum to " + std::to_string(spread) +
          " but its quota is " + std::to_string(quota));
    }
  }
  if (manages_remote_io) {
    BytesPerSec io = 0;
    for (const auto& [id, alloc] : jobs) {
      if (alloc.running && !std::isinf(alloc.remote_io)) {
        io += alloc.remote_io;
      }
    }
    // Tolerate rounding from the solvers.
    if (io > resources.remote_io * (1.0 + 1e-9) + 1.0) {
      return Status::ResourceExhausted("remote IO over-commit");
    }
  }
  return Status::Ok();
}

namespace {

// Doubles compare and hash by bit pattern: bit-identity must distinguish
// what arithmetic distinguishes (NaN payloads aside, which the solvers never
// produce), and must not be confused by -0.0 == 0.0.
std::uint64_t DoubleBits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool SameAllocation(const JobAllocation& a, const JobAllocation& b) {
  return a.running == b.running && a.gpus == b.gpus && a.private_cache == b.private_cache &&
         DoubleBits(a.remote_io) == DoubleBits(b.remote_io) && a.gpu_type == b.gpu_type &&
         DoubleBits(a.speed) == DoubleBits(b.speed);
}

}  // namespace

bool PlansBitIdentical(const AllocationPlan& a, const AllocationPlan& b) {
  if (a.cache_model != b.cache_model || a.manages_remote_io != b.manages_remote_io) {
    return false;
  }
  if (a.jobs.size() != b.jobs.size() || a.dataset_cache.size() != b.dataset_cache.size() ||
      a.dataset_zone_cache.size() != b.dataset_zone_cache.size()) {
    return false;
  }
  for (auto it_a = a.jobs.begin(), it_b = b.jobs.begin(); it_a != a.jobs.end(); ++it_a, ++it_b) {
    if (it_a->first != it_b->first || !SameAllocation(it_a->second, it_b->second)) {
      return false;
    }
  }
  if (a.dataset_cache != b.dataset_cache) {
    return false;
  }
  return a.dataset_zone_cache == b.dataset_zone_cache;
}

std::uint64_t PlanDigest(const AllocationPlan& plan) {
  Fnv1a64 fnv;
  fnv.U64(static_cast<std::uint64_t>(plan.cache_model));
  fnv.U64(plan.manages_remote_io ? 1 : 0);
  fnv.U64(plan.jobs.size());
  for (const auto& [id, alloc] : plan.jobs) {
    fnv.U64(static_cast<std::uint64_t>(id));
    fnv.U64(alloc.running ? 1 : 0);
    fnv.U64(static_cast<std::uint64_t>(alloc.gpus));
    fnv.U64(static_cast<std::uint64_t>(alloc.private_cache));
    fnv.Double(alloc.remote_io);
    // Mixed only for typed placements: an untyped plan's digest must equal
    // the digest the pre-heterogeneity code produced for the same plan.
    if (alloc.gpu_type >= 0) {
      fnv.U64(static_cast<std::uint64_t>(alloc.gpu_type));
      fnv.Double(alloc.speed);
    }
  }
  fnv.U64(plan.dataset_cache.size());
  for (const auto& [id, bytes] : plan.dataset_cache) {
    fnv.U64(static_cast<std::uint64_t>(id));
    fnv.U64(static_cast<std::uint64_t>(bytes));
  }
  fnv.U64(plan.dataset_zone_cache.size());
  for (const auto& [id, shares] : plan.dataset_zone_cache) {
    fnv.U64(static_cast<std::uint64_t>(id));
    fnv.U64(shares.size());
    for (const Bytes share : shares) {
      fnv.U64(static_cast<std::uint64_t>(share));
    }
  }
  return fnv.hash();
}

}  // namespace silod
