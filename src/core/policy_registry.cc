#include "src/core/policy_registry.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/sched/fifo.h"
#include "src/sched/greedy.h"
#include "src/sched/sjf.h"
#include "src/sched/storage_policies.h"

namespace silod {
namespace {

// One row per enum value: its policy-name token and its display name.
template <typename Enum>
struct Row {
  Enum value;
  const char* token;
  const char* display;
};

constexpr Row<SchedulerKind> kSchedulers[] = {
    {SchedulerKind::kFifo, "fifo", "FIFO"},
    {SchedulerKind::kSjf, "sjf", "SJF"},
    {SchedulerKind::kGavel, "gavel", "Gavel"},
};

constexpr Row<CacheSystem> kCacheSystems[] = {
    {CacheSystem::kSiloD, "silod", "SiloD"},
    {CacheSystem::kAlluxio, "alluxio", "Alluxio"},
    {CacheSystem::kAlluxioLfu, "alluxio-lfu", "Alluxio-LFU"},
    {CacheSystem::kCoorDl, "coordl", "CoorDL"},
    {CacheSystem::kQuiver, "quiver", "Quiver"},
};

template <typename Enum, std::size_t N>
const Row<Enum>& RowOf(const Row<Enum> (&rows)[N], Enum value) {
  const auto* row = std::find_if(rows, rows + N, [value](const Row<Enum>& r) {
    return r.value == value;
  });
  SILOD_CHECK(row != rows + N) << "enum value " << static_cast<int>(value)
                               << " has no row";
  return *row;
}

template <typename Enum, std::size_t N>
const Row<Enum>* RowByToken(const Row<Enum> (&rows)[N], std::string_view token) {
  const auto* row = std::find_if(rows, rows + N, [token](const Row<Enum>& r) {
    return token == r.token;
  });
  return row == rows + N ? nullptr : row;
}

}  // namespace

const char* SchedulerKindName(SchedulerKind kind) { return RowOf(kSchedulers, kind).display; }

const char* CacheSystemName(CacheSystem system) { return RowOf(kCacheSystems, system).display; }

std::shared_ptr<Scheduler> MakeScheduler(SchedulerKind kind, CacheSystem system,
                                         const SchedulerOptions& options) {
  std::shared_ptr<StoragePolicy> storage;
  switch (system) {
    case CacheSystem::kSiloD:
      storage = std::make_shared<SiloDGreedyStorage>(options.manage_remote_io);
      break;
    case CacheSystem::kAlluxio:
      storage = std::make_shared<AlluxioStorage>();
      break;
    case CacheSystem::kAlluxioLfu:
      storage = std::make_shared<AlluxioStorage>(AlluxioStorage::Eviction::kLfu);
      break;
    case CacheSystem::kCoorDl:
      storage = std::make_shared<CoorDlStorage>();
      break;
    case CacheSystem::kQuiver:
      storage = std::make_shared<QuiverStorage>();
      break;
  }

  const bool silod = system == CacheSystem::kSiloD;
  switch (kind) {
    case SchedulerKind::kFifo:
      return std::make_shared<FifoScheduler>(storage);
    case SchedulerKind::kSjf:
      return std::make_shared<SjfScheduler>(
          storage, silod ? SjfScoreMode::kSiloD : SjfScoreMode::kComputeOnly,
          options.preemptive_sjf);
    case SchedulerKind::kGavel:
      if (silod) {
        return std::make_shared<GavelScheduler>(nullptr, /*silod_aware=*/true,
                                                options.manage_remote_io,
                                                options.gavel_objective);
      }
      return std::make_shared<GavelScheduler>(storage, /*silod_aware=*/false);
  }
  SILOD_CHECK(false) << "unreachable scheduler kind";
  return nullptr;
}

std::string PolicyName(SchedulerKind kind, CacheSystem system) {
  return std::string(RowOf(kSchedulers, kind).token) + "+" + RowOf(kCacheSystems, system).token;
}

Result<std::pair<SchedulerKind, CacheSystem>> ParsePolicyName(std::string_view name) {
  const std::size_t plus = name.find('+');
  if (plus != std::string_view::npos) {
    const Row<SchedulerKind>* kind = RowByToken(kSchedulers, name.substr(0, plus));
    const Row<CacheSystem>* system = RowByToken(kCacheSystems, name.substr(plus + 1));
    if (kind != nullptr && system != nullptr) {
      return std::make_pair(kind->value, system->value);
    }
  }
  std::string known;
  for (const std::string& policy : AllPolicyNames()) {
    known += (known.empty() ? "" : ", ") + policy;
  }
  return Status::NotFound("unknown policy '" + std::string(name) + "'; known: " + known);
}

std::vector<std::string> AllPolicyNames() {
  std::vector<std::string> names;
  for (const Row<SchedulerKind>& kind : kSchedulers) {
    for (const Row<CacheSystem>& system : kCacheSystems) {
      names.push_back(PolicyName(kind.value, system.value));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::shared_ptr<Scheduler>> MakeSchedulerByName(const std::string& name,
                                                       const SchedulerOptions& options) {
  const Result<std::pair<SchedulerKind, CacheSystem>> pair = ParsePolicyName(name);
  if (!pair.ok()) {
    return pair.status();
  }
  return MakeScheduler(pair->first, pair->second, options);
}

}  // namespace silod
