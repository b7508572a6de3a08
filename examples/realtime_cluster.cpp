// The §7.1.1 micro-benchmark *running for real*: the paper replaces GPU
// compute with profiled sleeps ("GPU acceleration"); RtCluster does the same
// on threads against the real data plane (in-memory remote store with an
// egress token bucket, shared uniform cache, per-job throttles, a live
// scheduler loop).  Scaled to ~1/40000 so three epochs take seconds.
#include <cstdio>

#include "src/common/table.h"
#include "src/core/policy_registry.h"
#include "src/rt/rt_cluster.h"

using namespace silod;

namespace {

// 32 MB "datasets" standing in for the 1.3 TB ones; IO rates are kept at the
// paper's real magnitudes so the contention structure is unchanged.
Trace MakeScaledMicroTrace() {
  const ModelZoo zoo;
  Trace trace;
  auto add = [&](const char* model, Bytes size, double epochs) {
    const DatasetId d = trace.catalog.Add(std::string(model) + std::to_string(trace.jobs.size()),
                                          size, KB(512));
    JobSpec job = MakeJob(static_cast<JobId>(trace.jobs.size()), zoo, model, 1, d, 1.0, 0);
    job.total_bytes = static_cast<Bytes>(epochs * static_cast<double>(size));
    trace.jobs.push_back(job);
  };
  add("ResNet-50", MB(32), 3);
  add("ResNet-50", MB(32), 3);
  add("EfficientNetB1", MB(32), 3);
  return trace;
}

}  // namespace

int main() {
  const Trace trace = MakeScaledMicroTrace();

  ClusterResources resources;
  resources.total_gpus = 4;
  resources.total_cache = MB(48);   // 1.5 datasets' worth: allocation matters.
  resources.remote_io = MBps(120);  // Under the ~300 MB/s aggregate demand.
  resources.num_servers = 1;

  std::printf("Real-time mini-cluster: 3 jobs x 3 epochs over 32 MB datasets,\n"
              "48 MB cache, 120 MB/s egress.  Threads, sleeps and token buckets —\n"
              "no simulation.\n\n");

  Table table({"system", "job", "runtime (s)", "hits", "misses", "hit ratio"});
  for (const CacheSystem cache : {CacheSystem::kSiloD, CacheSystem::kQuiver}) {
    RtCluster cluster(&trace, MakeScheduler(SchedulerKind::kFifo, cache), resources);
    const RtResult result = cluster.Run();
    if (result.timed_out) {
      std::printf("TIMED OUT\n");
      return 1;
    }
    for (const RtJobResult& j : result.jobs) {
      const double total = static_cast<double>(j.cache_hits + j.cache_misses);
      table.AddRow({CacheSystemName(cache), trace.jobs[j.id].name, Fmt(j.Runtime(), 2),
                    std::to_string(j.cache_hits), std::to_string(j.cache_misses),
                    Fmt(100.0 * j.cache_hits / total, 1) + "%"});
    }
    std::printf("%s makespan: %.2f s\n", CacheSystemName(cache), result.makespan);
  }
  std::printf("\n");
  table.Print();
  std::printf("\nSiloD's greedy allocation caches the ResNet-50 datasets (higher f*/d),\n"
              "so their epochs 2-3 hit at high ratios; Quiver caches whole datasets\n"
              "by noisy benefit and wastes the remainder.\n");
  return 0;
}
