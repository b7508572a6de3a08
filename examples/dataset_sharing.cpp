// Dataset sharing (§6, §7.3): drives the Data Manager's Table 3 allocation
// APIs directly, showing that cache is charged once per dataset — two jobs
// reading ImageNet-1k fit in 143 GB, not 286 GB — and then quantifies the
// cluster-level benefit with a sharing sweep.
#include <cstdio>

#include "src/common/table.h"
#include "src/core/data_manager.h"
#include "src/core/system.h"

using namespace silod;

int main() {
  // --- The Table 3 API, by hand -------------------------------------------
  std::printf("Part 1: the Data Manager charges cache once per dataset\n\n");
  DataManager manager(GB(200), MBps(200));
  const Dataset imagenet = MakeDataset(0, "ImageNet-1k", GB(143), MB(64));

  // allocateCacheSize(dataset_uri, cache_size)
  auto st = manager.AllocateCacheSize(imagenet, GB(143));
  std::printf("allocateCacheSize(ImageNet-1k, 143 GB) -> %s\n", st.ToString().c_str());
  // allocateRemoteIO(job_id, io_speed)
  st = manager.AllocateRemoteIo(/*job=*/0, MBps(60));
  std::printf("allocateRemoteIO(job 0, 60 MB/s)       -> %s\n", st.ToString().c_str());
  st = manager.AllocateRemoteIo(/*job=*/1, MBps(60));
  std::printf("allocateRemoteIO(job 1, 60 MB/s)       -> %s\n", st.ToString().c_str());

  // Job 0 reads two blocks (cold misses, then cached for everyone).
  manager.ReadBlock(0, imagenet, 0);
  manager.ReadBlock(0, imagenet, 1);
  // Job 1 reads the same blocks: hits, at zero remote cost, zero extra cache.
  const auto shared_read = manager.ReadBlock(1, imagenet, 0);
  std::printf("\nJob 1 reading block 0 after job 0 cached it: %s\n",
              shared_read.hit ? "HIT (no remote IO)" : "miss");
  std::printf("Cache used: %.1f GB for both jobs (not double-charged)\n\n",
              ToGB(manager.cache().CachedBytes(imagenet.id)));

  // --- Cluster-level effect (Fig. 15) --------------------------------------
  std::printf("Part 2: cluster-level benefit of sharing (48-GPU simulation)\n\n");
  Table table({"% jobs sharing datasets", "avg JCT (min)", "improvement"});
  double base = 0;
  for (const double share : {0.0, 0.5, 1.0}) {
    TraceOptions options;
    options.num_jobs = 150;
    options.mean_interarrival = Minutes(3);
    options.median_duration = Hours(2);
    options.max_duration = Days(1);
    options.share_fraction = share;
    options.seed = 17;
    const Trace trace = TraceGenerator(options).Generate();
    ExperimentConfig config;
    config.policy = "sjf+silod";
    config.sim.resources.total_gpus = 48;
    config.sim.resources.total_cache = TB(4);
    config.sim.resources.remote_io = Gbps(4);
    config.sim.resources.num_servers = 12;
    const SimResult result = RunExperiment(trace, config);
    if (share == 0.0) {
      base = result.AvgJctSeconds();
    }
    table.AddRow({Fmt(share * 100, 0), Fmt(result.AvgJctMinutes()),
                  "-" + Fmt((1.0 - result.AvgJctSeconds() / base) * 100, 1) + "%"});
  }
  table.Print();
  return 0;
}
