// Quickstart: the Fig. 4 motivating scenario through SiloD's public API.
//
// Two 1-GPU ResNet-50 jobs each train a 1.36 TB ImageNet-22k copy on a 2-GPU
// cluster with 1.4 TB of cache and a 50 MB/s per-job remote-IO cap.  A cache
// system that hoards (Quiver gives all cache to Job-0) makes Job-0 fast and
// starves Job-1; SiloD's max-min fair co-scheduling (Gavel + SiloDPerf) splits
// cache and remote IO so both jobs run at the same speed.
#include <cstdio>

#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/system.h"
#include "src/estimator/ioperf.h"

using namespace silod;

namespace {

Trace MakeFig4Trace() {
  const ModelZoo zoo;
  Trace trace;
  const DatasetId d0 = trace.catalog.Add("imagenet22k-copy0", TB(1.36), kDefaultBlockSize);
  const DatasetId d1 = trace.catalog.Add("imagenet22k-copy1", TB(1.36), kDefaultBlockSize);
  // Three epochs each at the profiled 114 MB/s ideal speed.
  const Seconds epochs3 = 3.0 * 1.36e12 / MBps(114);
  trace.jobs.push_back(MakeJob(0, zoo, "ResNet-50", 1, d0, epochs3, /*submit=*/0));
  trace.jobs.push_back(MakeJob(1, zoo, "ResNet-50", 1, d1, epochs3, /*submit=*/0));
  return trace;
}

SimConfig MakeFig4Cluster() {
  SimConfig config;
  config.resources.total_gpus = 2;
  config.resources.total_cache = TB(1.4);
  config.resources.remote_io = MBps(100);         // Account-level egress.
  config.resources.per_job_remote_cap = MBps(50); // Per-VM provider cap (Fig. 4).
  config.resources.num_servers = 1;
  config.reschedule_period = Minutes(10);
  return config;
}

}  // namespace

int main() {
  const Trace trace = MakeFig4Trace();

  std::printf("SiloD quickstart — reproducing the Fig. 4 motivating example\n\n");
  std::printf("Closed-form SiloDPerf (Eq. 4) for one job, d = 1.36 TB, f* = 114 MB/s:\n");
  Table perf({"cache (TB)", "remote IO (MB/s)", "SiloDPerf (MB/s)"});
  for (double cache_tb : {0.0, 0.7, 1.36}) {
    for (double io : {25.0, 50.0}) {
      const BytesPerSec p = SiloDPerfThroughput(MBps(114), MBps(io), TB(cache_tb), TB(1.36));
      perf.AddRow({Fmt(cache_tb, 2), Fmt(io, 0), Fmt(ToMBps(p), 1)});
    }
  }
  perf.Print();

  Table results({"system", "Job-0 JCT (min)", "Job-1 JCT (min)", "min speed (MB/s)",
                 "fairness (avg)"});
  for (const char* policy : {"gavel+quiver", "gavel+silod"}) {
    ExperimentConfig config;
    config.policy = policy;
    config.sim = MakeFig4Cluster();
    config.engine = EngineKind::kFlow;
    const SimResult result = RunExperiment(trace, config);

    double worst_speed = 1e18;
    for (const JobResult& j : result.jobs) {
      const double speed = ToMBps(static_cast<double>(trace.jobs[j.id].total_bytes) / j.Jct());
      worst_speed = std::min(worst_speed, speed);
    }
    results.AddRow({config.policy, Fmt(result.jobs[0].Jct() / 60.0),
                    Fmt(result.jobs[1].Jct() / 60.0), Fmt(worst_speed),
                    Fmt(result.AvgFairness(), 2)});
  }
  std::printf("\nGavel (max-min fairness) on Quiver vs SiloD:\n");
  results.Print();
  std::printf("\nQuiver caches one whole dataset and starves the other job;"
              " SiloD splits cache and remote IO so both jobs finish together.\n");
  return 0;
}
