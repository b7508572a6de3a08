// Fig. 16: curriculum learning (§7.4).
//
// (a) The exponential pacing function (Eq. 10) for step sizes 50k and 75k:
//     fraction of the (difficulty-sorted) data available per iteration.
// (b) Uniform cache vs LRU cache JCT for ResNet-50 on ImageNet-22k trained
//     with curriculum sampling: without the epoch structure LRU no longer
//     thrashes and matches uniform caching.
//
// Jobs are simulated at block granularity, so one "iteration" consumes one
// 64 MB shard; the pacing step is scaled accordingly (the paper's 50k/75k
// image iterations ~ 2.3k/3.5k shard iterations at ~22 images per shard
// batch), preserving the growth profile.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/workload/curriculum.h"

using namespace silod;
using namespace silod::bench;

namespace {

SimResult RunCurriculum(CacheSystem cache, std::int64_t step, std::uint64_t seed) {
  const ModelZoo zoo;
  Trace trace;
  const Bytes dataset_size = TB(1.36);
  const DatasetId d = trace.catalog.Add("imagenet22k-sorted", dataset_size, kDefaultBlockSize);
  JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, 1.0, 0);
  // ~2 epochs worth of samples drawn through the pacing function.
  job.total_bytes = 2 * dataset_size;
  job.curriculum = true;
  job.regular = false;
  job.curriculum_params.starting_percent = 0.04;
  job.curriculum_params.alpha = 1.9;
  job.curriculum_params.step = step;
  trace.jobs.push_back(job);

  SimConfig sim;
  sim.resources.total_gpus = 1;
  sim.resources.total_cache = TB(1.0);
  sim.resources.remote_io = MBps(100);
  sim.resources.num_servers = 1;
  sim.reschedule_period = Minutes(10);

  ExperimentConfig config;
  config.policy = PolicyName(SchedulerKind::kFifo, cache);
  config.sim = sim;
  config.sim.seed = seed;
  config.engine = EngineKind::kFine;
  return RunExperiment(trace, config);
}

// The paper repeats each setting 5 times; curriculum sampling is the only
// stochastic element, so we average over seeds too.
double MeanJctMinutes(CacheSystem cache, std::int64_t step) {
  double sum = 0;
  constexpr int kRepeats = 5;
  for (int r = 0; r < kRepeats; ++r) {
    sum += RunCurriculum(cache, step, 1000 + static_cast<std::uint64_t>(r)).AvgJctMinutes();
  }
  return sum / kRepeats;
}

}  // namespace

int main() {
  std::printf("=== Fig. 16a: exponential pacing function (start 4%%, alpha 1.9) ===\n");
  const std::int64_t num_blocks = TB(1.36) / kDefaultBlockSize;
  Table pacing({"iteration (shards)", "available %, step=2.3k", "available %, step=3.5k"});
  CurriculumParams p50;
  p50.step = 2300;
  CurriculumParams p75;
  p75.step = 3500;
  const ExponentialPacing pace50(p50, num_blocks);
  const ExponentialPacing pace75(p75, num_blocks);
  for (std::int64_t i = 0; i <= 20000; i += 2000) {
    pacing.AddRow({std::to_string(i), Fmt(pace50.AvailableFraction(i) * 100, 1),
                   Fmt(pace75.AvailableFraction(i) * 100, 1)});
  }
  pacing.Print();
  std::printf("Full data available from iteration %lld (step 2.3k) / %lld (step 3.5k)\n",
              static_cast<long long>(pace50.FullDataIteration()),
              static_cast<long long>(pace75.FullDataIteration()));

  std::printf("\n=== Fig. 16b: Uniform vs LRU cache under curriculum learning ===\n");
  Table table({"pacing step (shards)", "Uniform cache JCT (min)", "LRU cache JCT (min)",
               "LRU/Uniform"});
  for (const std::int64_t step : {2300, 3500}) {
    const double uniform = MeanJctMinutes(CacheSystem::kSiloD, step);
    const double lru = MeanJctMinutes(CacheSystem::kAlluxio, step);
    table.AddRow({std::to_string(step), Fmt(uniform), Fmt(lru), Fmt(lru / uniform, 3)});
  }
  table.Print();
  std::printf("\nPaper reference: LRU ~ Uniform (~367 min for both step sizes) — newly\n"
              "cached items are immediately re-usable under curriculum sampling, so LRU\n"
              "no longer suffers scan thrashing.  SiloD handles such jobs in the\n"
              "irregular partition (§6) without touching the regular jobs' estimator.\n");
  return 0;
}
