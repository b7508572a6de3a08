// Unit tests for src/workload: datasets, model zoo, jobs, traces, curriculum.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <set>

#include "src/common/units.h"
#include "src/estimator/ioperf.h"
#include "src/workload/curriculum.h"
#include "src/workload/dataset.h"
#include "src/workload/job.h"
#include "src/workload/model_zoo.h"
#include "src/workload/trace_gen.h"
#include "src/workload/trace_io.h"

namespace silod {
namespace {

// ---------------------------------------------------------------- Dataset --

TEST(Dataset, BlockMathExactMultiple) {
  const Dataset d = MakeDataset(0, "x", MB(640), MB(64));
  EXPECT_EQ(d.num_blocks, 10);
  EXPECT_EQ(d.BlockBytes(0), MB(64));
  EXPECT_EQ(d.BlockBytes(9), MB(64));
}

TEST(Dataset, ShortFinalBlock) {
  const Dataset d = MakeDataset(0, "x", MB(650), MB(64));
  EXPECT_EQ(d.num_blocks, 11);
  EXPECT_EQ(d.BlockBytes(10), MB(10));
  Bytes total = 0;
  for (std::int64_t b = 0; b < d.num_blocks; ++b) {
    total += d.BlockBytes(b);
  }
  EXPECT_EQ(total, d.size);
}

TEST(DatasetCatalog, DenseIds) {
  DatasetCatalog catalog;
  const DatasetId a = catalog.Add("a", GB(1), MB(64));
  const DatasetId b = catalog.Add("b", GB(2), MB(64));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(catalog.Get(b).size, GB(2));
  EXPECT_EQ(catalog.size(), 2u);
}

// --------------------------------------------------------------- ModelZoo --

TEST(ModelZoo, ProfiledValues) {
  const ModelZoo zoo;
  EXPECT_DOUBLE_EQ(ToMBps(zoo.GetModel("ResNet-50").ideal_io_per_gpu), 114.0);
  EXPECT_DOUBLE_EQ(ToMBps(zoo.GetModel("ResNet-152").ideal_io_per_gpu), 43.0);
  EXPECT_DOUBLE_EQ(ToMBps(zoo.GetModel("EfficientNetB1").ideal_io_per_gpu), 69.0);
  EXPECT_DOUBLE_EQ(ToMBps(zoo.GetModel("VLAD").ideal_io_per_gpu), 10.0);
  EXPECT_DOUBLE_EQ(ToMBps(zoo.GetModel("BERT").ideal_io_per_gpu), 2.0);
}

TEST(ModelZoo, Table4DatasetSizes) {
  const ModelZoo zoo;
  EXPECT_EQ(zoo.GetDataset("ImageNet-22k").size, TB(1.36));
  EXPECT_EQ(zoo.GetDataset("OpenImages").size, GB(660));
  EXPECT_EQ(zoo.GetDataset("ImageNet-1k").size, GB(143));
  EXPECT_EQ(zoo.GetDataset("Youtube-8M").size, TB(1.46));
  EXPECT_EQ(zoo.GetDataset("WebSearch").size, TB(20.9));
}

TEST(ModelZoo, EightGpuScalingMatchesTable2) {
  // Table 2: 8xV100 ResNet-50 reads 888 MB/s = 7.79x of one V100's 114 MB/s.
  const ModelZoo zoo;
  const BytesPerSec io8 = ModelZoo::ScaledIdealIo(zoo.GetModel("ResNet-50"), 8);
  EXPECT_NEAR(ToMBps(io8), 888.0, 5.0);
}

TEST(ModelZoo, GpuSpeedScaleMultiplies) {
  const ModelZoo zoo;
  const auto& m = zoo.GetModel("ResNet-50");
  EXPECT_DOUBLE_EQ(ModelZoo::ScaledIdealIo(m, 1, 4.0), 4.0 * ModelZoo::ScaledIdealIo(m, 1, 1.0));
}

TEST(ModelZoo, Figure6JobsAreOrderedByCacheEfficiency) {
  const ModelZoo zoo;
  const auto jobs = zoo.Figure6Jobs();
  ASSERT_EQ(jobs.size(), 11u);
  double prev = 1e18;
  for (const auto& j : jobs) {
    const double eff = CacheEfficiencyMBpsPerGB(j.model.ideal_io_per_gpu, j.dataset.size);
    EXPECT_LE(eff, prev + 1e-12) << j.model.model << "/" << j.dataset.name;
    prev = eff;
  }
  // The paper's extremes: 0.8 MB/s/GB for ResNet-50/ImageNet-1k, 9.5e-5 for
  // BERT/WebSearch.
  EXPECT_NEAR(CacheEfficiencyMBpsPerGB(jobs.front().model.ideal_io_per_gpu,
                                       jobs.front().dataset.size),
              0.8, 0.01);
  EXPECT_NEAR(CacheEfficiencyMBpsPerGB(jobs.back().model.ideal_io_per_gpu,
                                       jobs.back().dataset.size),
              9.5e-5, 5e-6);
}

// -------------------------------------------------------------------- Job --

TEST(Job, MakeJobDerivesWork) {
  const ModelZoo zoo;
  DatasetCatalog catalog;
  const DatasetId d = catalog.Add("ImageNet-1k", GB(143), MB(64));
  const JobSpec job = MakeJob(0, zoo, "ResNet-50", 1, d, Hours(1), Minutes(5));
  EXPECT_EQ(job.num_gpus, 1);
  EXPECT_DOUBLE_EQ(ToMBps(job.ideal_io), 114.0);
  EXPECT_NEAR(job.IdealDuration(), Hours(1), 1e-6);
  EXPECT_DOUBLE_EQ(job.submit_time, Minutes(5));
  EXPECT_NEAR(job.NumEpochs(catalog.Get(d)), 114.0 * 3600 / 143000, 1e-3);
}

TEST(Job, RemoteIoLimitsMatchTable5) {
  EXPECT_DOUBLE_EQ(ToGbps(RemoteIoLimitForCluster(8)), 1.6);
  EXPECT_DOUBLE_EQ(ToGbps(RemoteIoLimitForCluster(96)), 8.0);
  EXPECT_DOUBLE_EQ(ToGbps(RemoteIoLimitForCluster(400)), 32.0);
  EXPECT_DOUBLE_EQ(ToGbps(RemoteIoLimitForCluster(1900)), 120.0);
}

// -------------------------------------------------------------- TraceGen --

TEST(TraceGen, Deterministic) {
  TraceOptions options;
  options.num_jobs = 50;
  options.seed = 99;
  const Trace a = TraceGenerator(options).Generate();
  const Trace b = TraceGenerator(options).Generate();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].model, b.jobs[i].model);
    EXPECT_EQ(a.jobs[i].num_gpus, b.jobs[i].num_gpus);
    EXPECT_DOUBLE_EQ(a.jobs[i].submit_time, b.jobs[i].submit_time);
    EXPECT_EQ(a.jobs[i].total_bytes, b.jobs[i].total_bytes);
  }
}

TEST(TraceGen, ArrivalsAreOrderedAndDurationsBounded) {
  TraceOptions options;
  options.num_jobs = 200;
  options.seed = 5;
  const Trace trace = TraceGenerator(options).Generate();
  Seconds prev = 0;
  for (const JobSpec& j : trace.jobs) {
    EXPECT_GE(j.submit_time, prev);
    prev = j.submit_time;
    EXPECT_GE(j.IdealDuration(), options.min_duration - 1.0);
    EXPECT_LE(j.IdealDuration(), options.max_duration + 1.0);
  }
}

TEST(TraceGen, UniqueDatasetsWithoutSharing) {
  TraceOptions options;
  options.num_jobs = 40;
  options.share_fraction = 0.0;
  const Trace trace = TraceGenerator(options).Generate();
  std::set<DatasetId> datasets;
  for (const JobSpec& j : trace.jobs) {
    EXPECT_TRUE(datasets.insert(j.dataset).second) << "dataset reused without sharing";
  }
}

TEST(TraceGen, SharingReusesDatasets) {
  TraceOptions options;
  options.num_jobs = 200;
  options.share_fraction = 1.0;
  options.seed = 3;
  const Trace trace = TraceGenerator(options).Generate();
  std::set<DatasetId> datasets;
  for (const JobSpec& j : trace.jobs) {
    datasets.insert(j.dataset);
  }
  // With full sharing, at most one instance per named dataset.
  EXPECT_LE(datasets.size(), 5u);
}

TEST(TraceGen, GpuSpeedScaleRaisesIdealIo) {
  TraceOptions slow;
  slow.num_jobs = 20;
  slow.seed = 7;
  TraceOptions fast = slow;
  fast.gpu_speed_scale = 4.0;
  const Trace a = TraceGenerator(slow).Generate();
  const Trace b = TraceGenerator(fast).Generate();
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_NEAR(b.jobs[i].ideal_io / a.jobs[i].ideal_io, 4.0, 1e-9);
  }
}

TEST(TraceGen, MicrobenchmarkTraceMatchesPaper) {
  const Trace trace = MakeMicrobenchmarkTrace();
  ASSERT_EQ(trace.jobs.size(), 5u);
  EXPECT_EQ(trace.jobs[0].model, "ResNet-50");
  EXPECT_EQ(trace.jobs[4].model, "BERT");
  EXPECT_EQ(trace.jobs[4].num_gpus, 4);
  EXPECT_EQ(trace.TotalGpuDemand(), 8);
  // 13 epochs of 1.3 TB at 114 MB/s ~ 2470 min; the paper runs ~3,500 min
  // wall-clock including the IO-bound start.
  EXPECT_NEAR(trace.jobs[0].NumEpochs(trace.catalog.Get(trace.jobs[0].dataset)), 13.0, 0.01);
  EXPECT_NEAR(trace.jobs[4].NumEpochs(trace.catalog.Get(trace.jobs[4].dataset)), 0.07, 0.001);
}

// ------------------------------------------------------------- Curriculum --

// Every numeric CSV column parses strictly, and a bad one is named by row
// and column instead of aborting or silently truncating downstream.
TEST(TraceIo, CsvRejectsMalformedNumbers) {
  const std::string header =
      "id,name,model,gpus,dataset,dataset_bytes,block_bytes,ideal_io_bps,total_bytes,"
      "submit_seconds,regular,curriculum,pacing_start,pacing_alpha,pacing_step\n";
  const auto row = [](const std::string& gpus, const std::string& ideal_io,
                      const std::string& submit) {
    return "0,j,ResNet-50," + gpus + ",d0,10000000000,64000000," + ideal_io +
           ",20000000000," + submit + ",1,0,0.04,1.9,50000\n";
  };
  ASSERT_TRUE(TraceFromCsv(header + row("4", "114000000.000000", "0.000000")).ok());
  const struct {
    std::string csv;
    const char* column;
  } kBad[] = {
      {header + row("4", "nan", "0"), "ideal_io_bps"},
      {header + row("4", "inf", "0"), "ideal_io_bps"},
      {header + row("4", "1e6x", "0"), "ideal_io_bps"},
      {header + row("4", "1e6", "nan"), "submit_seconds"},
      {header + row("4", "1e6", "-1"), "submit_seconds"},
      {header + row("4x", "1e6", "0"), "gpus"},
      {header + row("1.5", "1e6", "0"), "gpus"},
      {header + row("99999999999", "1e6", "0"), "gpus"},
  };
  for (const auto& c : kBad) {
    const Result<Trace> trace = TraceFromCsv(c.csv);
    ASSERT_FALSE(trace.ok()) << c.csv;
    const std::string& message = trace.status().message();
    EXPECT_NE(message.find("row 2"), std::string::npos) << message;
    EXPECT_NE(message.find(c.column), std::string::npos) << message;
  }
}

TEST(Curriculum, PacingGrowsMonotonically) {
  CurriculumParams params;
  params.starting_percent = 0.04;
  params.alpha = 1.9;
  params.step = 50000;
  const ExponentialPacing pacing(params, 1000);
  std::int64_t prev = 0;
  for (std::int64_t i = 0; i < 500000; i += 10000) {
    const std::int64_t avail = pacing.AvailableItems(i);
    EXPECT_GE(avail, prev);
    prev = avail;
  }
  EXPECT_EQ(pacing.AvailableItems(10'000'000), 1000);
}

TEST(Curriculum, PacingStepBoundaries) {
  CurriculumParams params;
  params.starting_percent = 0.1;
  params.alpha = 2.0;
  params.step = 100;
  const ExponentialPacing pacing(params, 1000);
  EXPECT_EQ(pacing.AvailableItems(0), 100);
  EXPECT_EQ(pacing.AvailableItems(99), 100);
  EXPECT_EQ(pacing.AvailableItems(100), 200);
  EXPECT_EQ(pacing.AvailableItems(200), 400);
  EXPECT_EQ(pacing.AvailableItems(400), 1000);  // Capped at N.
}

TEST(Curriculum, FullDataIteration) {
  CurriculumParams params;
  params.starting_percent = 0.1;
  params.alpha = 2.0;
  params.step = 100;
  const ExponentialPacing pacing(params, 1000);
  // 0.1 * 2^k >= 1 -> k = 4 -> iteration 400.
  EXPECT_EQ(pacing.FullDataIteration(), 400);
  EXPECT_EQ(pacing.AvailableItems(pacing.FullDataIteration()), 1000);
}

TEST(Curriculum, SamplerStaysWithinPrefix) {
  CurriculumParams params;
  params.starting_percent = 0.04;
  params.alpha = 1.9;
  params.step = 1000;
  ExponentialPacing pacing(params, 10000);
  CurriculumSampler sampler(pacing, Rng(31));
  for (std::int64_t i = 0; i < 20000; ++i) {
    const std::int64_t item = sampler.Sample(i);
    EXPECT_GE(item, 0);
    EXPECT_LT(item, pacing.AvailableItems(i));
  }
}

TEST(Curriculum, EasyItemsSampledMoreOften) {
  // The defining skew of curriculum learning: early (easy) items accumulate
  // far more accesses than late (hard) ones.
  CurriculumParams params;
  params.starting_percent = 0.04;
  params.alpha = 1.9;
  params.step = 2000;
  ExponentialPacing pacing(params, 1000);
  CurriculumSampler sampler(pacing, Rng(33));
  std::map<std::int64_t, int> counts;
  for (std::int64_t i = 0; i < 40000; ++i) {
    counts[sampler.Sample(i)]++;
  }
  int first_decile = 0;
  int last_decile = 0;
  for (const auto& [item, count] : counts) {
    if (item < 100) {
      first_decile += count;
    }
    if (item >= 900) {
      last_decile += count;
    }
  }
  // Items in the first decile are available from iteration 0; the last decile
  // only once the pacing function saturates, so easy items see ~3x the
  // accesses under these parameters.
  EXPECT_GT(first_decile, 2 * std::max(1, last_decile));
}

}  // namespace
}  // namespace silod
