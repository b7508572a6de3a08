// The benchmark's own tests: decorator transparency, the percentile rule,
// metric naming, and a tiny seed of every workload passing its checks.
#include <sys/stat.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "gtest/gtest.h"
#include "metrics.h"
#include "src/core/policy_registry.h"
#include "src/core/system.h"
#include "timed_scheduler.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

silod::Trace SmallTrace() {
  silod::TraceOptions options;
  options.num_jobs = 40;
  options.mean_interarrival = silod::Minutes(1);
  options.median_duration = silod::Minutes(20);
  options.max_duration = silod::Hours(4);
  options.seed = 5;
  return silod::TraceGenerator(options).Generate();
}

silod::ExperimentConfig SmallConfig(const std::string& policy, silod::EngineKind engine) {
  silod::ExperimentConfig config;
  config.policy = policy;
  config.engine = engine;
  config.sim.resources.total_gpus = 16;
  config.sim.resources.total_cache = silod::TB(1);
  config.sim.resources.remote_io = silod::Gbps(4);
  config.sim.resources.num_servers = 4;
  silod::FaultChurnOptions churn;
  churn.horizon = silod::Hours(6);
  churn.server_crashes_per_hour = 1;
  churn.worker_crashes_per_hour = 1;
  churn.num_servers = 4;
  churn.num_jobs = 40;
  config.sim.faults = silod::GenerateFaultPlan(churn);
  return config;
}

bool SameCounters(const silod::EngineStepCounters& a, const silod::EngineStepCounters& b) {
  return a.steps == b.steps && a.miss_completions == b.miss_completions &&
         a.hit_completions == b.hit_completions && a.unblocks == b.unblocks &&
         a.drains == b.drains && a.reschedules == b.reschedules &&
         a.flow_recomputes == b.flow_recomputes && a.flow_rate_changes == b.flow_rate_changes &&
         a.calendar_updates == b.calendar_updates;
}

TEST(TimedSchedulerTest, DecoratedRunIsBitIdentical) {
  const silod::Trace trace = SmallTrace();
  for (const auto& [policy, engine] :
       {std::pair{std::string("gavel+silod"), silod::EngineKind::kFlow},
        std::pair{std::string("fifo+silod"), silod::EngineKind::kFine}}) {
    const silod::ExperimentConfig config = SmallConfig(policy, engine);
    const silod::SimResult plain = silod::RunExperiment(trace, config);

    Tracer tracer;
    silod::Result<std::shared_ptr<silod::Scheduler>> inner = silod::MakeSchedulerByName(policy);
    ASSERT_TRUE(inner.ok());
    auto timed = std::make_shared<TimedScheduler>(*inner, &tracer, kCapturePoints);
    const silod::SimResult decorated = silod::RunExperimentWith(trace, timed, config);

    EXPECT_TRUE(silod::PhysicallyIdentical(plain, decorated)) << policy;
    EXPECT_TRUE(SameCounters(plain.steps, decorated.steps)) << policy;
    EXPECT_EQ(plain.faults.server_crashes, decorated.faults.server_crashes) << policy;
    EXPECT_EQ(plain.faults.bytes_lost, decorated.faults.bytes_lost) << policy;
    EXPECT_EQ(timed->name(), (*inner)->name());
    EXPECT_GT(timed->calls(), 0u);
    EXPECT_EQ(tracer.Micros("sched.solve").size(), timed->calls());
    EXPECT_EQ(timed->captured().size(), timed->calls());
    EXPECT_GT(TimeEstimator(timed->captured(), nullptr, 0).jobs, 0u);
  }
}

TEST(MetricsTest, TailPercentileKeepsTenSamplesBeyond) {
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) {
    thousand.push_back(1001 - i);  // Unsorted input.
  }
  Percentile p = TailPercentile(thousand, 99);
  EXPECT_EQ(p.value, 990);
  EXPECT_EQ(p.percentile, 99);
  EXPECT_EQ(p.samples, 1000u);

  // 500 samples: p99 would leave 5 beyond, so p98 (10 beyond) is reported.
  std::vector<double> five_hundred(thousand.begin(), thousand.begin() + 500);
  p = TailPercentile(five_hundred, 99);
  EXPECT_EQ(p.percentile, 98);
  EXPECT_EQ(p.samples, 500u);
  EXPECT_EQ(p.value, 501 + 489);

  // Too few samples for any tail: the median, with its count.
  p = TailPercentile({5, 1, 3, 2, 4}, 99);
  EXPECT_EQ(p.value, 3);
  EXPECT_EQ(p.percentile, 60);
  EXPECT_EQ(p.samples, 5u);

  p = TailPercentile({}, 99);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_EQ(p.value, 0);

  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
  // Eight values: the two lowest and the two highest are dropped.
  EXPECT_EQ(InterquartileMean({100, 1, 2, 3, 4, 5, 6, 7}), 4.5);
  EXPECT_EQ(InterquartileMean({3, 1, 2}), 2);
}

TEST(MetricsTest, ScaleTimesScalesTimesAndRatesOnly) {
  MetricSet m;
  for (const char* unit : {"s", "ms", "us", "ns", "1/s", "MB", "min", "ratio", "count"}) {
    m.Set(std::string("m_") + (unit[0] == '1' ? "rate" : unit), 10, unit);
  }
  m.ScaleTimes(0.5);
  for (const char* name : {"m_s", "m_ms", "m_us", "m_ns"}) {
    EXPECT_EQ(m.Get(name), 5) << name;
  }
  EXPECT_EQ(m.Get("m_rate"), 20);
  for (const char* name : {"m_MB", "m_min", "m_ratio", "m_count"}) {
    EXPECT_EQ(m.Get(name), 10) << name;  // Simulated minutes are not host time.
  }
  EXPECT_GT(ReferenceKernelSeconds(), 0);
}

TEST(MetricsTest, NamesAreWellFormedAndListedInBenchmarkJson) {
  EXPECT_TRUE(ValidMetricName("sched.solve_p99_us"));
  EXPECT_TRUE(ValidMetricName("flow400-gavel-churn"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("p99/us"));

  std::ifstream file(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(file.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << file.rdbuf();
  const std::string json = text.str();
  std::size_t listed = 0;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_NE(json.find("\"name\": \"" + std::string(m.name) + "\", \"unit\": \"" + m.unit +
                          "\""),
                std::string::npos)
          << m.name << " missing from BENCHMARK.json";
      ++listed;
    }
  }
  for (const std::string& w : WorkloadNames()) {
    EXPECT_TRUE(ValidMetricName(w)) << w;
    EXPECT_NE(json.find("\"name\": \"" + w + "\""), std::string::npos) << w;
    ++listed;
  }
  // No name in BENCHMARK.json that the benchmark does not report.
  std::size_t names = 0;
  for (std::size_t at = json.find("\"name\": "); at != std::string::npos;
       at = json.find("\"name\": ", at + 1)) {
    ++names;
  }
  EXPECT_EQ(names, listed);
}

class TinyWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyWorkloadTest, PassesOutputChecks) {
  mkdir("perfbench_test_run", 0755);
  for (const bool trace : {false, true}) {
    RunOptions options;
    options.workload = GetParam();
    options.seed = 977;
    options.seconds = 0;  // One repetition per trace.
    options.trace = trace;
    options.jobs = GetParam() == "serve-replay-sjf" ? 60 : 30;
    options.silodd = PERFBENCH_SILODD;
    options.run_dir = "perfbench_test_run";
    const RunOutput out = RunWorkload(options);
    std::string notes;
    for (const std::string& n : out.notes) {
      notes += n + "\n";
    }
    EXPECT_TRUE(out.correct) << notes;
    EXPECT_EQ(out.failed, 0u) << notes;
    EXPECT_GT(out.attempted, 0u);
    const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
    ASSERT_EQ(out.metrics.all().size(), specs.size());
    if (!trace) {
      for (const Metric& m : out.metrics.all()) {
        EXPECT_GT(m.value, 0) << GetParam() << " " << m.name;
      }
    } else {
      EXPECT_GT(out.metrics.Get("sched.solve_calls"), 0) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TinyWorkloadTest, ::testing::ValuesIn(WorkloadNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace perfbench
